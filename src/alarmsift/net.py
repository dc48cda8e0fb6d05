"""Chunk-sequence classifier: a shared convolutional encoder applied to each
chunk tensor, a stack of LSTM layers (two by default, none for the static
model) over the embedding sequence, and a small classifier head on its last
step, trained with class-weighted cross-entropy.

Everything (forward, backward, Adam, clipping, early stopping) is explicit
numpy so gradients can be validated against central differences and training
is bitwise reproducible from (seed, data, config).

Class convention: logit/probability column 1 is the true-alarm class.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .records import ClassWeights, _store_number_fields, class_weights
from .stats import auc

LOG_CLAMP = 1e-12
_EVAL_BATCH = 16  # sequences per eval-mode forward pass
_ENCODER_DTYPE = np.float32  # of the encoder pass in ``train`` and ``predict``
_ENCODER_TILE = 8  # images per encoder tile (see ``_encoder_forward``)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and training hyperparameters.

    ``embed_dim`` defaults to the 128-wide desk-scale encoder; 1280 mirrors
    the width of the large pretrained encoder the desk model stands in for.
    It must be at least 8, the smallest width at which every conv layer has
    two or more feature maps (see ``_encoder_widths``).  ``lstm_layers = 0``
    is the static model: its head reads the embedding of its single chunk,
    so it requires ``n_chunks == 1``.  The input shape is the data's, not
    config (see ``_as_batch``).  Every ``int`` and ``float`` field is checked
    and stored as a plain ``int`` or ``float`` (see
    ``records._store_number_fields``).
    """

    embed_dim: int = 128
    lstm_hidden: int = 64
    lstm_layers: int = 2
    head_hidden: int = 32
    dropout: float = 0.3
    learning_rate: float = 1e-3
    clip_norm: float = 1.0
    patience: int = 8
    max_epochs: int = 60
    batch_size: int = 16
    seed: int = 42
    n_chunks: int = 6

    def __post_init__(self):
        _store_number_fields(self)
        for name, low in (("embed_dim", 8), ("seed", 0), ("lstm_hidden", 1),
                          ("lstm_layers", 0), ("head_hidden", 1), ("patience", 1),
                          ("max_epochs", 1), ("batch_size", 1), ("n_chunks", 1)):
            if (value := getattr(self, name)) < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("learning_rate", "clip_norm"):
            if (value := getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.lstm_layers == 0 and self.n_chunks != 1:
            raise ValueError(f"lstm_layers == 0 (the static model) requires "
                             f"n_chunks == 1, got n_chunks={self.n_chunks}")


@dataclass
class ModelParams:
    """Named parameter tensors (C is ``conv1_w``'s axis 1) and their config."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_auc: list[float]
    max_grad_norm: list[float]  # per epoch, the largest pre-clip global norm
    best_epoch: int  # 1-based
    stop_reason: str  # "patience" | "max_epochs"

    @property
    def epochs_run(self) -> int:
        return len(self.val_auc)


def _encoder_widths(embed_dim: int) -> tuple[int, int, int]:
    return embed_dim // 4, embed_dim // 2, embed_dim


def init_params(cfg: ModelConfig, in_channels: int,
                rng: np.random.Generator) -> ModelParams:
    """Fan-based uniform init for conv/linear weights, orthogonal recurrent
    blocks, and forget-gate bias 1; ``conv1_w`` reads ``in_channels``."""
    w1, w2, w3 = _encoder_widths(cfg.embed_dim)
    tensors: dict[str, np.ndarray] = {}

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    tensors["conv1_w"] = uniform((w1, in_channels, 3, 3), in_channels * 9)
    tensors["conv1_b"] = np.zeros(w1)
    tensors["conv2_w"] = uniform((w2, w1, 3, 3), w1 * 9)
    tensors["conv2_b"] = np.zeros(w2)
    tensors["conv3_w"] = uniform((w3, w2, 3, 3), w2 * 9)
    tensors["conv3_b"] = np.zeros(w3)

    h = cfg.lstm_hidden
    width = cfg.embed_dim  # of the sequence the next layer reads
    for layer in range(cfg.lstm_layers):
        tensors[f"lstm{layer}_wx"] = uniform((4 * h, width), width)
        blocks = []
        for _ in range(4):
            q, _ = np.linalg.qr(rng.standard_normal((h, h)))
            blocks.append(q)
        tensors[f"lstm{layer}_wh"] = np.concatenate(blocks, axis=0)
        b = np.zeros(4 * h)
        b[h:2 * h] = 1.0  # forget gate
        tensors[f"lstm{layer}_b"] = b
        width = h

    tensors["head_w1"] = uniform((cfg.head_hidden, width), width)
    tensors["head_b1"] = np.zeros(cfg.head_hidden)
    tensors["head_w2"] = uniform((2, cfg.head_hidden), cfg.head_hidden)
    tensors["head_b2"] = np.zeros(2)
    return ModelParams(config=cfg, tensors=tensors)


# ---------------------------------------------------------------------------
# Layer primitives (forward returns a cache for the matching backward)
# ---------------------------------------------------------------------------

class _Workspace:
    """Scratch buffers of one call, reused by all of its batches and layers.

    Each name maps to one flat array, which is replaced when a request does
    not fit or names another dtype; ``get`` returns a C-contiguous prefix
    view of the requested shape.  Every request names its dtype, the
    entry point's encoder dtype or bool/uint8 for masks, so no buffer
    promotes a float32 pass.  A view holds whatever its last user left
    there, so a caller zeroes what it needs zeroed.  ``train``, ``predict``
    and ``finite_diff_check`` each make their own: no buffer outlives the
    call, and no two threads share one.  The pooled outputs ``act2`` and
    ``act3`` (the layer inputs the backward pass reads back) and the ReLU
    masks ``mask1``-``mask3``, one bit per activation, hold a whole batch;
    ``padded``, ``cols``, ``z``, ``relu``, ``pooled``, ``embed_grad``,
    ``pool_grad``, ``tap`` and ``dx``, each shared by all three conv layers,
    hold one tile of ``_ENCODER_TILE`` images.  The input is never copied
    whole: each tile's images are read from the caller's array.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple, dtype) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


class _Batch(NamedTuple):
    """The sequences ``x[rows]`` of an (N, T, C, H, W) array, encoded in
    ``dtype``.  Image k of the batch is chunk ``k % T`` of sequence
    ``rows[k // T]``; the encoder reads each tile's images from ``x`` in
    place, so no batch is copied out of it."""

    x: np.ndarray
    rows: np.ndarray
    dtype: type

    @property
    def n_images(self) -> int:
        return len(self.rows) * self.x.shape[1]

    def images(self, start: int) -> list[np.ndarray]:
        """NHWC views of images ``start`` .. ``start + _ENCODER_TILE - 1``."""
        t_len = self.x.shape[1]
        return [self.x[self.rows[k // t_len], k % t_len].transpose(1, 2, 0)
                for k in range(start, min(start + _ENCODER_TILE, self.n_images))]


def _im2col(images, ws: _Workspace, name: str, dtype) -> np.ndarray:
    """3x3 same-padding patches of B NHWC images -> (B*H*W, 9*C) in
    ``dtype``, written into the workspace buffer ``name``.

    ``images`` is an array or a list of (H, W, C) arrays, any strided views
    (layer 1 passes the caller's NCHW chunks transposed): each is copied
    once, cast to ``dtype``, into the interior of a zero-bordered padded
    buffer.  Patch layout is (di, dj, c), matching ``_flat_weight``.
    """
    b, (h, w, c) = len(images), images[0].shape
    xp = ws.get("padded", (b, h + 2, w + 2, c), dtype)
    xp[:, 0] = 0.0
    xp[:, -1] = 0.0
    xp[:, 1:-1, 0] = 0.0
    xp[:, 1:-1, -1] = 0.0
    for interior, image in zip(xp[:, 1:-1, 1:-1], images):
        interior[...] = image
    windows = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (B, H, W, C, 3, 3)
    cols = ws.get(name, (b * h * w, 9 * c), dtype)
    cols.reshape(b, h, w, 3, 3, c)[...] = windows.transpose(0, 1, 2, 4, 5, 3)
    return cols


def _flat_weight(w: np.ndarray) -> np.ndarray:
    """(F, C, 3, 3) canonical weight -> (9*C, F) matching _im2col layout."""
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0]))


def _conv_forward(images, w, b, ws: _Workspace, dtype):
    """Convolution of B NHWC ``images`` (as ``_im2col`` takes them) in
    ``dtype``; returns the output, a view of the workspace buffer ``z`` that
    every layer shares (as is ``cols``)."""
    bb, (h, ww, _) = len(images), images[0].shape
    f = w.shape[0]
    cols = _im2col(images, ws, "cols", dtype)
    out = np.matmul(cols, _flat_weight(w).astype(dtype, copy=False),
                    out=ws.get("z", (bb * h * ww, f), dtype))
    out += b.astype(dtype, copy=False)
    return out.reshape(bb, h, ww, f)


def _conv_backward(dout, cols, w, need_dx: bool, ws: _Workspace):
    """Weight, bias and (when ``need_dx``) input gradients of a 3x3 conv,
    in the dtype of ``dout``; the bias gradient is summed in float64.

    The input gradient takes one (B*H*W, C) GEMM per tap, ``dflat @ W_t``,
    all nine through one buffer.  Each element is the same length-F dot
    product as in one (B*H*W, 9C) GEMM, and with C >= 2 the BLAS returns
    the same bits.  Only layer 1 may have C = 1, and it never asks for
    ``dx``; ``ModelConfig`` refuses ``embed_dim`` < 8, so later layers have
    C >= 2.
    """
    bb, h, ww, f = dout.shape
    c = w.shape[1]
    dflat = dout.reshape(-1, f)
    dw = (cols.T @ dflat).reshape(3, 3, c, f).transpose(3, 2, 0, 1)
    db = dflat.sum(axis=0, dtype=np.float64)
    if not need_dx:
        return None, dw, db
    # tap t = 3*di + dj owns rows t*C .. t*C + C - 1
    wflat = _flat_weight(w).astype(dflat.dtype, copy=False)
    tap_buf = ws.get("tap", (dflat.shape[0], c), dflat.dtype)
    taps = (np.matmul(dflat, wflat[t * c:(t + 1) * c].T, out=tap_buf)
            .reshape(bb, h, ww, c) for t in range(9))
    # col2im: output pixel (i, j) took tap (di, dj) from input (i+di-1, j+dj-1).
    # Taps that fell on the zero padding are dropped by clipping the slices;
    # the (di, dj) order fixes each element's sequence of additions.  Each
    # tap is added before the next one's GEMM overwrites the buffer.
    dx = ws.get("dx", (bb, h, ww, c), dflat.dtype)
    dx[...] = 0.0
    for t, tap in enumerate(taps):
        di, dj = divmod(t, 3)
        r0, r1 = max(0, di - 1), min(h, h + di - 1)
        c0, c1 = max(0, dj - 1), min(ww, ww + dj - 1)
        dx[:, r0:r1, c0:c1] += tap[:, r0 + 1 - di:r1 + 1 - di,
                                   c0 + 1 - dj:c1 + 1 - dj]
    return dx, dw, db


def _avgpool_forward(x, out):
    """2x2 mean pool of NHWC input into ``out``, bit for bit
    ``mean(axis=(2, 4))`` of the (B, H/2, 2, W/2, 2, F) reshape.

    With two or more feature maps, as every layer has at ``embed_dim`` >= 8,
    that mean adds the taps in the order (0,0), (0,1), (1,0), (1,1) and
    divides by 4; four strided adds in that order skip its slow reduction
    loop.
    """
    b, h, w, f = x.shape
    v = x.reshape(b, h // 2, 2, w // 2, 2, f)
    np.add(v[:, :, 0, :, 0], v[:, :, 0, :, 1], out=out)
    out += v[:, :, 1, :, 0]
    out += v[:, :, 1, :, 1]
    out /= 4.0
    return out


def _avgpool_backward(dy, mask, ws: _Workspace):
    """Gradient through the 2x2 mean pool and the ReLU ``mask`` before it.

    The gradient goes into the buffer of the conv output z, which is dead
    once pooled: the mask keeps what the backward pass needs of it.
    """
    b, h, w, f = mask.shape
    dy4 = np.divide(dy, 4.0, out=ws.get("pool_grad", dy.shape, dy.dtype))
    dz = ws.get("z", mask.shape, dy.dtype)
    np.multiply(mask.reshape(b, h // 2, 2, w // 2, 2, f),
                dy4[:, :, None, :, None, :],
                out=dz.reshape(b, h // 2, 2, w // 2, 2, f))
    return dz


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _dropout_mask(shape, rate, rng):
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _pack_mask(mask):
    """(B, H, W, F) bool ReLU mask -> B rows of ``_mask_bytes`` bytes, one
    bit per activation.  Each image is packed into its own row of whole
    bytes, so a tile's rows can be stored into a whole batch's."""
    return np.packbits(mask.reshape(len(mask), -1), axis=1)


def _mask_bytes(h: int, w: int, f: int) -> int:
    """Bytes of one image's packed (H, W, F) mask; the last byte is padded
    when H*W*F is not a multiple of 8 (an odd ``embed_dim`` can make it so
    at layer 3)."""
    return (h * w * f + 7) // 8


def _unpack_mask(packed, shape):
    """The (B, H, W, F) bool mask of ``shape`` whose B rows ``_pack_mask``
    packed."""
    return (np.unpackbits(packed, axis=1, count=math.prod(shape[1:]))
            .view(bool).reshape(shape))


def _encoder_forward(batch: _Batch, tensors, ws: _Workspace):
    """Shared per-chunk encoder: the batch's images -> (B*T, D) float64
    embeddings, in image order.

    It takes the images through all three conv layers ``_ENCODER_TILE`` at a
    time, so the column matrices, 9x the size of a layer's input, are one
    tile's.  Layer 1 reads each tile straight from the caller's array (see
    ``_Batch``), casting it to ``batch.dtype`` as it fills the im2col pad
    buffer.  A tile is a row split of the whole batch's GEMMs: the
    embeddings do not depend on the tile size, unless OpenBLAS sends one of
    the two GEMMs, but not the other, to its kernel for at most 1e6
    multiply-adds, whose sums can round otherwise.  The pooled outputs of
    layers 1 and 2, the inputs of layers 2 and 3, are kept for the whole
    batch, as is each layer's ReLU mask packed to bits (``_pack_mask``);
    layer 3's pooled output is a tile buffer, whose per-image mean is the
    embedding.  The backward pass rebuilds a tile's columns from those
    inputs, and from ``batch`` for layer 1.  It computes in
    ``batch.dtype``, and so does its backward pass.  The cache holds
    ``batch`` and views into ``ws``; they stay valid until the next forward
    pass through the same workspace.
    """
    n, dtype = batch.n_images, batch.dtype
    hh, ww = batch.x.shape[3:]
    acts, masks = [], []
    for i in (1, 2, 3):
        f = tensors[f"conv{i}_w"].shape[0]
        masks.append(ws.get(f"mask{i}", (n, _mask_bytes(hh, ww, f)), np.uint8))
        hh, ww = hh // 2, ww // 2
        if i < 3:
            acts.append(ws.get(f"act{i + 1}", (n, hh, ww, f), dtype))
    h = np.empty((n, f))  # hh, ww and f are now layer 3's pooled output's
    for start in range(0, n, _ENCODER_TILE):
        tile = slice(start, start + _ENCODER_TILE)
        layer_in = batch.images(start)
        b = len(layer_in)
        for i in (1, 2, 3):
            z = _conv_forward(layer_in, tensors[f"conv{i}_w"],
                              tensors[f"conv{i}_b"], ws, dtype)
            mask = np.greater(z, 0, out=ws.get("relu", z.shape, bool))
            z *= mask  # ReLU
            masks[i - 1][tile] = _pack_mask(mask)
            out = acts[i - 1][tile] if i < 3 else ws.get("pooled", (b, hh, ww, f), dtype)
            layer_in = _avgpool_forward(z, out)
        h[tile] = layer_in.mean(axis=(1, 2), dtype=np.float64)
    return h, (batch, acts, masks)


def _encoder_backward(dh, cache, tensors, grads, ws: _Workspace):
    """Adds the conv gradients of ``dh`` into the float64 ``grads``, one
    tile of the forward pass at a time: a tile's columns are rebuilt from
    its layer inputs, read again from the caller's array for layer 1, its
    ReLU masks are unpacked from their bits, and its ``dw`` and ``db`` are
    added in tile order."""
    batch, acts, masks = cache
    n, f = dh.shape
    hh, ww = acts[-1].shape[1] // 2, acts[-1].shape[2] // 2  # of the pooled output
    for start in range(0, n, _ENCODER_TILE):
        tile = slice(start, start + _ENCODER_TILE)
        dh_tile = dh[tile]
        shape = (len(dh_tile), hh, ww, f)
        dout = np.divide(np.broadcast_to(dh_tile[:, None, None, :], shape), hh * ww,
                         out=ws.get("embed_grad", shape, batch.dtype))
        for i in (3, 2, 1):
            layer_in = acts[i - 2][tile] if i > 1 else batch.images(start)
            w = tensors[f"conv{i}_w"]
            mask = _unpack_mask(masks[i - 1][tile],
                                (len(dh_tile), *layer_in[0].shape[:2], w.shape[0]))
            dz = _avgpool_backward(dout, mask, ws)
            cols = _im2col(layer_in, ws, "cols", batch.dtype)
            dout, dw, db = _conv_backward(dz, cols, w, i > 1, ws)
            grads[f"conv{i}_w"] += dw
            grads[f"conv{i}_b"] += db


def _lstm_layer_forward(xs, wx, wh, b):
    """xs: (B, T, Din) -> outputs (B, T, H) plus per-step cache."""
    bsz, t_len, _ = xs.shape
    h4 = b.size
    h_dim = h4 // 4
    hs = np.zeros((bsz, t_len, h_dim))
    steps = []
    h = np.zeros((bsz, h_dim))
    c = np.zeros((bsz, h_dim))
    for t in range(t_len):
        z = xs[:, t] @ wx.T + h @ wh.T + b
        i = _sigmoid(z[:, :h_dim])
        f = _sigmoid(z[:, h_dim:2 * h_dim])
        g = np.tanh(z[:, 2 * h_dim:3 * h_dim])
        o = _sigmoid(z[:, 3 * h_dim:])
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h_prev = h
        h = o * tc
        hs[:, t] = h
        steps.append((i, f, g, o, c_prev, tc, h_prev))
    return hs, (xs, steps)


def _lstm_layer_backward(dhs, cache, wx, wh):
    """dhs: (B, T, H) gradients on every output step."""
    xs, steps = cache
    bsz, t_len, _ = xs.shape
    h_dim = dhs.shape[2]
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * h_dim)
    dxs = np.zeros_like(xs)
    dh_next = np.zeros((bsz, h_dim))
    dc_next = np.zeros((bsz, h_dim))
    for t in reversed(range(t_len)):
        i, f, g, o, c_prev, tc, h_prev = steps[t]
        dh = dhs[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        dwx += dz.T @ xs[:, t]
        dwh += dz.T @ h_prev
        db += dz.sum(axis=0)
        dxs[:, t] = dz @ wx
        dh_next = dz @ wh
    return dxs, dwx, dwh, db


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

def _model_forward(batch: _Batch, params: ModelParams, train: bool, rng,
                   ws: _Workspace):
    """The batch's B sequences -> softmax probabilities (B, 2) and a cache."""
    cfg = params.config
    tensors = params.tensors
    bsz, t_len = len(batch.rows), batch.x.shape[1]
    h, enc_cache = _encoder_forward(batch, tensors, ws)
    seq = h.reshape(bsz, t_len, cfg.embed_dim)

    lstm_caches = []
    drop_masks = []
    for layer in range(cfg.lstm_layers):
        if layer > 0 and train and cfg.dropout > 0:
            mask = _dropout_mask(seq.shape, cfg.dropout, rng)
            seq = seq * mask
        else:
            mask = None
        drop_masks.append(mask)
        seq, cache = _lstm_layer_forward(
            seq, tensors[f"lstm{layer}_wx"], tensors[f"lstm{layer}_wh"],
            tensors[f"lstm{layer}_b"])
        lstm_caches.append(cache)
    final = seq[:, -1]

    u = final @ tensors["head_w1"].T + tensors["head_b1"]
    relu_mask = u > 0
    r = u * relu_mask
    if train and cfg.dropout > 0:
        head_mask = _dropout_mask(r.shape, cfg.dropout, rng)
        r = r * head_mask
    else:
        head_mask = None
    logits = r @ tensors["head_w2"].T + tensors["head_b2"]

    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    cache = ((bsz, t_len), enc_cache, lstm_caches, drop_masks, final, relu_mask,
             head_mask, r)
    return probs, cache


def _model_backward(dlogits, cache, params: ModelParams, ws: _Workspace):
    cfg = params.config
    tensors = params.tensors
    (bsz, t_len), enc_cache, lstm_caches, drop_masks, final, relu_mask, head_mask, r = cache
    grads = {k: np.zeros_like(v) for k, v in tensors.items()}

    grads["head_w2"] += dlogits.T @ r
    grads["head_b2"] += dlogits.sum(axis=0)
    dr = dlogits @ tensors["head_w2"]
    if head_mask is not None:
        dr = dr * head_mask
    du = dr * relu_mask
    grads["head_w1"] += du.T @ final
    grads["head_b1"] += du.sum(axis=0)
    dfinal = du @ tensors["head_w1"]

    dseq = np.zeros((bsz, t_len, dfinal.shape[1]))
    dseq[:, -1] = dfinal
    for layer in reversed(range(cfg.lstm_layers)):
        dseq, dwx, dwh, db = _lstm_layer_backward(
            dseq, lstm_caches[layer], tensors[f"lstm{layer}_wx"],
            tensors[f"lstm{layer}_wh"])
        grads[f"lstm{layer}_wx"] += dwx
        grads[f"lstm{layer}_wh"] += dwh
        grads[f"lstm{layer}_b"] += db
        if drop_masks[layer] is not None:
            dseq = dseq * drop_masks[layer]

    dh = dseq.reshape(bsz * t_len, cfg.embed_dim)
    _encoder_backward(dh, enc_cache, tensors, grads, ws)
    return grads


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def _batch_loss_and_grad(probs, labels, weights: ClassWeights):
    """Mean weighted CE over the batch and its gradient w.r.t. the logits."""
    bsz = probs.shape[0]
    y = labels.astype(np.int64)
    w = np.where(labels, weights.w_true, weights.w_false)
    p_label = probs[np.arange(bsz), y]
    live = p_label >= LOG_CLAMP  # saturated samples contribute zero gradient
    loss = float(np.mean(-w * np.log(np.maximum(p_label, LOG_CLAMP))))
    onehot = np.zeros_like(probs)
    onehot[np.arange(bsz), y] = 1.0
    dlogits = (w * live)[:, None] * (probs - onehot) / bsz
    return loss, dlogits


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def _global_norm(grads: dict[str, np.ndarray]):
    return np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def _clip_to(grads: dict[str, np.ndarray], total, clip_norm: float) -> None:
    """Scale ``grads`` in place from global norm ``total`` to at most
    ``clip_norm``."""
    if total > clip_norm:
        scale = clip_norm / total
        for g in grads.values():
            g *= scale


class _Adam:
    def __init__(self, tensors, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.t = 0

    def step(self, tensors, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            tensors[k] -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _as_batch(x, cfg: ModelConfig, channels: int | None) -> np.ndarray:
    """The one check on model input, made by every public entry point before
    any forward pass: an (N, T, C, H, W) ndarray of ``cfg.n_chunks`` chunks,
    C >= 1 (equal to a trained model's ``channels``; ``train`` passes None
    and builds ``conv1_w`` for C), and H, W multiples of 8 for the three 2x2
    pools.  Anything else, a list of sequences say (``np.stack`` it), is
    refused by its type; an array that is not real numbers (complex or
    object, say) by its dtype, since the float copy would drop an imaginary
    part; and a sequence holding NaN or inf, or a value that float32 cannot
    hold, by its index."""
    if not isinstance(x, np.ndarray):
        raise TypeError(f"model input must be an (N, n_chunks, C, H, W) array, "
                        f"got {type(x).__name__}")
    if x.dtype.kind not in "biuf":
        raise ValueError(f"input has dtype {x.dtype}; model input must be real "
                         f"(bool, integer or float)")
    if x.ndim != 5:
        raise ValueError(f"expected (N, n_chunks, C, H, W) input, got shape {x.shape}")
    t, c, h, w = x.shape[1:]
    if t != cfg.n_chunks:
        raise ValueError(f"sequence has {t} chunks, config expects {cfg.n_chunks}")
    if channels is not None and c != channels:
        raise ValueError(f"input shape {x.shape[1:]} has {c} channels, but the "
                         f"model reads {channels}")
    if c < 1 or min(h, w) < 8 or h % 8 or w % 8:
        raise ValueError(f"input shape {x.shape[1:]}: C must be >= 1, and H and W "
                         f"multiples of 8 (three 2x2 pools); got C={c}, H={h}, W={w}")
    # NaN propagates through max, and +-inf shows in max or min
    high, low = x.max(axis=(1, 2, 3, 4)), x.min(axis=(1, 2, 3, 4))
    finite = np.isfinite(high) & np.isfinite(low)
    if not finite.all():
        raise ValueError(f"sequence {int(np.argmin(finite))} holds NaN or inf")
    top = np.finfo(_ENCODER_DTYPE).max
    inside = (high <= top) & (low >= -top)
    if not inside.all():
        raise ValueError(f"sequence {int(np.argmin(inside))} holds a value outside "
                         f"float32 range")
    return x


def stack_sequences(sequences) -> np.ndarray:
    """float32 sequences of one (T, C, H, W) shape, as ``build_sequence``
    returns them -> one float32 (N, T, C, H, W) array.

    Each sequence is copied into one preallocated array as it arrives, so
    a sized iterable that builds its sequences lazily, as
    ``harness.build_sequences`` passes, holds only one beside the result.
    Refuses an empty input, a sequence that is not float32 or whose shape
    differs from sequence 0's, each by its index, and a sized iterable that
    yields fewer or more sequences than its ``len()``, naming both counts.
    """
    if not isinstance(sequences, Sized):
        sequences = list(sequences)
    n = len(sequences)
    if n == 0:
        raise ValueError("no sequences to stack")
    x, i = None, 0
    for seq in sequences:  # not enumerate: its tuple would keep seq alive
        if i == n:
            raise ValueError(f"sequences has len() {n} but yielded more than {n}")
        seq = np.asarray(seq)
        if seq.dtype != np.float32:
            raise ValueError(f"sequence {i} has dtype {seq.dtype}; stack_sequences "
                             f"takes float32 sequences, as build_sequence returns")
        if x is None:
            x = np.empty((n, *seq.shape), np.float32)
        elif seq.shape != x.shape[1:]:
            raise ValueError(f"sequence {i} has shape {seq.shape}, but sequence 0 "
                             f"has shape {x.shape[1:]}")
        x[i] = seq
        i += 1
        del seq  # or it stays alive while the next sequence is built
    if i != n:
        raise ValueError(f"sequences has len() {n} but yielded {i}")
    return x


def predict(sequences, params: ModelParams) -> np.ndarray:
    """Eval-mode p_true of each sequence of the (N, T, C, H, W) array
    ``sequences``; deterministic (dropout off).  The encoder reads the
    array in place, casting each tile of images to float32 as it goes, so
    no copy of the input is made."""
    x = _as_batch(sequences, params.config, params.tensors["conv1_w"].shape[1])
    return _predict(x, np.arange(x.shape[0]), params)


def _predict(x, idx, params: ModelParams, ws: _Workspace | None = None):
    """Eval-mode p_true of the sequences ``x[idx]`` of a checked input,
    ``_EVAL_BATCH`` at a time, read from ``x`` in place: the bits of
    ``predict(x[idx], params)`` without the copy ``x[idx]`` makes."""
    ws = _Workspace() if ws is None else ws
    out = np.empty(len(idx))
    for start in range(0, len(idx), _EVAL_BATCH):
        batch = _Batch(x, idx[start:start + _EVAL_BATCH], _ENCODER_DTYPE)
        probs, _ = _model_forward(batch, params, False, None, ws)
        out[start:start + _EVAL_BATCH] = probs[:, 1]
    return out


def _split_rows(idx, n: int, name: str) -> np.ndarray:
    """``idx`` as int64 rows of an N-row input; refuses, naming the split
    and the first bad entry, one that is not an integer in [0, N)."""
    idx = np.asarray(idx)
    if idx.ndim != 1:
        raise ValueError(f"{name}_idx must be 1-D, got shape {idx.shape}")
    if idx.dtype.kind in "iuf":
        good = (idx >= 0) & (idx < n) & (np.floor(idx) == idx)
    else:  # bool, str, object, ...
        good = np.zeros(idx.shape, bool)
    if not good.all():
        k = int(np.argmin(good))
        raise ValueError(f"{name}_idx[{k}] is {idx[k].item()!r}; split indices "
                         f"must be integers in [0, {n})")
    return idx.astype(np.int64)


def train(sequences, labels, train_idx, val_idx,
          cfg: ModelConfig) -> tuple[ModelParams, TrainHistory]:
    """Adam training, on the (N, T, C, H, W) array ``sequences``, with
    global-norm gradient clipping and early stopping.

    Stops once validation AUC has not improved for ``cfg.patience`` epochs
    (ties keep the earliest best epoch) and returns the best-epoch weights.
    Bitwise deterministic under ``cfg.seed``.  Labels must be one per
    sequence, and every ``train_idx`` and ``val_idx`` entry an integer in
    [0, N).  Each batch is read from ``sequences`` in place, tile by tile,
    and cast to float32 as the encoder copies it; no batch or split is
    copied out of the input.  A batch whose loss or pre-clip gradient norm
    is not finite raises ValueError naming the epoch and the batch.
    """
    x = _as_batch(sequences, cfg, None)
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != x.shape[:1]:
        raise ValueError(f"train requires one label per sequence; got {labels.size} "
                         f"labels for {x.shape[0]} sequences")
    train_idx = _split_rows(train_idx, x.shape[0], "train")
    val_idx = _split_rows(val_idx, x.shape[0], "val")
    for name, idx in (("train", train_idx), ("val", val_idx)):
        part = labels[idx]
        if part.size == 0 or part.all() or not part.any():
            raise ValueError(f"{name} split must contain both classes")
    weights = class_weights(labels[train_idx])

    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, x.shape[2], rng)
    opt = _Adam(params.tensors, cfg.learning_rate)

    history = TrainHistory([], [], [], best_epoch=0, stop_reason="max_epochs")
    best_auc = -np.inf
    best_tensors = None
    ws = _Workspace()
    for epoch in range(1, cfg.max_epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_losses = []
        epoch_max_norm = 0.0
        for n_batch, start in enumerate(range(0, order.size, cfg.batch_size), 1):
            rows = order[start:start + cfg.batch_size]
            probs, cache = _model_forward(_Batch(x, rows, _ENCODER_DTYPE), params,
                                          True, rng, ws)
            loss, dlogits = _batch_loss_and_grad(probs, labels[rows], weights)
            grads = _model_backward(dlogits, cache, params, ws)
            norm = _global_norm(grads)
            if not np.isfinite(loss + norm):
                raise ValueError(f"training diverged at epoch {epoch}, batch "
                                 f"{n_batch}: loss {loss}, gradient norm {norm}")
            _clip_to(grads, norm, cfg.clip_norm)
            opt.step(params.tensors, grads)
            epoch_losses.append(loss)
            epoch_max_norm = max(epoch_max_norm, norm)
        # the validation pass reuses the training buffers
        val_auc = auc(_predict(x, val_idx, params, ws), labels[val_idx])
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_auc.append(float(val_auc))
        history.max_grad_norm.append(epoch_max_norm)
        if val_auc > best_auc:
            best_auc = val_auc
            history.best_epoch = epoch
            best_tensors = {k: v.copy() for k, v in params.tensors.items()}
        elif epoch - history.best_epoch >= cfg.patience:
            history.stop_reason = "patience"
            break
    return ModelParams(cfg, best_tensors), history


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def finite_diff_check(params: ModelParams, sample, label: bool,
                      epsilon: float = 1e-5) -> dict[str, float]:
    """Relative error between analytic and central-difference gradients,
    per parameter group: ||g_analytic - g_numeric||_2 /
    max(||g_analytic||_2, ||g_numeric||_2, 1e-12).

    ``sample`` is one (T, C, H, W) array, checked as a batch of one.  The
    loss runs at unit class weights with dropout disabled, and the encoder
    casts the sample to float64 as it reads it, so it runs the same code as
    in ``train`` but in double precision; use a reduced config.
    """
    x = _as_batch(sample[None] if isinstance(sample, np.ndarray) else sample,
                  params.config, params.tensors["conv1_w"].shape[1])
    batch = _Batch(x, np.zeros(1, np.int64), np.float64)
    labels = np.array([label])
    weights = ClassWeights(1.0, 1.0)
    ws = _Workspace()

    def loss_at() -> float:
        probs, _ = _model_forward(batch, params, False, None, ws)
        loss, _ = _batch_loss_and_grad(probs, labels, weights)
        return loss

    probs, cache = _model_forward(batch, params, False, None, ws)
    _, dlogits = _batch_loss_and_grad(probs, labels, weights)
    analytic = _model_backward(dlogits, cache, params, ws)

    errors = {}
    for name, tensor in params.tensors.items():
        numeric = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + epsilon
            up = loss_at()
            tensor[idx] = orig - epsilon
            down = loss_at()
            tensor[idx] = orig
            numeric[idx] = (up - down) / (2.0 * epsilon)
        ga, gn = analytic[name], numeric
        denom = max(float(np.linalg.norm(ga)), float(np.linalg.norm(gn)), 1e-12)
        errors[name] = float(np.linalg.norm(ga - gn)) / denom
    return errors

