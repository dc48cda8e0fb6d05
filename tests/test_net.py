import math
import re
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alarmsift.net import (ModelConfig, finite_diff_check, init_params,
                           predict, stack_sequences, train)
from alarmsift.records import ClassWeights

REDUCED = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6, n_chunks=3,
                      dropout=0.0, max_epochs=5, batch_size=4)


def reduced_params(seed=3):
    return init_params(REDUCED, 4, np.random.default_rng(seed))


def predict_one(seq, params):
    return predict(seq[None], params)


# The public entry points that take one chunk sequence, as (seq, params) calls.
SINGLE_SEQUENCE_CALLS = (
    predict_one,
    lambda seq, params: max(finite_diff_check(params, seq, True).values()),
)


def _kink_free_fixture(epsilon=1e-5, margin=10.0):
    """Deterministically pick (params, sample) whose ReLU pre-activations all
    sit further than ``margin * epsilon`` from zero; central differences are
    only valid away from the kink."""
    for seed in range(100):
        params = reduced_params(seed)
        sample = np.random.default_rng(seed + 500).random(
            (REDUCED.n_chunks, 4, 8, 8))
        if _min_preactivation(sample, params) > margin * epsilon:
            return params, sample
    raise AssertionError("no kink-free fixture found")


def _top_lstm_states(emb, params):
    """Top-layer LSTM hidden states (T, hidden) of one (T, D) embedding
    sequence, through the layer loop that ``_model_forward`` runs."""
    from alarmsift.net import _lstm_layer_forward

    seq = emb[None]
    for layer in range(params.config.lstm_layers):
        seq, _ = _lstm_layer_forward(seq, params.tensors[f"lstm{layer}_wx"],
                                     params.tensors[f"lstm{layer}_wh"],
                                     params.tensors[f"lstm{layer}_b"])
    return seq[0]


def _eval_probs(seq, params):
    """Eval-mode softmax rows (1, 2) of one sequence from ``_model_forward``."""
    from alarmsift.net import _Workspace, _model_forward

    probs, _ = _model_forward(seq[None], params, False, None, _Workspace())
    return probs


def _min_preactivation(sample, params):
    from alarmsift.net import _Workspace, _avgpool_forward, _conv_forward

    x = np.ascontiguousarray(np.transpose(sample, (0, 2, 3, 1)))
    ws = _Workspace()
    mins = []
    out = x
    for i in (1, 2, 3):
        z, _ = _conv_forward(out, params.tensors[f"conv{i}_w"],
                             params.tensors[f"conv{i}_b"], ws)
        mins.append(np.abs(z).min())
        out = _avgpool_forward(z * (z > 0), ws)
    h = out.mean(axis=(1, 2))
    hs = _top_lstm_states(h, params)
    u = hs[-1] @ params.tensors["head_w1"].T + params.tensors["head_b1"]
    mins.append(np.abs(u).min())
    return min(mins)


# The seed's formulations of the encoder primitives, kept as references: the
# rewritten primitives must reproduce them bit for bit.

def _ref_im2col(x):
    b, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    views = [xp[:, di:di + h, dj:dj + w, :] for di in range(3) for dj in range(3)]
    return np.concatenate(views, axis=3).reshape(b * h * w, 9 * c)


def _ref_avgpool_forward(x):
    b, h, w, f = x.shape
    return x.reshape(b, h // 2, 2, w // 2, 2, f).mean(axis=(2, 4))


def _ref_avgpool_backward(dy, mask):
    return np.repeat(np.repeat(dy, 2, axis=1), 2, axis=2) / 4.0 * mask


def _ref_conv_backward(dout, cols, w):
    """Padded col2im: accumulate into a zero-bordered dx, then cut the border."""
    from alarmsift.net import _flat_weight

    bb, h, ww, f = dout.shape
    c = w.shape[1]
    dflat = dout.reshape(-1, f)
    dw = (cols.T @ dflat).reshape(3, 3, c, f).transpose(3, 2, 0, 1)
    db = dflat.sum(axis=0)
    dcols = (dflat @ _flat_weight(w).T).reshape(bb, h, ww, 3, 3, c)
    dxp = np.zeros((bb, h + 2, ww + 2, c))
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h, dj:dj + ww, :] += dcols[:, :, :, di, dj, :]
    return dxp[:, 1:h + 1, 1:ww + 1, :], dw, db


def _direct_conv(x, w, b):
    """3x3 same-padding NHWC convolution as a sum of nine shifted products."""
    bb, h, ww, _ = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.broadcast_to(b, (bb, h, ww, w.shape[0])).copy()
    for di in range(3):
        for dj in range(3):
            out += xp[:, di:di + h, dj:dj + ww, :] @ w[:, :, di, dj].T
    return out


def _wide_range(rng, shape):
    """Normal draws spread over six decades, so rounding differences show."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape)


def _check_primitives(ws, b, h, w, c, f, rng):
    """Every encoder primitive, run through ``ws``, equals its reference bit
    for bit on one random (b, h, w, c) input and f output maps.  A
    one-channel input is layer 1's, which never asks for ``dx``."""
    from alarmsift.net import (_avgpool_backward, _avgpool_forward,
                               _conv_backward, _conv_forward, _im2col)

    x = _wide_range(rng, (b, h, w, c))
    cols = _im2col(x, ws, "cols1")
    assert np.array_equal(cols, _ref_im2col(x))

    wt = rng.standard_normal((f, c, 3, 3))
    z, cols = _conv_forward(x, wt, rng.standard_normal(f), ws)
    mask = z > 0
    relu = z * mask
    assert np.array_equal(_avgpool_forward(relu, ws), _ref_avgpool_forward(relu))

    dy = _wide_range(rng, (b, h // 2, w // 2, f))
    dz = _avgpool_backward(dy, mask, ws)
    assert np.array_equal(dz, _ref_avgpool_backward(dy, mask))
    dx, *grads = _conv_backward(dz, cols, wt, c > 1, ws)
    ref_dx, *ref_grads = _ref_conv_backward(dz, cols, wt)
    if c == 1:
        assert dx is None
    else:
        assert np.array_equal(dx, ref_dx)
    for got, want in zip(grads, ref_grads):
        assert np.array_equal(got, want)


class TestPrimitivesMatchReference:
    @given(b=st.integers(1, 3), h=st.integers(1, 6), w=st.integers(1, 6),
           c=st.integers(1, 5), f=st.integers(2, 4), seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal(self, b, h, w, c, f, seed):
        from alarmsift.net import _Workspace

        _check_primitives(_Workspace(), b, 2 * h, 2 * w, c, f,
                          np.random.default_rng(seed))

    @given(small=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6),
                           st.integers(1, 5), st.integers(2, 4)),
           grow=st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 3), st.integers(0, 3)),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reused_workspace_larger_then_smaller(self, small, grow, seed):
        """One workspace through a larger then a smaller shape: the second
        call must not see the first call's pad border, columns or dx."""
        from alarmsift.net import _Workspace

        rng = np.random.default_rng(seed)
        ws = _Workspace()
        b, h, w, c, f = (s + g for s, g in zip(small, grow))
        _check_primitives(ws, b, 2 * h, 2 * w, c, f, rng)
        b, h, w, c, f = small
        _check_primitives(ws, b, 2 * h, 2 * w, c, f, rng)

    @given(b=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
           c=st.integers(1, 5), f=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conv_forward_matches_direct_loop(self, b, h, w, c, f, seed):
        from alarmsift.net import _Workspace, _conv_forward

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, h, w, c))
        wt = rng.standard_normal((f, c, 3, 3))
        bias = rng.standard_normal(f)
        out, _ = _conv_forward(x, wt, bias, _Workspace())
        np.testing.assert_allclose(out, _direct_conv(x, wt, bias),
                                   rtol=1e-12, atol=1e-12)

    @given(b=st.integers(1, 3), h=st.integers(1, 6), w=st.integers(1, 6),
           c=st.integers(1, 5), f=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_float32_input_stays_float32(self, b, h, w, c, f, seed):
        """Fed float32 input and float64 weights, every primitive returns
        float32: no buffer promotes the pass back to float64."""
        from alarmsift.net import (_Workspace, _avgpool_backward, _avgpool_forward,
                                   _conv_backward, _conv_forward, _im2col)

        rng = np.random.default_rng(seed)
        ws = _Workspace()
        x = _wide_range(rng, (b, 2 * h, 2 * w, c)).astype(np.float32)
        assert _im2col(x, ws, "cols1").dtype == np.float32
        wt = rng.standard_normal((f, c, 3, 3))
        z, cols = _conv_forward(x, wt, rng.standard_normal(f), ws)
        assert z.dtype == cols.dtype == np.float32
        mask = z > 0
        assert _avgpool_forward(z * mask, ws).dtype == np.float32
        dy = _wide_range(rng, (b, h, w, f)).astype(np.float32)
        dz = _avgpool_backward(dy, mask, ws)
        assert dz.dtype == np.float32
        dx, _, _ = _conv_backward(dz, cols, wt, True, ws)
        assert dx.dtype == np.float32


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.embed_dim == 128 and cfg.lstm_hidden == 64
        assert cfg.lstm_layers == 2 and cfg.dropout == 0.3
        assert cfg.learning_rate == 1e-3 and cfg.clip_norm == 1.0
        assert cfg.patience == 8 and cfg.seed == 42

    @pytest.mark.parametrize("field, value", [
        ("lstm_hidden", 4.5), ("embed_dim", 64.0), ("batch_size", True),
        ("lstm_layers", False), ("seed", "1"), ("max_epochs", None),
        ("n_chunks", np.float64(6.0)),
    ])
    def test_integer_fields_refuse_other_types(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, "
                                             rf"got {re.escape(repr(value))}$"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "0.1"],
                             ids=["nan", "inf", "-inf", "True", "str"])
    @pytest.mark.parametrize("field", ["dropout", "learning_rate", "clip_norm"])
    def test_float_fields_refuse_other_values(self, field, value):
        """A NaN or inf ``clip_norm`` would disable clipping without a word,
        and a NaN ``learning_rate`` would fail only as a diverged batch."""
        with pytest.raises(ValueError, match=rf"^{field} must be a finite real "
                                             rf"number, got {re.escape(repr(value))}$"):
            ModelConfig(**{field: value})

    def test_float_fields_take_integers(self):
        """A JSON config may write ``"learning_rate": 1``; it is stored as
        ``1.0``, so it serializes as the float spelling does."""
        cfg = ModelConfig(dropout=0, learning_rate=1, clip_norm=np.int64(2))
        assert (cfg.dropout, cfg.learning_rate, cfg.clip_norm) == (0, 1, 2)
        assert all(type(v) is float for v in (cfg.dropout, cfg.learning_rate,
                                                cfg.clip_norm))
        assert asdict(cfg) == asdict(ModelConfig(dropout=0.0, learning_rate=1.0,
                                                 clip_norm=2.0))

    def test_numpy_integers_are_plain_ints(self):
        cfg = ModelConfig(embed_dim=np.int64(16), seed=np.uint8(3))
        assert cfg == ModelConfig(embed_dim=16, seed=3)
        assert type(cfg.embed_dim) is int and type(cfg.seed) is int

    @given(embed_dim=st.integers(-4, 2048))
    def test_embed_dim_gives_every_conv_layer_two_maps(self, embed_dim):
        """``embed_dim`` < 8 would leave a conv layer one feature map; it is
        refused by name, and every admitted width gives each layer two."""
        from alarmsift.net import _encoder_widths

        if embed_dim < 8:
            with pytest.raises(ValueError, match=rf"^embed_dim must be >= 8, "
                                                 rf"got {embed_dim}$"):
                ModelConfig(embed_dim=embed_dim)
        else:
            assert min(_encoder_widths(ModelConfig(embed_dim=embed_dim).embed_dim)) >= 2

    @pytest.mark.parametrize("seed", [-1, -2 ** 63])
    def test_negative_seed_refused_by_name(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be >= 0, got {seed}$"):
            ModelConfig(seed=seed)

    @pytest.mark.parametrize("field, value, bound", [
        *[(f, v, f">= 1, got {v}") for f in ("lstm_hidden", "head_hidden", "patience",
                                              "max_epochs", "batch_size", "n_chunks")
          for v in (0, -1)],
        *[(f, v, f"> 0, got {float(v)}") for f in ("learning_rate", "clip_norm")
          for v in (0, -1)],
        ("lstm_layers", -1, ">= 0, got -1"),
    ])
    def test_each_bound_refused_by_field_name(self, field, value, bound):
        with pytest.raises(ValueError, match=rf"^{field} must be {re.escape(bound)}$"):
            ModelConfig(**{field: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(dropout=1.0)
        with pytest.raises(ValueError, match=r"^lstm_layers must be >= 0, got -1$"):
            ModelConfig(lstm_layers=-1)
        with pytest.raises(ValueError, match=r"lstm_layers == 0 .* requires "
                                             r"n_chunks == 1, got n_chunks=6"):
            ModelConfig(lstm_layers=0, n_chunks=6)


class TestForward:
    def test_softmax_normalization(self):
        params = reduced_params()
        rng = np.random.default_rng(1)
        for _ in range(5):
            probs = _eval_probs(rng.random((3, 4, 8, 8)), params)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert 0.0 <= probs[0, 1] <= 1.0

    def test_internal_shape_contract(self):
        from alarmsift.net import _Workspace, _encoder_forward

        cfg = ModelConfig(embed_dim=128, lstm_hidden=64, n_chunks=6)
        params = init_params(cfg, 4, np.random.default_rng(0))
        seq = np.random.default_rng(2).random((6, 4, 64, 64))
        emb, _ = _encoder_forward(seq, params.tensors, _Workspace())
        assert emb.shape == (6, 128)
        hidden = _top_lstm_states(emb, params)
        assert hidden.shape == (6, 64)
        assert predict(seq[None], params).shape == (1,)

    def test_order_sensitivity_exists(self):
        params = reduced_params(11)
        rng = np.random.default_rng(12)
        found = False
        for _ in range(100):
            seq = rng.random((3, 4, 8, 8))
            pt_fwd = predict(seq[None], params)[0]
            pt_rev = predict(seq[::-1][None], params)[0]
            if abs(pt_fwd - pt_rev) > 1e-6:
                found = True
                break
        assert found, "chunk order never affected the prediction"

    def test_shape_mismatch_errors(self):
        params = reduced_params()
        for call in SINGLE_SEQUENCE_CALLS:
            with pytest.raises(ValueError, match="chunks"):
                call(np.zeros((5, 4, 8, 8)), params)
            with pytest.raises(ValueError, match=r"input shape \(3, 2, 8, 8\)"):
                call(np.zeros((3, 2, 8, 8)), params)

    def test_weight_sharing_across_chunks(self):
        """Permuting chunk tensors permutes the embeddings identically."""
        from alarmsift.net import _Workspace, _encoder_forward

        params = reduced_params(7)
        seq = np.random.default_rng(8).random((3, 4, 8, 8))
        perm = np.array([2, 0, 1])
        emb, _ = _encoder_forward(seq, params.tensors, _Workspace())
        emb_perm, _ = _encoder_forward(seq[perm], params.tensors, _Workspace())
        np.testing.assert_array_equal(emb_perm, emb[perm])

    def test_symmetric_head_gives_half(self):
        params = reduced_params()
        params.tensors["head_w2"][:] = 0.0
        params.tensors["head_b2"][:] = 0.0
        probs = _eval_probs(np.random.default_rng(0).random((3, 4, 8, 8)), params)
        assert probs.tolist() == [[0.5, 0.5]]


def _encoder_pass(x, params, tile):
    """Embeddings, conv gradients of a fixed ``dh`` and the workspace of one
    ``_encoder_forward`` + ``_encoder_backward`` pass at ``_ENCODER_TILE``
    = ``tile``."""
    from alarmsift import net

    ws = net._Workspace()
    with mock.patch.object(net, "_ENCODER_TILE", tile):
        emb, cache = net._encoder_forward(x, params.tensors, ws)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()
                 if k.startswith("conv")}
        dh = np.random.default_rng(x.shape[0]).standard_normal(emb.shape)
        net._encoder_backward(dh, cache, params.tensors, grads, ws)
    return emb, grads, ws


class TestEncoderTiles:
    """The encoder runs ``_ENCODER_TILE`` images at a time; a whole-batch
    run is the same code with the tile patched to the batch size."""

    # (C, H, W, embed_dim).  OpenBLAS runs a GEMM of at most 1e6
    # multiply-adds through another kernel, whose sums can round otherwise.
    # Each shape keeps every layer's GEMM, for 1 image and for 17, on one
    # side of that line: the small ones below it, and the bench's 64x64
    # shape at embed_dim 32 above it.
    SHAPES = ((1, 8, 8, 8), (4, 8, 16, 16), (3, 16, 16, 8), (4, 64, 64, 32))

    @given(n=st.sampled_from((1, 7, 9, 17)), shape=st.sampled_from(SHAPES),
           dtype=st.sampled_from((np.float32, np.float64)),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_embeddings_do_not_depend_on_the_tile(self, n, shape, dtype, seed):
        from alarmsift.net import _ENCODER_TILE

        c, h, w, embed_dim = shape
        rng = np.random.default_rng(seed)
        params = init_params(ModelConfig(embed_dim=embed_dim, n_chunks=1,
                                         lstm_layers=0), c, rng)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        tiled, *_ = _encoder_pass(x, params, _ENCODER_TILE)
        whole, *_ = _encoder_pass(x, params, n)
        assert tiled.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_gradients_match_a_whole_batch_run(self, dtype, tol):
        """The tiled run sums per-tile ``dw``/``db`` partials, so it rounds
        otherwise; each tensor's error is relative to its norm."""
        from alarmsift.net import _ENCODER_TILE

        params = reduced_params(5)
        x = np.random.default_rng(6).random((17, 4, 16, 16)).astype(dtype)
        _, tiled, _ = _encoder_pass(x, params, _ENCODER_TILE)
        _, whole, _ = _encoder_pass(x, params, 17)
        for name, g in whole.items():
            err = np.linalg.norm(tiled[name] - g) / np.linalg.norm(g)
            assert err <= tol, name

    def test_only_activations_and_masks_grow_with_the_batch(self):
        """After 96 images, the one column buffer holds one tile's layer-1
        columns, and every other buffer is as large as after one tile."""
        from alarmsift.net import _ENCODER_TILE

        params = init_params(ModelConfig(embed_dim=32, n_chunks=1, lstm_layers=0),
                             4, np.random.default_rng(0))
        x = np.random.default_rng(1).random((96, 4, 64, 64)).astype(np.float32)
        *_, ws = _encoder_pass(x, params, _ENCODER_TILE)
        *_, one_tile = _encoder_pass(x[:_ENCODER_TILE], params, _ENCODER_TILE)
        assert ws._flat["cols"].size == _ENCODER_TILE * 64 * 64 * 36
        for name, flat in ws._flat.items():
            if not name.startswith(("act", "mask")):
                assert flat.size == one_tile._flat[name].size, name


class TestWeightedLoss:
    """The loss ``train`` runs, on the softmax of the given logit rows."""

    W = ClassWeights(w_true=1.576, w_false=0.732)

    def loss(self, logits, labels):
        from alarmsift.net import _batch_loss_and_grad

        logits = np.array(logits, dtype=np.float64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        loss, _ = _batch_loss_and_grad(probs, np.array(labels), self.W)
        return loss

    def test_confident_correct_is_small(self):
        assert self.loss([[-20.0, 20.0]], [True]) < 1e-6

    def test_even_split_true_label(self):
        loss = self.loss([[0.0, 0.0]], [True])
        np.testing.assert_allclose(loss, 1.576 * math.log(2), rtol=1e-12)
        assert round(loss, 4) == 1.0924

    def test_batch_mean_mixed_labels(self):
        mean = self.loss([[0.0, 0.0], [0.0, 0.0]], [True, False])
        assert round(mean, 4) == 0.7999

    def test_nonnegative_and_clamped(self):
        loss = self.loss([[500.0, -500.0]], [True])
        assert loss > 0 and math.isfinite(loss)


class TestClip:
    """The global-norm clip ``train`` runs on every batch."""

    @staticmethod
    def clip(grads, clip_norm):
        from alarmsift.net import _clip_to, _global_norm

        _clip_to(grads, _global_norm(grads), clip_norm)
        return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))

    def test_spike_gradient_clipped_to_bound(self):
        grads = {"a": np.full((10, 10), 1e6), "b": np.full(5, -1e7)}
        assert self.clip(grads, 1.0) <= 1.0 + 1e-9

    def test_small_gradient_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        assert self.clip(grads, 1.0) == 0.5
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])


def _toy_dataset(n=24, seed=0):
    """Linearly separable ring vs corner blobs at reduced scale."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2 == 0
    x = rng.random((n, REDUCED.n_chunks, 4, 8, 8)) * 0.2
    x[labels, :, 0, :4, :4] += 0.7  # bright patch on channel 0 for positives
    return x, labels


class TestTrain:
    def test_learns_separable_set(self):
        x, labels = _toy_dataset(32, seed=5)
        cfg = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                          n_chunks=3, dropout=0.0, max_epochs=30,
                          batch_size=8, learning_rate=5e-3, seed=1)
        idx = np.arange(32)
        params, hist = train(x, labels, idx[:24], idx[24:], cfg)
        assert max(hist.val_auc) >= 0.9

    def test_bitwise_determinism(self):
        x, labels = _toy_dataset(16, seed=2)
        cfg = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                          n_chunks=3, dropout=0.3, max_epochs=4,
                          batch_size=4, seed=9)
        idx = np.arange(16)
        p1, h1 = train(x, labels, idx[:12], idx[12:], cfg)
        p2, h2 = train(x, labels, idx[:12], idx[12:], cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_auc == h2.val_auc
        assert h1.best_epoch == h2.best_epoch
        for k in p1.tensors:
            np.testing.assert_array_equal(p1.tensors[k], p2.tensors[k])

    def test_patience_stop_on_flat_validation(self):
        # constant-input dataset: the model cannot rank validation records,
        # so val AUC stays at 0.5 and patience must fire at best_epoch + 8
        x = np.full((12, 3, 4, 8, 8), 0.5)
        labels = np.arange(12) % 2 == 0
        cfg = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                          n_chunks=3, dropout=0.0, max_epochs=40,
                          batch_size=4, seed=3)
        idx = np.arange(12)
        params, hist = train(x, labels, idx[:8], idx[8:], cfg)
        assert hist.stop_reason == "patience"
        assert hist.epochs_run == hist.best_epoch + 8
        assert len(set(hist.val_auc)) == 1  # flat by construction

    def test_max_epochs_stop(self):
        x, labels = _toy_dataset(16, seed=4)
        cfg = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                          n_chunks=3, dropout=0.0, max_epochs=3,
                          batch_size=4, seed=3)
        idx = np.arange(16)
        _, hist = train(x, labels, idx[:12], idx[12:], cfg)
        assert hist.stop_reason == "max_epochs" and hist.epochs_run == 3

    def test_max_grad_norm_is_the_pre_clip_norm(self):
        """Each epoch records its largest gradient norm before clipping, so
        under a tiny bound the recorded norms exceed it."""
        x, labels = _toy_dataset(16, seed=6)
        cfg = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                          n_chunks=3, dropout=0.0, max_epochs=5,
                          batch_size=4, seed=2, clip_norm=1e-6)
        idx = np.arange(16)
        _, hist = train(x, labels, idx[:12], idx[12:], cfg)
        assert len(hist.max_grad_norm) == hist.epochs_run
        assert all(n > 1e-6 for n in hist.max_grad_norm)

    def test_degenerate_split_errors(self):
        x, labels = _toy_dataset(8, seed=7)
        cfg = REDUCED
        with pytest.raises(ValueError, match="both classes"):
            train(x, labels, np.array([0, 2, 4]), np.array([1, 3]), cfg)

    def test_shape_mismatch_errors(self):
        """``train`` takes the channel count of its data, but refuses another
        chunk count, no channels, and an H or W the pools cannot halve."""
        x, labels = _toy_dataset(8, seed=7)
        idx = np.arange(8)
        with pytest.raises(ValueError, match=r"^sequence has 2 chunks, config "
                                             r"expects 3$"):
            train(x[:, :2], labels, idx[:6], idx[6:], REDUCED)
        with pytest.raises(ValueError, match=r"got C=0, H=8, W=8$"):
            train(x[:, :, :0], labels, idx[:6], idx[6:], REDUCED)
        with pytest.raises(ValueError, match=r"got C=4, H=8, W=6$"):
            train(x[..., :6], labels, idx[:6], idx[6:], REDUCED)

    @pytest.mark.parametrize("n_labels", [10, 14])
    def test_labels_of_another_length_refused(self, n_labels):
        """Labels that do not pair one to one with the sequences are refused,
        even when every index of both splits lies within both."""
        x, labels = _toy_dataset(14, seed=7)
        idx = np.arange(10)
        with pytest.raises(ValueError, match=rf"^train requires one label per "
                                             rf"sequence; got {n_labels} labels "
                                             rf"for 12 sequences$"):
            train(x[:12], labels[:n_labels], idx[:6], idx[6:], REDUCED)

    def test_non_finite_loss_names_epoch_and_batch(self):
        """An input at the float32 limit is finite, so it is admitted, but it
        overflows to a NaN loss in the first batch that holds it."""
        x, labels = _toy_dataset(16, seed=8)
        x[:12] = np.finfo(np.float32).max
        idx = np.arange(16)
        with pytest.raises(ValueError, match=r"diverged at epoch 1, batch 1: "
                                             r"loss nan"), \
                np.errstate(over="ignore", invalid="ignore"):
            train(x, labels, idx[:12], idx[12:], REDUCED)

    def test_non_finite_gradient_norm_names_epoch_and_batch(self, monkeypatch):
        """A finite loss with an infinite gradient is refused before the clip
        would silently zero the gradient."""
        import alarmsift.net as net

        real, calls = net._model_backward, []

        def backward(*args):
            grads = real(*args)
            calls.append(1)
            if len(calls) == 5:  # epoch 2, batch 2 with 3 batches per epoch
                grads["head_b2"][0] = np.inf
            return grads
        monkeypatch.setattr(net, "_model_backward", backward)
        x, labels = _toy_dataset(16, seed=9)
        idx = np.arange(16)
        with pytest.raises(ValueError, match=r"diverged at epoch 2, batch 2: "
                                             r"loss \d\S*, gradient norm inf"):
            train(x, labels, idx[:12], idx[12:], REDUCED)


@st.composite
def _batch_with_non_finite(draw):
    """A toy batch with NaN or inf planted in one or more sequences; returns
    (x, labels, index of the first sequence that holds one)."""
    x, labels = _toy_dataset(16, seed=draw(st.integers(0, 20)))
    bad = draw(st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True))
    for i in bad:
        where = tuple(draw(st.integers(0, d - 1)) for d in x.shape[1:])
        x[(i, *where)] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    return x, labels, min(bad)


class TestNonFiniteInput:
    """Model input holding NaN or inf is refused up front, naming the first
    sequence that holds it, not as a diverged batch or a NaN score."""

    @given(case=_batch_with_non_finite())
    @settings(max_examples=40, deadline=None)
    def test_train_names_the_sequence(self, case):
        x, labels, first = case
        idx = np.arange(16)
        with pytest.raises(ValueError, match=rf"^sequence {first} holds NaN or inf$"):
            train(x, labels, idx[:12], idx[12:], REDUCED)

    @given(case=_batch_with_non_finite())
    @settings(max_examples=40, deadline=None)
    def test_predict_names_the_sequence(self, case):
        x, _, first = case
        with pytest.raises(ValueError, match=rf"^sequence {first} holds NaN or inf$"):
            predict(x, reduced_params())
        with pytest.raises(ValueError, match=rf"^sequence {first} holds NaN or inf$"):
            predict(list(x), reduced_params())

    @pytest.mark.parametrize("call", SINGLE_SEQUENCE_CALLS)
    @given(case=_batch_with_non_finite())
    @settings(max_examples=20, deadline=None)
    def test_single_sequence_entry_points_refuse(self, call, case):
        """One sequence goes in as a batch of one, so it is sequence 0."""
        x, _, first = case
        with pytest.raises(ValueError, match=r"^sequence 0 holds NaN or inf$"):
            call(x[first], reduced_params())


@st.composite
def _batch_outside_float32(draw):
    """A toy batch with finite values beyond float32's range planted in one
    or more sequences; returns (x, labels, index of the first)."""
    x, labels = _toy_dataset(16, seed=draw(st.integers(0, 20)))
    top = float(np.finfo(np.float32).max)
    bad = draw(st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True))
    for i in bad:
        where = tuple(draw(st.integers(0, d - 1)) for d in x.shape[1:])
        magnitude = draw(st.floats(np.nextafter(top, np.inf), np.finfo(np.float64).max))
        x[(i, *where)] = draw(st.sampled_from((1.0, -1.0))) * magnitude
    return x, labels, min(bad)


class TestOutsideFloat32Input:
    """The encoder computes in float32, so a finite value that float32 cannot
    hold is refused by its sequence, not cast to inf."""

    MESSAGE = r"^sequence {} holds a value outside float32 range$"

    @given(case=_batch_outside_float32())
    @settings(max_examples=30, deadline=None)
    def test_train_names_the_sequence(self, case):
        x, labels, first = case
        idx = np.arange(16)
        with pytest.raises(ValueError, match=self.MESSAGE.format(first)):
            train(x, labels, idx[:12], idx[12:], REDUCED)

    @given(case=_batch_outside_float32())
    @settings(max_examples=30, deadline=None)
    def test_predict_names_the_sequence(self, case):
        x, _, first = case
        with pytest.raises(ValueError, match=self.MESSAGE.format(first)):
            predict(x, reduced_params())

    @given(case=_batch_outside_float32())
    @settings(max_examples=20, deadline=None)
    def test_finite_diff_check_refuses(self, case):
        x, _, first = case
        with pytest.raises(ValueError, match=self.MESSAGE.format(0)):
            finite_diff_check(reduced_params(), x[first], True)

    def test_non_finite_check_runs_first(self):
        x, _ = _toy_dataset(4)
        x[0, 0, 0, 0, 0] = np.finfo(np.float64).max
        x[2, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^sequence 2 holds NaN or inf$"):
            predict(x, reduced_params())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_named_after_an_earlier_out_of_range(self, bad):
        """The non-finite check reads each sequence's max and min; a NaN or
        inf in sequence 1 still outranks 1e39 in sequence 0."""
        x, _ = _toy_dataset(4)
        x[0, 1, 2, 3, 4] = 1e39
        x[1, 2, 3, 4, 5] = bad
        with pytest.raises(ValueError, match=r"^sequence 1 holds NaN or inf$"):
            predict(x, reduced_params())

    def test_float32_limit_admitted(self):
        x, _ = _toy_dataset(4)
        x[1, 0, 0, 0, 0] = -np.finfo(np.float32).max
        assert predict(x, reduced_params()).shape == (4,)


class TestStackSequences:
    """``stack_sequences`` fills one preallocated batch, and every entry
    point refuses input that is not real numbers by name."""

    DTYPES = (np.float32, np.float64, np.float16, np.int16, np.int64,
              np.uint8, np.bool_)

    @given(dtypes=st.lists(st.sampled_from(DTYPES), min_size=1, max_size=5),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_bits_of_np_stack(self, dtypes, seed):
        """float32 when every sequence is float32, else float64 with the
        bits of ``np.stack`` cast to float64, whatever the mix of dtypes."""
        rng = np.random.default_rng(seed)
        seqs = [(rng.standard_normal((2, 1, 3, 3)) * 500).astype(d) for d in dtypes]
        expected = np.stack(seqs)
        if expected.dtype != np.float32:
            expected = expected.astype(np.float64)
        for given_as in (seqs, iter(seqs)):
            got = stack_sequences(given_as)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_refuses_empty_input(self):
        with pytest.raises(ValueError, match="^no sequences to stack$"):
            stack_sequences([])
        with pytest.raises(ValueError, match="^no sequences to stack$"):
            train([], [], [], [], REDUCED)

    def test_refuses_a_shape_other_than_sequence_0s(self):
        seqs = [np.zeros((3, 4, 8, 8), np.float32)] * 2 + [np.zeros((3, 4, 8, 16))]
        message = (r"^sequence 2 has shape \(3, 4, 8, 16\), but sequence 0 has "
                   r"shape \(3, 4, 8, 8\)$")
        with pytest.raises(ValueError, match=message):
            stack_sequences(seqs)
        with pytest.raises(ValueError, match=message):
            predict(seqs, reduced_params())

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128, object])
    def test_train_and_predict_refuse_input_that_is_not_real(self, dtype):
        """A complex batch would lose its imaginary part, silently, in the
        float copy; it is refused by its dtype, as an array or as a list."""
        x, labels = _toy_dataset(8, seed=1)
        x = (x + 0.5j).astype(dtype)
        idx = np.arange(8)
        name = np.dtype(dtype)
        with pytest.raises(ValueError, match=rf"^input has dtype {name}; model input "
                                             rf"must be real"):
            train(x, labels, idx[:6], idx[6:], REDUCED)
        with pytest.raises(ValueError, match=rf"^sequence 0 has dtype {name}"):
            train(list(x), labels, idx[:6], idx[6:], REDUCED)
        with pytest.raises(ValueError, match=rf"^input has dtype {name}"):
            predict(x, reduced_params())
        for call in SINGLE_SEQUENCE_CALLS:
            with pytest.raises(ValueError, match=rf"has dtype {name}"):
                call(x[0], reduced_params())

    def test_names_the_first_complex_sequence(self):
        seqs = [np.zeros((3, 4, 8, 8))] * 3
        seqs[1] = seqs[1].astype(np.complex128)
        with pytest.raises(ValueError, match="^sequence 1 has dtype complex128"):
            stack_sequences(seqs)


class TestPrecision:
    """``train`` and ``predict`` run the encoder in float32; parameters,
    Adam state and the rest of the model stay float64."""

    def test_predict_matches_float64_forward(self):
        from alarmsift.net import _Workspace, _model_forward

        params = reduced_params(4)
        x = np.random.default_rng(9).random((20, 3, 4, 8, 8))
        probs, _ = _model_forward(x, params, False, None, _Workspace())
        np.testing.assert_allclose(predict(x, params), probs[:, 1], rtol=0, atol=1e-6)

    def test_parameters_and_adam_moments_stay_float64(self, monkeypatch):
        import alarmsift.net as net

        made = []

        class Recorded(net._Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)
        monkeypatch.setattr(net, "_Adam", Recorded)
        x, labels = _toy_dataset(16, seed=3)
        idx = np.arange(16)
        params, _ = train(x, labels, idx[:12], idx[12:], replace(REDUCED, max_epochs=2))
        (opt,) = made
        assert opt.t > 0
        assert set(opt.m) == set(opt.v) == set(params.tensors)
        for tensors in (params.tensors, opt.m, opt.v):
            for name, tensor in tensors.items():
                assert tensor.dtype == np.float64, name


class TestPredict:
    def test_deterministic(self):
        params = reduced_params()
        x = np.random.default_rng(5).random((4, 3, 4, 8, 8))
        np.testing.assert_array_equal(predict(x, params), predict(x, params))

    def test_batch_matches_single_sequence(self):
        params = reduced_params()
        x = np.random.default_rng(6).random((3, 3, 4, 8, 8))
        scores = predict(x, params)
        singles = [predict(x[i][None], params)[0] for i in range(3)]
        np.testing.assert_allclose(scores, singles, atol=1e-15)

    def test_unchanged_by_a_train_on_other_shapes(self):
        """No buffer outlives a call: scores are the same bytes before and
        after a train on larger input of another shape.  17 sequences end
        in a partial batch."""
        params = reduced_params()
        x = np.random.default_rng(7).random((17, 3, 4, 8, 8))
        before = predict(x, params)
        cfg = replace(REDUCED, n_chunks=2, max_epochs=2)
        big = np.random.default_rng(8).random((12, 2, 4, 16, 16))
        labels = np.arange(12) % 2 == 0
        train(big, labels, np.arange(8), np.arange(8, 12), cfg)
        assert predict(x, params).tobytes() == before.tobytes()

    @given(t=st.integers(1, 5), c=st.integers(1, 4), hw=st.sampled_from((8, 16)))
    @settings(max_examples=40, deadline=None)
    def test_checks_each_sequence_shape(self, t, c, hw):
        """A batch is scored only when its T matches the config and its C the
        model's ``conv1_w``; the encoder's global pooling takes any H = W
        divisible by 8."""
        params = reduced_params()
        x = np.zeros((2, t, c, hw, hw))
        if (t, c) == (REDUCED.n_chunks, params.tensors["conv1_w"].shape[1]):
            assert predict(x, params).shape == (2,)
            return
        with pytest.raises(ValueError, match="chunks|channels"):
            predict(x, params)

    def test_rejects_unbatched_input(self):
        with pytest.raises(ValueError, match=r"expected \(N, n_chunks"):
            predict(np.zeros((3, 4, 8, 8)), reduced_params())

    def test_train_mode_differs_with_dropout(self):
        from alarmsift.net import _Workspace, _model_forward

        cfg = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                          n_chunks=3, dropout=0.5)
        params = init_params(cfg, 4, np.random.default_rng(1))
        x = np.random.default_rng(2).random((3, 4, 8, 8))[None]
        eval_pt = predict(x, params)[0]
        diffs = [abs(_model_forward(x, params, True, np.random.default_rng(k),
                                    _Workspace())[0][0, 1] - eval_pt)
                 for k in range(10)]
        assert max(diffs) > 0


class TestInputShapeRule:
    """The input shape is the data's: ``train`` builds ``conv1_w`` for the C
    it is given, a trained model refuses any other C by both counts, and
    every entry point refuses an H or W its three 2x2 pools cannot halve."""

    @given(c=st.integers(1, 5), other=st.integers(1, 5),
           h=st.sampled_from((8, 16, 24)), w=st.sampled_from((8, 16, 24)),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_train_builds_conv1_w_for_the_data(self, c, other, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((8, REDUCED.n_chunks, c, h, w))
        labels = np.arange(8) % 2 == 0
        params, _ = train(x, labels, np.arange(6), np.arange(6, 8),
                          replace(REDUCED, max_epochs=1))
        assert params.tensors["conv1_w"].shape == (REDUCED.embed_dim // 4, c, 3, 3)
        assert predict(x, params).shape == (8,)
        if other == c:
            return
        y = rng.random((2, REDUCED.n_chunks, other, h, w))
        message = rf"^input shape .* has {other} channels, but the model reads {c}$"
        with pytest.raises(ValueError, match=message):
            predict(y, params)
        with pytest.raises(ValueError, match=message):
            finite_diff_check(params, y[0], True)

    @given(c=st.integers(1, 5), h=st.integers(1, 40), w=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_h_and_w_must_be_multiples_of_8(self, c, h, w):
        x = np.zeros((4, REDUCED.n_chunks, c, h, w))
        labels = np.arange(4) % 2 == 0
        params = init_params(REDUCED, c, np.random.default_rng(0))
        if h % 8 == 0 and w % 8 == 0:
            assert predict(x, params).shape == (4,)
            return
        message = rf"multiples of 8 \(three 2x2 pools\); got C={c}, H={h}, W={w}$"
        with pytest.raises(ValueError, match=message):
            train(x, labels, np.arange(2), np.arange(2, 4), REDUCED)
        with pytest.raises(ValueError, match=message):
            predict(x, params)
        with pytest.raises(ValueError, match=message):
            finite_diff_check(params, x[0], True)


class TestGradients:
    def test_finite_difference_all_groups(self):
        params, sample = _kink_free_fixture()
        errors = finite_diff_check(params, sample, True)
        assert set(errors) == set(params.tensors)
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_gradient_vanishes_at_saturated_minimum(self):
        from alarmsift.net import (_Workspace, _batch_loss_and_grad,
                                   _model_backward, _model_forward)

        params, sample = _kink_free_fixture()
        params.tensors["head_w2"][:] = 0.0
        params.tensors["head_b2"][:] = np.array([-20.0, 20.0])  # p_true ~ 1
        ws = _Workspace()
        probs, cache = _model_forward(sample[None], params, False, None, ws)
        loss, dlogits = _batch_loss_and_grad(
            probs, np.array([True]), ClassWeights(1.0, 1.0))
        grads = _model_backward(dlogits, cache, params, ws)
        gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert loss < 1e-8
        assert gnorm < 1e-6

    def test_epsilon_sweep_v_curve(self):
        params, sample = _kink_free_fixture()
        errs = [max(finite_diff_check(params, sample, True, epsilon=e).values())
                for e in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)]
        best = int(np.argmin(errs))
        assert 0 < best < len(errs) - 1, errs  # interior minimum: the V shape
        assert errs[0] > 10 * errs[best] and errs[-1] > 10 * errs[best]


class TestStaticVariant:
    def test_no_lstm_head_on_embedding(self):
        cfg = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                          n_chunks=1, lstm_layers=0, dropout=0.0)
        params = init_params(cfg, 4, np.random.default_rng(4))
        assert not any(k.startswith("lstm") for k in params.tensors)
        probs = _eval_probs(np.random.default_rng(5).random((1, 4, 8, 8)), params)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_static_gradients_check_out(self):
        cfg = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                          n_chunks=1, lstm_layers=0, dropout=0.0)
        params = init_params(cfg, 4, np.random.default_rng(6))
        params.tensors["head_b1"] += 0.05  # clear of the ReLU kink
        sample = np.random.default_rng(7).random((1, 4, 8, 8))
        assert max(finite_diff_check(params, sample, False).values()) < 1e-4

