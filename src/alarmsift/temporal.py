"""Temporal chunking: split a record into consecutive equal chunks and build
the per-chunk multi-channel scalogram tensor sequence consumed by the
sequence classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import Channel, Record
from .scalogram import MorletParams, ScaleGrid, cwt, log_scales, to_scalogram


@dataclass(frozen=True)
class ChunkSequence:
    """Ordered chunk tensors of shape (n_chunks, C, n_scales, n_cols).

    Values lie in [0, 1]; ``channels`` records the channel subset and its
    order along the tensor's channel axis.
    """

    tensors: np.ndarray
    channels: tuple[Channel, ...]
    record_id: str

    def __post_init__(self):
        tensors = np.ascontiguousarray(self.tensors, dtype=np.float64)
        if tensors.ndim != 4:
            raise ValueError(f"expected (n_chunks, C, S, T) tensors, got {tensors.shape}")
        if tensors.shape[1] != len(self.channels):
            raise ValueError("channel axis does not match channel subset")
        tensors.setflags(write=False)
        object.__setattr__(self, "tensors", tensors)
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def n_chunks(self) -> int:
        return self.tensors.shape[0]


def split_chunks(record: Record, n_chunks: int) -> list[Record]:
    """Cut the record into ``n_chunks`` consecutive non-overlapping fragments.

    Fragment lengths are exactly N / n_chunks; concatenating the fragments
    reconstructs the record.  N must be divisible by ``n_chunks``.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n = record.n_samples
    if n % n_chunks != 0:
        raise ValueError(f"{n} not divisible by {n_chunks}")
    step = n // n_chunks
    return [
        Record(
            record_id=f"{record.record_id}#chunk{k}",
            alarm_type=record.alarm_type,
            label=record.label,
            fs=record.fs,
            channels=record.channels,
            samples=record.samples[:, k * step:(k + 1) * step],
        )
        for k in range(n_chunks)
    ]


def build_sequence(record: Record, n_chunks: int,
                   channel_subset: tuple[Channel, ...] | list[Channel] | None = None,
                   grid: ScaleGrid | None = None,
                   params: MorletParams = MorletParams()) -> ChunkSequence:
    """Per-chunk, per-channel scalograms stacked into the sequence tensor.

    tensor[i][c] is the normalized scalogram of chunk i on the c-th channel
    of ``channel_subset`` (default: the record's own channel order).
    Deterministic; chunks and channels are processed independently.
    """
    if grid is None:
        grid = log_scales()
    subset = record.channels if channel_subset is None else tuple(channel_subset)
    if not subset:
        raise ValueError("channel subset must be non-empty")
    for chan in subset:
        record.channel(chan)  # raises if a channel is absent
    chunks = split_chunks(record, n_chunks)
    tensors = np.empty((n_chunks, len(subset), grid.n_scales, 64))
    for k, chunk in enumerate(chunks):
        for ci, chan in enumerate(subset):
            coeffs = cwt(chunk.channel(chan), grid, params, record.fs)
            tensors[k, ci] = to_scalogram(coeffs, 64).values
    return ChunkSequence(tensors=tensors, channels=subset, record_id=record.record_id)
