"""Temporal chunking: cut a record into consecutive equal chunks and build
the per-chunk multi-channel scalogram tensor consumed by the sequence
classifier.

A record's samples are float32, so each chunk is transformed in complex64
(see ``scalogram``) and the tensor is float32, the dtype the encoder
computes in."""

from __future__ import annotations

import numpy as np

from .records import Channel, Record
from .scalogram import (SCALOGRAM_COLS, MorletParams, cwt, fft_length, log_scales,
                        to_scalogram)

SCALES = log_scales()
MORLET = MorletParams()


def check_chunk_count(record: Record, n_chunks: int) -> None:
    """Refuse a chunk count below 1 or one that does not divide ``record``."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if record.n_samples % n_chunks:
        raise ValueError(f"record {record.record_id}: {record.n_samples} samples "
                         f"not divisible by chunk count {n_chunks}")


def build_sequence(record: Record, n_chunks: int,
                   channel_subset: tuple[Channel, ...] | list[Channel] | None = None
                   ) -> np.ndarray:
    """Per-chunk, per-channel scalograms as a float32 (n_chunks, C, 64, 64) array.

    Chunk k of a channel is samples [k*N/n_chunks, (k+1)*N/n_chunks) of its
    row, and tensor[k][c] is the normalized scalogram of chunk k on the c-th
    channel of ``channel_subset`` (default: the record's own channel order),
    transformed from the float32 samples in complex64 and rounded to float32
    once it is normalized.  N must be divisible by ``n_chunks``.
    Deterministic; chunks and channels are processed independently.  The
    array is fresh and owned by the caller.
    """
    subset = record.channels if channel_subset is None else tuple(channel_subset)
    if not subset:
        raise ValueError("channel subset must be non-empty")
    check_chunk_count(record, n_chunks)
    # (n_chunks, N / n_chunks) views; Record.channel raises if a channel is absent
    chunks = [record.channel(chan).reshape(n_chunks, -1) for chan in subset]
    tensors = np.empty((n_chunks, len(subset), SCALES.size, SCALOGRAM_COLS),
                       dtype=np.float32)
    buf = np.empty((SCALES.size, fft_length(chunks[0].shape[1], SCALES[-1])),
                   dtype=np.complex64)
    for k in range(n_chunks):
        for ci, rows in enumerate(chunks):
            # MORLET goes by position: the benchmark's tracer keys cwt on it
            tensors[k, ci] = to_scalogram(cwt(rows[k], SCALES, MORLET, out=buf))
    return tensors
