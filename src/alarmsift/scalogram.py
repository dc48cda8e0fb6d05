"""Continuous wavelet transform and normalized 64x64 Morlet scalograms.

The transform correlates the signal against scaled copies of the analytic
Morlet wavelet

    psi(t) = pi**-0.25 * exp(1j*omega0*t) * exp(-t**2 / 2)

with the L2 normalization 1/sqrt(a) per scale, so

    W(a, b) = sum_n x[n] * (1/sqrt(a)) * conj(psi((n - b) / a)).

Scales are expressed in samples; scale ``a`` responds most strongly to the
pseudo-frequency f = fc * fs / a with fc = omega0 / (2*pi).  The kernel is
evaluated on a support of +/- 4a samples (the Gaussian envelope is below
3.4e-4 outside) and applied as a frequency-domain product.  The signal is
zero-padded to the shortest fast FFT length L >= max(N + M, 2M + 1), where
M = ceil(4 * max scale) is the widest kernel half-width.  Output sample b
reads x[b - u] for |u| <= M, so b - u lies in [-M, N + M); with L >= N + M
every index that wraps around lands in the zero padding, never back inside
the output window [0, N).  L >= 2M + 1 keeps the wrapped kernel from
overlapping itself.  The result therefore equals linear convolution with
the truncated kernels (Torrence & Compo 1998, on padding for the FFT
wavelet transform).

The transform computes in the precision of its input.  A float32 signal,
such as a record's samples, runs the FFTs and the spectral product in
complex64 against the float64 kernel spectra rounded once to complex64;
any other input is cast to float64 and runs in complex128, the path the
direct-convolution oracle checks.  ``to_scalogram`` pools and normalises
the magnitudes in float64 either way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

KERNEL_SUPPORT_SCALES = 4.0  # kernel truncated at +/- 4a samples
FLAT_EPS = 1e-12
SCALOGRAM_COLS = 64  # time bins of a scalogram image
POOL_BLOCK_ROWS = 8  # scale rows whose magnitudes ``to_scalogram`` holds at once

# The one scale grid: 64 log-spaced scales from 1 to 128 samples,
# SCALES[i] = 128 ** (i / 63), endpoints pinned exactly despite float
# exponentiation.  Read-only float64, the scale type ``cwt`` takes.
SCALES = 128.0 ** (np.arange(64) / 63)
SCALES[0], SCALES[-1] = 1.0, 128.0
SCALES.setflags(write=False)


@dataclass(frozen=True)
class MorletParams:
    """Morlet center frequency.  omega0 >= 5 keeps the analytic form admissible."""

    omega0: float = 6.0

    def __post_init__(self):
        if self.omega0 < 5.0:
            raise ValueError(f"omega0 must be >= 5, got {self.omega0}")

    @property
    def fc(self) -> float:
        """Center frequency in cycles per unit time, omega0 / (2*pi)."""
        return self.omega0 / (2.0 * math.pi)


MORLET = MorletParams()  # omega0 = 6, the wavelet of every scalogram


def morlet_wavelet(u: np.ndarray, scale: float, params: MorletParams) -> np.ndarray:
    """Sampled analytic Morlet at offsets ``u`` (samples), L2-normalized in scale."""
    v = np.asarray(u, dtype=np.float64) / scale
    return (np.pi ** -0.25 / math.sqrt(scale)) * np.exp(1j * params.omega0 * v - 0.5 * v * v)


def fft_length(n: int, max_scale: float) -> int:
    """FFT length of ``cwt`` for an ``n``-sample signal and largest scale
    ``max_scale``: the shortest fast length >= max(n + M, 2M + 1), with M
    the kernel half-width ceil(4 * max_scale)."""
    max_half = int(math.ceil(KERNEL_SUPPORT_SCALES * float(max_scale)))
    return _next_fast_len(max(n + max_half, 2 * max_half + 1))


def _next_fast_len(target: int) -> int:
    """The least 11-smooth integer >= ``target`` >= 1, as
    ``scipy.fft.next_fast_len(target)`` gives it: a length whose prime
    factors are all at most 11."""
    n = target
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=1)
def _kernel_spectra(scale_bytes: bytes, omega0: float, nfft: int,
                    dtype: np.dtype) -> np.ndarray:
    """FFTs of the truncated kernels at the float64 scales in ``scale_bytes``,
    computed in complex128 and rounded once to the complex ``dtype``.

    Each scale's kernel and its FFT are built as one complex128 row and
    written into the result, so no (n_scales, L) complex128 matrix exists
    beside it; numpy's FFT of a matrix transforms each row alone, so the
    rows have the bits a whole-matrix FFT gives.  The cache keeps one
    entry: a tensor's chunks all share one scale grid and one FFT length,
    and a run builds one chunk count's tensor at a time.  The entry lives
    for one tensor build: ``harness.build_sequences`` empties the cache
    once its tensor is filled, since the run's next tensor has another
    chunk length and so another FFT length.  The result is read-only:
    every caller shares it.
    """
    params = MorletParams(omega0)
    offsets = np.arange(nfft)
    offsets = np.where(offsets > nfft // 2, offsets - nfft, offsets).astype(np.float64)
    scales = np.frombuffer(scale_bytes)
    spectra = np.empty((scales.size, nfft), dtype=dtype)
    kernel = np.empty(nfft, dtype=np.complex128)
    for i, a in enumerate(scales):
        support = np.abs(offsets) <= KERNEL_SUPPORT_SCALES * a
        kernel[:] = 0.0
        kernel[support] = morlet_wavelet(offsets[support], a, params)
        spectra[i] = np.fft.fft(kernel)
    spectra.setflags(write=False)
    return spectra


def cwt(signal: np.ndarray, scales: np.ndarray,
        params: MorletParams = MORLET,
        out: np.ndarray | None = None) -> np.ndarray:
    """Complex CWT coefficients, one row per scale, one column per sample.

    Frequency-domain evaluation: the signal is zero-padded to
    ``fft_length(N, max scale)``, the shortest fast length >= N + M and
    >= 2M + 1 (M = ceil(4 * max scale), the widest kernel half-width),
    multiplied with the kernel spectra, and inverse transformed.  Kernel
    offsets reach at most M samples past either end of the signal, so
    N + M points leave no wrap-around inside the output window, and
    2M + 1 points hold the whole kernel without overlap.  This equals
    direct time-domain convolution with the truncated kernels to machine
    precision.

    A float32 signal is transformed in complex64; any other input is cast
    to float64 and transformed in complex128.  The spectral product and the
    inverse FFT go through one (n_scales, L) array of that complex dtype:
    ``out`` when given (a caller transforming many equal-length signals
    passes the same one each time), otherwise a fresh one.  The result is
    the view of its first N columns, so it is overwritten by the next call
    that reuses ``out``.
    """
    x = np.asarray(signal)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    ctype = np.dtype(np.complex64 if x.dtype == np.float32 else np.complex128)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("signal must be a 1-D vector of length >= 2")
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite values")
    scales = np.asarray(scales, dtype=np.float64)
    n = x.size
    nfft = fft_length(n, scales.max())
    spectra = _kernel_spectra(scales.tobytes(), params.omega0, nfft, ctype)
    if out is None:
        out = np.empty(spectra.shape, dtype=ctype)
    elif out.shape != spectra.shape or out.dtype != ctype:
        raise ValueError(f"out must be a {ctype} array of shape {spectra.shape}, "
                         f"got {out.dtype} {out.shape}")
    np.multiply(np.fft.fft(x, nfft)[None, :], spectra, out=out)
    return np.fft.ifft(out, axis=1, out=out)[:, :n]


def _pool_bins(n: int, target_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Left edges and widths (at least 1) of ``pool_columns``' bins."""
    edges = (np.arange(target_cols + 1) * n) // target_cols
    return edges[:-1], np.maximum(np.diff(edges), 1)


def pool_columns(mag: np.ndarray, target_cols: int) -> np.ndarray:
    """Mean-pool columns into ``target_cols`` nearly-equal contiguous bins.

    Bin j covers columns [j*N//C, (j+1)*N//C); when a bin is empty
    (N < C) the single column at its left edge is used.  The sums and means
    are float64 whatever the dtype of ``mag``.
    """
    starts, widths = _pool_bins(mag.shape[1], target_cols)
    return np.add.reduceat(mag, starts, axis=1, dtype=np.float64) / widths


def to_scalogram(coeffs: np.ndarray) -> np.ndarray:
    """Magnitude -> time pooling to ``SCALOGRAM_COLS`` bins -> min-max to [0, 1].

    Returns the float64 (n_scales, ``SCALOGRAM_COLS``) image, pooled and
    normalised in float64 whatever the precision of ``coeffs``: its values
    span [0, 1] exactly, except that a flat magnitude image (max - min
    below 1e-12) maps to all zeros.  The magnitudes of ``POOL_BLOCK_ROWS``
    scale rows at a time are written into one small float64 buffer and
    summed into their bins, so no full-size magnitude matrix is made; the
    absolute value still runs in the precision of ``coeffs`` and is widened
    exactly, so the image has the bits of ``pool_columns(np.abs(coeffs),
    64)`` normalised.  Coefficients that are not a non-empty 2-D (scales,
    samples) matrix are refused, and so is a scale row whose pooled
    magnitudes are not finite, by its index.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise ValueError(f"coefficients must be a 2-D (scales, samples) matrix, "
                         f"got shape {coeffs.shape}")
    if coeffs.size == 0:
        raise ValueError("empty coefficient matrix")
    rows, n = coeffs.shape
    starts, widths = _pool_bins(n, SCALOGRAM_COLS)
    pooled = np.empty((rows, SCALOGRAM_COLS))
    mag = np.empty((min(rows, POOL_BLOCK_ROWS), n))
    for start in range(0, rows, POOL_BLOCK_ROWS):
        block = coeffs[start:start + POOL_BLOCK_ROWS]
        np.add.reduceat(np.abs(block, out=mag[:len(block)]), starts, axis=1,
                        out=pooled[start:start + len(block)])
    pooled /= widths
    finite = np.isfinite(pooled).all(axis=1)
    if not finite.all():
        raise ValueError(f"scale row {int(np.argmin(finite))} has non-finite "
                         f"pooled magnitudes")
    lo, hi = pooled.min(), pooled.max()
    if hi - lo < FLAT_EPS:
        return np.zeros_like(pooled)
    return (pooled - lo) / (hi - lo)
