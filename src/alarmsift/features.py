"""Hand-crafted signal features, Pan-Tompkins beat detection, and a small
logistic baseline classifier.

The feature catalogue is fixed at 103 values per record: 24 statistical /
spectral / temporal descriptors for each of the four channels, the 6
pairwise cross-channel correlations, and the RMS of all four channels over
the last of 6 time chunks against that over the first.  Degenerate inputs
follow fixed conventions (zero-power spectrum => spectral entropy,
centroid, rolloff and dominant frequency all 0; zero-variance channels =>
correlation 0) so every output is always finite.
Every function returns a fresh ndarray that its caller owns, and checks
each input, refusing it by name, where it reads it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .records import (CHANNEL_ORDER, Channel, Record, _checked_seed,
                      class_weights, write_csv)

_EPS = 1e-12

#: Power bands shared by all channels (Hz).
POWER_BANDS = ((0.5, 4.0), (4.0, 15.0), (15.0, 40.0), (40.0, 100.0))

#: Physiologic band per channel kind, used by the in-band/out-of-band SNR.
SNR_BANDS = {
    Channel.ECG_II: (0.5, 40.0),
    Channel.ECG_V: (0.5, 40.0),
    Channel.PLETH: (0.5, 5.0),
    Channel.RESP: (0.05, 1.0),
}

_PER_CHANNEL = (
    "mean", "std", "skewness", "kurtosis", "rms", "range", "median", "mad",
    "zcr", "dominant_freq", "dominant_peak", "spectral_entropy",
    "spectral_centroid", "rolloff_85",
    "bandpower_0.5_4", "bandpower_4_15", "bandpower_15_40", "bandpower_40_100",
    "snr_db", "line_length", "hjorth_mobility", "hjorth_complexity",
    "energy_drift_slope", "lag1_autocorr",
)
_STD = _PER_CHANNEL.index("std")
_DRIFT = _PER_CHANNEL.index("energy_drift_slope")

#: Time chunks of the energy drift slope and of the first-vs-last RMS ratio;
#: a record needs one sample per chunk.
_N_CHUNKS = 6
#: Chunk positions about their mean, t - 2.5, and their sum of squares,
#: 17.5: the least-squares slope of y over t is sum((t - 2.5) * y) / 17.5.
_CHUNK_T = np.arange(_N_CHUNKS) - (_N_CHUNKS - 1) / 2
_CHUNK_T_SS = float(np.sum(_CHUNK_T * _CHUNK_T))

#: Channel pairs of the correlations, as rows of CHANNEL_ORDER.
_PAIRS = tuple(itertools.combinations(range(len(CHANNEL_ORDER)), 2))


def _build_registry() -> tuple[str, ...]:
    names = [f"{c.value.lower()}_{f}" for c in CHANNEL_ORDER for f in _PER_CHANNEL]
    names += [f"corr_{CHANNEL_ORDER[a].value.lower()}_{CHANNEL_ORDER[b].value.lower()}"
              for a, b in _PAIRS]
    names.append("rms_ratio_last_first_chunk")
    return tuple(names)


#: Stable registry of the 103 feature identifiers, in extraction order.
FEATURE_NAMES: tuple[str, ...] = _build_registry()
assert len(FEATURE_NAMES) == 103


# ---------------------------------------------------------------------------
# Per-channel descriptors
# ---------------------------------------------------------------------------

def _spectrum(x: np.ndarray, fs: float):
    """One-sided periodogram (freqs, power), DC bin excluded."""
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0 / fs)
    return freqs[1:], power[1:]


def _band_power(freqs, power, lo, hi) -> float:
    """Sum of ``power`` over ``lo <= freqs < hi``; ``freqs`` ascend, so the
    band is one slice, summed in the order a boolean mask would take it."""
    start, stop = np.searchsorted(freqs, (lo, hi))
    return float(power[start:stop].sum())


def _median(v: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, bit for bit, from one partition.

    ``np.median`` averages the middle one or two values with ``np.mean``,
    whose sum starts from 0.0, so a -0.0 median reads +0.0; the leading
    ``0.0 +`` keeps that.  Its extra partition for a NaN check is dropped:
    records are finite.
    """
    k = v.size // 2
    p = np.partition(v, k)
    if v.size % 2:
        return 0.0 + float(p[k])
    return (0.0 + float(p[:k].max()) + float(p[k])) / 2


def _channel_features(x: np.ndarray, fs: float, chan: Channel) -> list[float]:
    """The per-channel descriptors but ``energy_drift_slope``, which
    ``extract_features`` derives from its chunk table."""
    n = x.size
    mean = float(x.mean())
    centered = x - mean
    centered_sq = centered * centered
    var_x = float(np.mean(centered_sq))  # np.var(x), bit for bit
    std = math.sqrt(var_x)
    if std > _EPS:
        # moments from products: libm pow on a float array is ~50x slower
        z = centered / std
        z2 = z * z
        skew = float(np.mean(z2 * z))
        kurt = float(np.mean(z2 * z2) - 3.0)
    else:
        skew = kurt = 0.0
    rms = float(np.sqrt(np.mean(x * x)))
    rng_ = float(x.max() - x.min())
    median = _median(x)
    mad = _median(np.abs(x - median))
    zcr = float(np.mean(np.signbit(x[:-1]) != np.signbit(x[1:])))

    freqs, power = _spectrum(x, fs)
    total = float(power.sum())
    if total > _EPS:
        peak_idx = int(np.argmax(power))
        dom_freq = float(freqs[peak_idx])
        dom_peak = float(power[peak_idx])
        p_norm = power / total
        nz = p_norm[p_norm > 0]
        spec_entropy = float(-(nz * np.log(nz)).sum() / math.log(p_norm.size))
        centroid = float((freqs * p_norm).sum())
        roll_idx = min(int(np.searchsorted(np.cumsum(power), 0.85 * total)),
                       freqs.size - 1)
        rolloff = float(freqs[roll_idx])
    else:
        dom_freq = dom_peak = spec_entropy = centroid = rolloff = 0.0

    bands = [_band_power(freqs, power, lo, hi) for lo, hi in POWER_BANDS]
    snr_lo, snr_hi = SNR_BANDS[chan]
    p_in = _band_power(freqs, power, snr_lo, snr_hi)
    p_out = total - p_in
    snr_db = 10.0 * math.log10((p_in + _EPS) / (p_out + _EPS))

    dx = np.diff(x)
    line_length = float(np.abs(dx).sum() / n)
    var_dx = float(np.var(dx))
    mobility = math.sqrt(var_dx / var_x) if var_x > _EPS else 0.0
    if var_dx > _EPS and mobility > _EPS:
        ddx = np.diff(dx)
        mob_dx = math.sqrt(float(np.var(ddx)) / var_dx)
        complexity = mob_dx / mobility
    else:
        complexity = 0.0

    if var_x > _EPS:
        # numpy sums, not BLAS dot products, whose bits follow the BLAS
        # thread count
        lag1 = float((centered[:-1] * centered[1:]).sum()
                     / (math.sqrt(centered_sq[:-1].sum())
                        * math.sqrt(centered_sq[1:].sum()) + _EPS))
    else:
        lag1 = 0.0

    return [mean, std, skew, kurt, rms, rng_, median, mad, zcr,
            dom_freq, dom_peak, spec_entropy, centroid, rolloff,
            *bands, snr_db, line_length, mobility, complexity, lag1]


def extract_features(record: Record) -> np.ndarray:
    """The 103 float64 features of a 4-channel record, ordered as
    :data:`FEATURE_NAMES`.

    A record without the four canonical channels, or with fewer than
    ``_N_CHUNKS`` samples per channel, raises ValueError naming the record;
    so does a non-finite feature, which the error also names.

    Each channel's sum of squares over ``_N_CHUNKS`` time chunks, at
    ``np.array_split``'s boundaries, is computed once.  A channel's
    ``energy_drift_slope`` is the least-squares slope of its chunk RMS over
    the chunk index; ``rms_ratio_last_first_chunk`` is the RMS of every
    channel's last chunk over that of every channel's first (0 when the
    first is flat).
    """
    if set(record.channels) != set(CHANNEL_ORDER):
        raise ValueError(
            f"extract_features needs the 4 canonical channels, record "
            f"{record.record_id} has {[c.value for c in record.channels]}"
        )
    if record.n_samples < _N_CHUNKS:
        raise ValueError(
            f"extract_features needs at least {_N_CHUNKS} samples per channel, "
            f"record {record.record_id} has {record.n_samples}"
        )
    stack = np.stack([record.channel(c) for c in CHANNEL_ORDER]).astype(np.float64)
    chunks = np.array_split(stack, _N_CHUNKS, axis=1)
    chunk_ss = np.stack([np.add.reduce(c * c, axis=1) for c in chunks], axis=1)
    chunk_n = np.array([c.shape[1] for c in chunks], dtype=np.float64)
    drift = (np.sqrt(chunk_ss / chunk_n) * _CHUNK_T).sum(axis=1) / _CHUNK_T_SS
    values: list[float] = []
    std: list[float] = []
    for chan, row, slope in zip(CHANNEL_ORDER, stack, drift.tolist()):
        channel_values = _channel_features(row, record.fs, chan)
        channel_values.insert(_DRIFT, slope)
        std.append(channel_values[_STD])
        values.extend(channel_values)
    # one call for every pair; a flat channel's row of NaN is not read
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(stack)
    for a, b in _PAIRS:
        if std[a] > _EPS and std[b] > _EPS:
            values.append(float(corr[a, b]))
        else:
            values.append(0.0)
    rms_first, rms_last = np.sqrt(chunk_ss[:, [0, -1]].sum(axis=0)
                                  / (len(stack) * chunk_n[[0, -1]])).tolist()
    values.append(rms_last / rms_first if rms_first > _EPS else 0.0)
    out = np.array(values)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(f"record {record.record_id} has a non-finite feature "
                         f"{FEATURE_NAMES[bad[0]]} = {out[bad[0]]}")
    return out


def export_features_csv(records: list[Record], path) -> None:
    """Write one row per record: id, alarm type, label, then the 103 features."""
    write_csv(path, ["record_id", "alarm_type", "label", *FEATURE_NAMES],
              ([r.record_id, r.alarm_type.value, int(r.label),
                *extract_features(r).tolist()] for r in records))


# ---------------------------------------------------------------------------
# Pan-Tompkins beat detection
# ---------------------------------------------------------------------------

# Stage constants of the detection cascade, fixed for fs = 250 Hz as in
# Pan & Tompkins (1985).
_BAND_HZ = (5.0, 15.0)
_DERIVATIVE_KERNEL = np.array([-1.0, -2.0, 0.0, 2.0, 1.0]) / 8.0
_INTEGRATION_WINDOW_S = 0.150
_REFRACTORY_S = 0.200
_PEAK_UPDATE = 0.125  # weight of a new peak in the signal and noise levels
_THRESHOLD_FRACTION = 0.25
_SEARCHBACK_FRACTION = 0.5
_SEARCHBACK_RR_FACTOR = 1.66


#: ``_lfilter``'s block length at a rate is the shortest power of two from
#: ``_MIN_BLOCK`` over which the filter's free response decays to
#: ``_CARRY_DECAY`` of a unit state: the state carried from block to block
#: then does not grow, nor does its rounding.  The response lasts longer
#: the higher the rate: 2048 samples at 2000 Hz, 16 384 at 10 kHz.  Just
#: above 30 Hz the upper band edge nears Nyquist, two poles near -1, and
#: the response hardly decays, so the block stops growing at
#: ``_MAX_TOEPLITZ`` samples or 2 seconds, the shortest signal
#: detect_beats takes, whichever is longer.  Blocks up to
#: ``_MAX_TOEPLITZ`` samples filter by a GEMM against an L x L Toeplitz
#: matrix; longer ones convolve by FFT, whose cost grows as L log L, not
#: L ** 2.
_MIN_BLOCK, _MAX_TOEPLITZ = 128, 2048
_CARRY_DECAY = 1.0
#: A local maximum of the integrated signal at or below
#: ``(_FLAT_FLOOR * max|x|) ** 2`` is filter rounding, not a beat.
_FLAT_FLOOR = 1e-10


class _Bandpass(NamedTuple):
    """The ``_BAND_HZ`` bandpass at one rate and its block-filter plan.

    ``b``, ``a`` and ``zi`` are scipy's ``butter(2, _BAND_HZ, "bandpass",
    fs=fs)`` and ``lfilter_zi(b, a)``, bit for bit.  With the
    direct-form-II-transposed state z (scipy's ``lfilter``), a block of
    L inputs x starting in state z gives outputs
    ``x @ zero_state + z @ zero_input`` and ends in state
    ``step @ z + x @ carry``.  Above ``_MAX_TOEPLITZ`` samples there is
    no ``zero_state``: the block's zero-state response is the convolution
    of x with ``impulse``.
    """
    b: np.ndarray
    a: np.ndarray
    zi: np.ndarray
    impulse: np.ndarray     # (L,): the block's response to a unit input at 0
    zero_state: np.ndarray | None  # (L, L): row j, its response to a unit input at j
    zero_input: np.ndarray  # (4, L): row i, its response to the unit start state i
    carry: np.ndarray       # (L, 4): row j, its end state after a unit input at j
    step: np.ndarray        # (4, 4): column i, its end state from the unit start state i


@functools.lru_cache(maxsize=2)
def _bandpass(fs: float) -> _Bandpass:
    """The second-order Butterworth ``_BAND_HZ`` bandpass at ``fs``, designed
    as scipy's ``iirfilter`` does it (``buttap``, ``lp2bp_zpk``,
    ``bilinear_zpk``, ``zpk2tf``) with the same numpy operations, and its
    block plan, whose size does not depend on the signal's.

    A run's records share one or a few rates, so each rate designs its
    filter once; the two most recent rates are kept, each plan up to 32 MB
    (the Toeplitz matrix at 2000 Hz).  The arrays are read-only: every
    caller shares them.
    """
    # digital band edges pre-warped to the analog prototype at fs = 2
    warped = 4.0 * np.tan(np.pi * (np.array(_BAND_HZ) / (fs / 2)) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # the two Butterworth poles, doubled and shifted to +-wo
    p_lp = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4) * bw / 2
    root = np.sqrt(p_lp ** 2 - wo ** 2)
    p_bp = np.concatenate((p_lp + root, p_lp - root))
    # bilinear transform: the analog zeros at 0 go to 1, those at infinity to -1
    poles = (4.0 + p_bp) / (4.0 - p_bp)
    gain = bw ** 2 * np.real(np.prod(np.full(2, 4.0 + 0j)) / np.prod(4.0 - p_bp))
    b = np.multiply(np.array([gain]), _poly(np.array([1, 1, -1, -1], dtype=complex)))
    a = _poly(poles)

    order = a.size - 1
    # lfilter_zi: the state z with z = A z + B, A = companion(a).T
    A = np.eye(order, k=1)
    A[:, 0] = -a[1:]
    B = b[1:] - a[1:] * b[0]
    zi = np.linalg.solve(np.eye(order) - A, B)

    # The free response, z -> A z, of each unit state and of B, the state
    # after a unit impulse, one sample at a time: powers of A multiplied out
    # by squaring would lose the digits that cancel in them.
    states = [np.concatenate((np.eye(order), B[:, None]), axis=1)]
    while True:
        states.append(A @ states[-1])
        n = len(states) - 1
        if n >= _MIN_BLOCK and n & (n - 1) == 0 and (
                n >= max(_MAX_TOEPLITZ, 2 * fs)
                or np.abs(states[-1][:, :order]).max() <= _CARRY_DECAY):
            break
    states = np.stack(states)
    impulse = np.concatenate(([b[0]], states[:n - 1, 0, order]))
    zero_state = None
    if n <= _MAX_TOEPLITZ:
        padded = np.concatenate((np.zeros(n - 1), impulse))
        zero_state = np.lib.stride_tricks.sliding_window_view(padded, n)[:, ::-1].T.copy()
    plan = _Bandpass(b, a, zi, impulse, zero_state, states[:n, 0, :order].T.copy(),
                     states[n - 1::-1, :, order].copy(), states[n, :, :order].copy())
    for arr in plan:
        if arr is not None:
            arr.setflags(write=False)
    return plan


def _poly(roots: np.ndarray) -> np.ndarray:
    """The real monic polynomial with conjugate-paired ``roots``, multiplied
    out one root at a time as scipy's ``zpk2tf`` does."""
    coeffs = np.ones(1, dtype=complex)
    for root in roots:
        coeffs = np.convolve(coeffs, np.stack((np.ones_like(root), -root)))
    return coeffs.real.copy()


def _lfilter(f: _Bandpass, x: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """scipy's ``lfilter(f.b, f.a, x, zi=z0)[0]``, exact in arithmetic.

    Each block's zero-state response is one GEMM against the impulse
    response's Toeplitz matrix, or above ``_MAX_TOEPLITZ`` samples one FFT
    convolution with the impulse response.  The block-start states solve
    ``z[k + 1] = step @ z[k] + carried[k]``, as a prefix scan: after the
    round with shift s, row k holds the sum over the 2s rows up to k, each
    carried through the blocks between.
    """
    size = len(f.carry)
    blocks = np.zeros((-(-x.size // size), size))
    blocks.ravel()[:x.size] = x
    starts = np.empty((len(blocks), z0.size))
    starts[0] = z0
    np.matmul(blocks[:-1], f.carry, out=starts[1:])
    carry_t = f.step.T
    shift = 1
    while shift < len(starts):
        starts[shift:] += starts[:-shift] @ carry_t
        carry_t = carry_t @ carry_t
        shift *= 2
    if f.zero_state is None:
        n_fft = 2 * size
        zero_state = np.fft.irfft(np.fft.rfft(blocks, n_fft) * np.fft.rfft(f.impulse, n_fft),
                                  n_fft)[:, :size]
    else:
        zero_state = blocks @ f.zero_state
    return (zero_state + starts @ f.zero_input).ravel()[:x.size]


def _filtfilt(f: _Bandpass, x: np.ndarray) -> np.ndarray:
    """scipy's ``filtfilt(f.b, f.a, x)``: 3 * 5 odd-extension samples at
    each end, a forward and a backward pass each started in ``f.zi``'s
    steady state, and the extension cut off again."""
    pad = 3 * f.b.size
    ext = np.concatenate((2 * x[0] - x[pad:0:-1], x, 2 * x[-1] - x[-2:-pad - 2:-1]))
    y = _lfilter(f, ext, f.zi * ext[0])
    y = _lfilter(f, y[::-1], f.zi * y[-1])
    return y[::-1][pad:-pad]


def _find_peaks(x: np.ndarray, distance: int) -> np.ndarray:
    """scipy's ``find_peaks(x, distance=distance)[0]``.

    A peak is the midpoint of a run of equal samples whose neighbours on
    both sides are lower.  The peaks are then taken greedily in the order
    ``np.argsort`` gives their heights, highest first, each removing the
    remaining peaks fewer than ``distance`` samples from it.
    """
    run_starts = np.flatnonzero(x[1:] != x[:-1]) + 1
    starts = np.concatenate(([0], run_starts))
    ends = np.concatenate((run_starts - 1, [x.size - 1]))
    level = x[starts]
    inner = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (starts[inner] + ends[inner]) // 2
    heights = x[peaks]
    order = np.argsort(heights)
    # the peaks within distance of peak j are peaks[lo[j]:hi[j]]
    n = peaks.size
    bounds = np.searchsorted(peaks, np.concatenate((peaks - (distance - 1),
                                                    peaks + distance))).tolist()
    lo, hi = bounds[:n], bounds[n:]
    keep = bytearray(n)
    removed = bytearray(n)
    for j in order[::-1].tolist():
        if not removed[j]:
            keep[j] = 1
            removed[lo[j]:hi[j]] = b"\x01" * (hi[j] - lo[j])
    return peaks[np.frombuffer(keep, dtype=bool)]


def _rr_mean(rr: list[float]) -> float:
    """``np.mean`` of 1 to 8 RR intervals, bit for bit: numpy sums fewer
    than 8 values left to right and 8 as a pairwise tree."""
    if len(rr) == 8:
        total = ((rr[0] + rr[1]) + (rr[2] + rr[3])) + ((rr[4] + rr[5]) + (rr[6] + rr[7]))
    else:
        total = 0.0
        for value in rr:
            total += value
    return total / len(rr)


def detect_beats(signal, fs: float = 250.0) -> np.ndarray:
    """Strictly increasing int64 sample indices of the beats found by the
    Pan-Tompkins cascade: bandpass, derivative, squaring, moving-window
    integration, then adaptive dual-threshold peak picking with a 200 ms
    refractory and a search-back pass at half threshold.

    A non-finite ``fs``, or one whose Nyquist frequency is not above the
    upper band edge, raises ValueError naming ``fs``; so does a signal
    shorter than 2 seconds or holding a NaN or inf.  A constant signal, at
    any level, has no beats.
    """
    if not (math.isfinite(fs) and fs / 2 > _BAND_HZ[1]):
        raise ValueError(f"detect_beats needs a finite fs above {2 * _BAND_HZ[1]} "
                         f"Hz, so that its {_BAND_HZ[1]} Hz band edge lies below "
                         f"Nyquist; got fs={fs}")
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < int(2 * fs):
        raise ValueError("detect_beats needs at least 2 seconds of signal")
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValueError(f"detect_beats needs a finite signal; sample {bad} is {x[bad]}")

    bp = _filtfilt(_bandpass(fs), x)
    deriv = np.convolve(bp, _DERIVATIVE_KERNEL, mode="same")
    squared = deriv * deriv
    window = max(1, int(_INTEGRATION_WINDOW_S * fs))
    mwi = np.convolve(squared, np.ones(window) / window, mode="same")

    refractory = int(_REFRACTORY_S * fs)
    floor = (_FLAT_FLOOR * float(np.abs(x).max())) ** 2
    candidates = _find_peaks(mwi, refractory + 1)
    candidates = candidates[mwi[candidates] > floor]

    warmup = mwi[: int(2 * fs)]
    spki = 0.25 * float(warmup.max())
    npki = 0.5 * float(warmup.mean())
    accepted: list[int] = []
    rr_hist: list[float] = []

    def note_rr(idx):
        if accepted:
            rr_hist.append((idx - accepted[-1]) / fs)
            del rr_hist[:-8]

    # Python ints and floats: the same IEEE arithmetic as numpy scalars,
    # without their dispatch on every candidate
    for idx, peak in zip(candidates.tolist(), mwi[candidates].tolist()):
        thr1 = npki + _THRESHOLD_FRACTION * (spki - npki)
        if peak > thr1:
            note_rr(idx)
            accepted.append(idx)
            spki = _PEAK_UPDATE * peak + (1 - _PEAK_UPDATE) * spki
        else:
            missed = (accepted and rr_hist
                      and (idx - accepted[-1]) / fs >
                      _SEARCHBACK_RR_FACTOR * _rr_mean(rr_hist))
            if missed and peak > _SEARCHBACK_FRACTION * thr1:
                note_rr(idx)
                accepted.append(idx)
                spki = 0.25 * peak + 0.75 * spki
            else:
                npki = _PEAK_UPDATE * peak + (1 - _PEAK_UPDATE) * npki

    # refine each detection to the strongest bandpassed deflection in the
    # window + 1 samples up to its integration peak, one argmax over the
    # windows of all beats.  ``window`` leading -1s, below every magnitude,
    # make a beat fewer than ``window`` samples from the start search from
    # sample 0.  Then re-enforce the refractory gap.
    padded = np.full(window + bp.size, -1.0)
    np.abs(bp, out=padded[window:])
    windows = np.lib.stride_tricks.sliding_window_view(padded, window + 1)
    starts = np.array(accepted, dtype=np.int64)
    strongest = (starts - window + windows[starts].argmax(axis=1)).tolist()
    refined: list[int] = []
    for j in strongest:
        if not refined or j - refined[-1] > refractory:
            refined.append(j)
    return np.asarray(refined, dtype=np.int64)


BEAT_FEATURE_NAMES: tuple[str, ...] = (
    "rr_mean", "rr_std", "rr_min", "rr_max", "beat_count",
    "amp_mean", "amp_std", "width_mean",
)


def beat_features(signal, indices, fs: float) -> np.ndarray:
    """Beat-morphology summary of the beats at sample ``indices`` of a
    signal sampled at ``fs``: RR statistics, count, amplitude, and mean
    width at half amplitude.  With fewer than 2 beats the RR features are 0
    by convention; the count always passes through.

    RR is ``np.diff(indices) / fs``.  Each beat's window is the samples
    within 0.1 s of it, clipped to the signal; its amplitude is the largest
    deviation from the window's median, and its width the run of samples
    around that peak deviating by at least half of it (0 for an amplitude
    <= 1e-12).  ValueError names an ``fs`` not finite and > 0, and indices
    that are not a 1-D strictly increasing integer vector inside the signal.
    """
    if not (math.isfinite(fs) and fs > 0):
        raise ValueError(f"beat_features needs a finite fs > 0, got fs={fs}")
    x = np.asarray(signal, dtype=np.float64)
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"beat_features needs a 1-D integer vector of beat "
                         f"indices, got {idx.dtype} of shape {idx.shape}")
    idx = idx.astype(np.int64)
    gaps = np.diff(idx)
    if not (gaps > 0).all():
        raise ValueError("beat_features needs strictly increasing beat indices")
    if idx.size and (idx[0] < 0 or idx[-1] >= x.size):
        raise ValueError(f"beat indices {idx[0]}..{idx[-1]} do not lie in the "
                         f"signal's {x.size} samples")
    if idx.size >= 2:
        rr = gaps / fs
        rr_stats = [float(rr.mean()), float(rr.std()),
                    float(rr.min()), float(rr.max())]
    else:
        rr_stats = [0.0, 0.0, 0.0, 0.0]
    # columns beyond the signal's size would all be outside: a huge fs allocates nothing
    half_win = max(1, min(int(0.1 * fs), x.size))
    # one row per beat; the columns of a window clipped by either end of the
    # signal are marked outside and sort last as +inf
    cols = np.arange(2 * half_win + 1)
    pos = idx[:, None] + (cols - half_win)
    inside = (pos >= 0) & (pos < x.size)
    seg = x[np.clip(pos, 0, x.size - 1)]
    ordered = np.sort(np.where(inside, seg, np.inf), axis=1)
    # np.median's arithmetic: the middle sample, or the mean of the two middle ones
    k = inside.sum(axis=1)
    beat = np.arange(idx.size)
    lower, upper = ordered[beat, (k - 1) // 2], ordered[beat, k // 2]
    baseline = np.where(k % 2 == 1, upper, (lower + upper) / 2)
    dev = np.where(inside, np.abs(seg - baseline[:, None]), -1.0)
    amps = dev.max(axis=1)
    # the half-amplitude run around the first peak stops before the nearest
    # column on each side that is below half or outside the signal, or at
    # the window's edge
    center = dev.argmax(axis=1)[:, None]
    below = ~(dev >= 0.5 * amps[:, None])
    left = np.where(below & (cols < center), cols, -1).max(axis=1) + 1
    right = np.where(below & (cols > center), cols, cols.size).min(axis=1) - 1
    widths = np.where(amps > _EPS, (right - left + 1) / fs, 0.0)
    if idx.size:
        amp_mean, amp_std, width_mean = (float(amps.mean()), float(amps.std()),
                                         float(widths.mean()))
    else:
        amp_mean = amp_std = width_mean = 0.0
    return np.array([*rr_stats, float(idx.size), amp_mean, amp_std, width_mean])


# ---------------------------------------------------------------------------
# Logistic baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("weights", "mu", "sigma"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


_LR = 0.05
_N_ITER = 800


def _feature_matrix(features, caller: str) -> np.ndarray:
    """``features`` as a float64 matrix; ValueError, naming ``caller``, for
    anything but a non-empty, finite 2-D matrix."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"{caller} needs a non-empty (N, F) feature matrix, "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        row, col = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"{caller} needs finite features; row {row}, column "
                         f"{col} is {x[row, col]}")
    return x


def linear_classifier_fit(problems) -> list[LinearModel]:
    """One class-weighted logistic regression per ``(features, labels, seed)``
    problem, in order: ``_N_ITER`` full-batch gradient descent steps of rate
    ``_LR`` on each (N, F) feature matrix, all problems in one loop.

    Each problem's features are standardized internally (its training mean
    / std); class weights follow w_c = N / (2 * N_c); its initial weights
    are drawn from its ``seed``.  A model's bits do not depend on the other
    problems of the batch.  ValueError, naming the problem's index, unless
    every seed is an integer >= 0 and every matrix is finite with one label
    per row, both classes and the same F.  An empty batch gives ``[]``.
    """
    zs, sample_w, t, w0, scaling = [], [], [], [], []  # one entry per problem
    for i, problem in enumerate(problems):
        try:
            features, labels, seed = problem
            seed = _checked_seed(seed)
            x = _feature_matrix(features, "linear_classifier_fit")
            y = np.asarray(labels, dtype=bool)
            if y.shape != x.shape[:1]:
                raise ValueError(f"linear_classifier_fit needs one label per row: "
                                 f"{x.shape[0]} rows, labels of shape {y.shape}")
            cw = class_weights(y)  # raises on single-class input
        except ValueError as exc:
            raise ValueError(f"{exc} (problem {i})") from None
        if zs and x.shape[1] != zs[0].shape[1]:
            raise ValueError(f"linear_classifier_fit needs one column count for "
                             f"every problem: problem 0 has {zs[0].shape[1]}, "
                             f"problem {i} has {x.shape[1]}")
        mu = x.mean(axis=0)
        sigma = x.std(axis=0)
        sigma = np.where(sigma > _EPS, sigma, 1.0)
        zs.append((x - mu) / sigma)
        sample_w.append(np.where(y, cw.w_true, cw.w_false))
        t.append(y.astype(np.float64))
        w0.append(np.random.default_rng(seed).normal(0.0, 1e-3, size=x.shape[1]))
        scaling.append((mu, sigma))
    if not zs:
        return []
    # Each step is p = 1 / (1 + exp(-(z @ w + b))), g = sample_w * (p - t) / N,
    # w -= _LR * (z.T @ g), b -= _LR * sum(g) for every problem: the same
    # roundings in the same order as one problem alone.  With tens of rows a
    # numpy call costs more in dispatch than in arithmetic, so the
    # elementwise steps run once over the problems' concatenated rows, and
    # only the two gemvs and the bias sum run per problem, on views of
    # preallocated buffers: s and g are sliced from one (sum N,) buffer each,
    # w and step are rows of one (problems, F) array.  ``np.add.reduceat``
    # would sum the bias segments in another order and change the bits.
    sizes = [z.shape[0] for z in zs]
    sample_w, t = np.concatenate(sample_w), np.concatenate(t)
    n = np.repeat(np.array(sizes, dtype=np.float64), sizes)
    w = np.stack(w0)
    step = np.empty_like(w)
    s, g = np.empty(t.size), np.empty(t.size)
    neg_b = np.zeros(t.size)  # each row's -b
    b = [0.0] * len(zs)
    ends = np.cumsum(sizes)
    rows = [slice(end - size, end) for size, end in zip(sizes, ends)]
    forward = [(z, w_i, s[r]) for z, w_i, r in zip(zs, w, rows)]
    backward = [(z.T, g[r], step_i, neg_b[r])
                for z, step_i, r in zip(zs, step, rows)]
    for _ in range(_N_ITER):
        for z, w_i, s_i in forward:
            np.dot(z, w_i, s_i)
        np.subtract(neg_b, s, s)  # -(z @ w + b), up to a zero's sign that exp drops
        np.exp(s, s)
        np.add(s, 1.0, s)
        np.divide(1.0, s, s)
        np.subtract(s, t, s)
        np.multiply(sample_w, s, g)
        np.divide(g, n, g)
        for i, (zt, g_i, step_i, neg_b_i) in enumerate(backward):
            np.dot(zt, g_i, step_i)
            b[i] -= _LR * float(np.add.reduce(g_i))
            neg_b_i.fill(-b[i])
        np.multiply(step, _LR, step)
        np.subtract(w, step, w)
    return [LinearModel(weights=w_i.copy(), bias=b_i, mu=mu, sigma=sigma)
            for w_i, b_i, (mu, sigma) in zip(w, b, scaling)]


def linear_classifier_predict(model: LinearModel, features) -> np.ndarray:
    """Probability of the true-alarm class, in [0, 1], for each row of a
    non-empty, finite (N, F) matrix with the model's F; else ValueError."""
    x = _feature_matrix(features, "linear_classifier_predict")
    if x.shape[1] != model.weights.size:
        raise ValueError(f"linear_classifier_predict needs the model's "
                         f"{model.weights.size} feature columns, got {x.shape[1]}")
    z = (x - model.mu) / model.sigma
    return 1.0 / (1.0 + np.exp(-(z @ model.weights + model.bias)))
