"""Hand-crafted signal features, Pan-Tompkins beat detection, and a small
logistic baseline classifier.

The feature catalogue is fixed at 103 values per record: 24 statistical /
spectral / temporal descriptors for each of the four channels, the 6
pairwise cross-channel correlations, and one global first-vs-last-chunk
RMS ratio.  Degenerate inputs follow fixed conventions (zero-power spectrum
=> spectral entropy, centroid, rolloff and dominant frequency all 0;
zero-variance channels => correlation 0) so every output is always finite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, filtfilt, find_peaks

from .records import CHANNEL_ORDER, Channel, Record, class_weights, write_csv

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

#: Chunks of the energy drift slope and of the first-vs-last RMS ratio; a
#: record needs one sample per chunk.
_N_CHUNKS = 6

_PAIRS = tuple(itertools.combinations(CHANNEL_ORDER, 2))


def _build_registry() -> tuple[str, ...]:
    names = [f"{c.value.lower()}_{f}" for c in CHANNEL_ORDER for f in _PER_CHANNEL]
    names += [f"corr_{a.value.lower()}_{b.value.lower()}" for a, b in _PAIRS]
    names.append("rms_ratio_last_first_chunk")
    return tuple(names)


#: Stable registry of the 103 feature identifiers, in extraction order.
FEATURE_NAMES: tuple[str, ...] = _build_registry()
assert len(FEATURE_NAMES) == 103


@dataclass(frozen=True)
class FeatureVector:
    """Exactly 103 finite values, ordered as :data:`FEATURE_NAMES`."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("non-finite feature value")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.values.tolist()))


# ---------------------------------------------------------------------------
# Per-channel descriptors
# ---------------------------------------------------------------------------

def _spectrum(x: np.ndarray, fs: float):
    """One-sided periodogram (freqs, power), DC bin excluded."""
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0 / fs)
    return freqs[1:], power[1:]


def _band_power(freqs, power, lo, hi) -> float:
    sel = (freqs >= lo) & (freqs < hi)
    return float(power[sel].sum())


def _channel_features(x: np.ndarray, fs: float, chan: Channel) -> list[float]:
    n = x.size
    mean = float(x.mean())
    centered = x - mean
    var_x = float(np.mean(centered * centered))  # np.var(x), bit for bit
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
    median = float(np.median(x))
    mad = float(np.median(np.abs(x - median)))
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

    chunk_rms = np.array([math.sqrt(float(np.mean(c * c)))
                          for c in np.array_split(x, _N_CHUNKS)])
    drift = float(np.polyfit(np.arange(_N_CHUNKS), chunk_rms, 1)[0])

    if var_x > _EPS:
        lag1 = float(np.dot(centered[:-1], centered[1:]) /
                     (np.linalg.norm(centered[:-1]) * np.linalg.norm(centered[1:]) + _EPS))
    else:
        lag1 = 0.0

    return [mean, std, skew, kurt, rms, rng_, median, mad, zcr,
            dom_freq, dom_peak, spec_entropy, centroid, rolloff,
            *bands, snr_db, line_length, mobility, complexity, drift, lag1]


def extract_features(record: Record) -> FeatureVector:
    """Extract the 103-feature catalogue from a 4-channel record.

    A record without the four canonical channels, or with fewer than
    ``_N_CHUNKS`` samples per channel, raises ValueError naming the record.
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
    rows = {c: record.channel(c).astype(np.float64) for c in CHANNEL_ORDER}
    values: list[float] = []
    std: dict[Channel, float] = {}
    for chan in CHANNEL_ORDER:
        channel_values = _channel_features(rows[chan], record.fs, chan)
        std[chan] = channel_values[_STD]
        values.extend(channel_values)
    for a, b in _PAIRS:
        if std[a] > _EPS and std[b] > _EPS:
            values.append(float(np.corrcoef(rows[a], rows[b])[0, 1]))
        else:
            values.append(0.0)
    stacked = np.concatenate([rows[c] for c in CHANNEL_ORDER])
    chunks = np.array_split(stacked, _N_CHUNKS)
    rms_first = math.sqrt(float(np.mean(chunks[0] ** 2)))
    rms_last = math.sqrt(float(np.mean(chunks[-1] ** 2)))
    values.append(rms_last / rms_first if rms_first > _EPS else 0.0)
    return FeatureVector(np.array(values))


def export_features_csv(records: list[Record], path) -> None:
    """Write one row per record: id, alarm type, label, then the 103 features."""
    write_csv(path, ["record_id", "alarm_type", "label", *FEATURE_NAMES],
              ([r.record_id, r.alarm_type.value, int(r.label),
                *extract_features(r).values.tolist()] for r in records))


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


@dataclass(frozen=True)
class BeatAnnotations:
    """Detected beat sample indices (strictly increasing) and RR intervals."""

    indices: np.ndarray
    rr: np.ndarray  # seconds
    fs: float

    def __post_init__(self):
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if indices.size > 1 and not (np.diff(indices) > 0).all():
            raise ValueError("beat indices must be strictly increasing")
        rr = np.ascontiguousarray(self.rr, dtype=np.float64)
        indices.setflags(write=False)
        rr.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "rr", rr)

    @property
    def n_beats(self) -> int:
        return self.indices.size


@functools.lru_cache(maxsize=8)
def _bandpass(fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order Butterworth (b, a) of the ``_BAND_HZ`` bandpass at ``fs``.

    A run's records share one or a few rates, so each rate designs its
    filter once.  The arrays are read-only: every caller shares them.
    """
    b, a = butter(2, _BAND_HZ, btype="bandpass", fs=fs)
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a


def detect_beats(signal, fs: float = 250.0) -> BeatAnnotations:
    """Pan-Tompkins cascade: bandpass, derivative, squaring, moving-window
    integration, then adaptive dual-threshold peak picking with a 200 ms
    refractory and a search-back pass at half threshold.

    An ``fs`` whose Nyquist frequency is not above the upper band edge
    raises ValueError naming ``fs``.
    """
    if not fs / 2 > _BAND_HZ[1]:
        raise ValueError(f"detect_beats needs fs above {2 * _BAND_HZ[1]} Hz, so "
                         f"that its {_BAND_HZ[1]} Hz band edge lies below "
                         f"Nyquist; got fs={fs}")
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < int(2 * fs):
        raise ValueError("detect_beats needs at least 2 seconds of signal")

    bp = filtfilt(*_bandpass(fs), x)
    deriv = np.convolve(bp, _DERIVATIVE_KERNEL, mode="same")
    squared = deriv * deriv
    window = max(1, int(_INTEGRATION_WINDOW_S * fs))
    mwi = np.convolve(squared, np.ones(window) / window, mode="same")

    refractory = int(_REFRACTORY_S * fs)
    candidates, _ = find_peaks(mwi, distance=refractory + 1)

    warmup = mwi[: int(2 * fs)]
    spki = 0.25 * float(warmup.max())
    npki = 0.5 * float(warmup.mean())
    accepted: list[int] = []
    rr_hist: list[float] = []

    def note_rr(idx):
        if accepted:
            rr_hist.append((idx - accepted[-1]) / fs)
            del rr_hist[:-8]

    for idx in candidates:
        peak = mwi[idx]
        thr1 = npki + _THRESHOLD_FRACTION * (spki - npki)
        if peak > thr1:
            note_rr(idx)
            accepted.append(int(idx))
            spki = _PEAK_UPDATE * peak + (1 - _PEAK_UPDATE) * spki
        else:
            missed = (accepted and rr_hist
                      and (idx - accepted[-1]) / fs >
                      _SEARCHBACK_RR_FACTOR * float(np.mean(rr_hist)))
            if missed and peak > _SEARCHBACK_FRACTION * thr1:
                note_rr(idx)
                accepted.append(int(idx))
                spki = 0.25 * peak + 0.75 * spki
            else:
                npki = _PEAK_UPDATE * peak + (1 - _PEAK_UPDATE) * npki

    # refine each detection to the strongest bandpassed deflection just
    # before the integration peak, then re-enforce the refractory gap
    refined: list[int] = []
    for idx in accepted:
        lo = max(0, idx - window)
        j = lo + int(np.argmax(np.abs(bp[lo:idx + 1])))
        if not refined or j - refined[-1] > refractory:
            refined.append(j)
    indices = np.asarray(refined, dtype=np.int64)
    rr = np.diff(indices) / fs if indices.size > 1 else np.empty(0)
    return BeatAnnotations(indices=indices, rr=rr, fs=fs)


BEAT_FEATURE_NAMES: tuple[str, ...] = (
    "rr_mean", "rr_std", "rr_min", "rr_max", "beat_count",
    "amp_mean", "amp_std", "width_mean",
)


def beat_features(signal, beats: BeatAnnotations) -> np.ndarray:
    """Beat-morphology summary: RR statistics, count, amplitude, and mean
    width at half amplitude.  With fewer than 2 beats the RR features are 0
    by convention; the count always passes through.

    Each beat's window is the samples within 0.1 s of it, clipped to the
    signal; its amplitude is the largest deviation from the window's median,
    and its width the run of samples around that peak deviating by at least
    half of it (0 for an amplitude <= 1e-12).  A beat index outside the
    signal raises ValueError.
    """
    x = np.asarray(signal, dtype=np.float64)
    idx = beats.indices
    if idx.size and (idx[0] < 0 or idx[-1] >= x.size):
        raise ValueError(f"beat indices {idx[0]}..{idx[-1]} do not lie in the "
                         f"signal's {x.size} samples")
    if beats.n_beats >= 2:
        rr_stats = [float(beats.rr.mean()), float(beats.rr.std()),
                    float(beats.rr.min()), float(beats.rr.max())]
    else:
        rr_stats = [0.0, 0.0, 0.0, 0.0]
    half_win = max(1, int(0.1 * beats.fs))
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
    widths = np.where(amps > _EPS, (right - left + 1) / beats.fs, 0.0)
    if idx.size:
        amp_mean, amp_std, width_mean = (float(amps.mean()), float(amps.std()),
                                         float(widths.mean()))
    else:
        amp_mean = amp_std = width_mean = 0.0
    return np.array([*rr_stats, float(beats.n_beats), amp_mean, amp_std, width_mean])


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


def linear_classifier_fit(features, labels, seed: int = 0) -> LinearModel:
    """Class-weighted logistic regression by ``_N_ITER`` full-batch gradient
    descent steps of rate ``_LR`` on an (N, F) feature matrix.

    Features are standardized internally (training mean / std); class
    weights follow w_c = N / (2 * N_c).  Deterministic under ``seed``.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    cw = class_weights(y)  # raises on single-class input
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma = np.where(sigma > _EPS, sigma, 1.0)
    z = (x - mu) / sigma
    sample_w = np.where(y, cw.w_true, cw.w_false)
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1e-3, size=z.shape[1])
    b = 0.0
    t = y.astype(np.float64)
    # Each step is p = 1 / (1 + exp(-(z @ w + b))), g = sample_w * (p - t) / N,
    # w -= _LR * (z.T @ g), b -= _LR * sum(g): the same roundings in the same
    # order, written into preallocated buffers.  With tens of rows a numpy
    # call costs more in dispatch than in arithmetic, hence positional
    # ``out`` and ``np.dot``, which reaches the same BLAS gemv as ``@``.
    s = np.empty(y.size)
    g = np.empty(y.size)
    step = np.empty(z.shape[1])
    zt = z.T
    n = float(y.size)
    for _ in range(_N_ITER):
        np.dot(z, w, s)
        np.subtract(-b, s, s)  # -(z @ w + b), up to a zero's sign that exp drops
        np.exp(s, s)
        np.add(s, 1.0, s)
        np.divide(1.0, s, s)
        np.subtract(s, t, s)
        np.multiply(sample_w, s, g)
        np.divide(g, n, g)
        np.dot(zt, g, step)
        np.multiply(step, _LR, step)
        np.subtract(w, step, w)
        b -= _LR * float(np.add.reduce(g))
    return LinearModel(weights=w, bias=b, mu=mu, sigma=sigma)


def linear_classifier_predict(model: LinearModel, features) -> np.ndarray:
    """Probability of the true-alarm class, in [0, 1]."""
    x = np.asarray(features, dtype=np.float64)
    z = (x - model.mu) / model.sigma
    return 1.0 / (1.0 + np.exp(-(z @ model.weights + model.bias)))
