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

_PAIRS = (
    (Channel.ECG_II, Channel.ECG_V),
    (Channel.ECG_II, Channel.PLETH),
    (Channel.ECG_II, Channel.RESP),
    (Channel.ECG_V, Channel.PLETH),
    (Channel.ECG_V, Channel.RESP),
    (Channel.PLETH, Channel.RESP),
)


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
    std = float(x.std())
    centered = x - mean
    if std > _EPS:
        z = centered / std
        skew = float(np.mean(z ** 3))
        kurt = float(np.mean(z ** 4) - 3.0)
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

    line_length = float(np.abs(np.diff(x)).sum() / n)
    dx = np.diff(x)
    var_x, var_dx = float(np.var(x)), float(np.var(dx))
    mobility = math.sqrt(var_dx / var_x) if var_x > _EPS else 0.0
    if var_dx > _EPS and mobility > _EPS:
        ddx = np.diff(dx)
        mob_dx = math.sqrt(float(np.var(ddx)) / var_dx)
        complexity = mob_dx / mobility
    else:
        complexity = 0.0

    chunk_rms = np.array([math.sqrt(float(np.mean(c * c)))
                          for c in np.array_split(x, 6)])
    drift = float(np.polyfit(np.arange(6), chunk_rms, 1)[0])

    if var_x > _EPS:
        lag1 = float(np.dot(centered[:-1], centered[1:]) /
                     (np.linalg.norm(centered[:-1]) * np.linalg.norm(centered[1:]) + _EPS))
    else:
        lag1 = 0.0

    return [mean, std, skew, kurt, rms, rng_, median, mad, zcr,
            dom_freq, dom_peak, spec_entropy, centroid, rolloff,
            *bands, snr_db, line_length, mobility, complexity, drift, lag1]


def extract_features(record: Record) -> FeatureVector:
    """Extract the 103-feature catalogue from a 4-channel record."""
    if set(record.channels) != set(CHANNEL_ORDER):
        raise ValueError(
            f"extract_features needs the 4 canonical channels, record "
            f"{record.record_id} has {[c.value for c in record.channels]}"
        )
    rows = {c: record.channel(c).astype(np.float64) for c in CHANNEL_ORDER}
    values: list[float] = []
    for chan in CHANNEL_ORDER:
        values.extend(_channel_features(rows[chan], record.fs, chan))
    for a, b in _PAIRS:
        xa, xb = rows[a], rows[b]
        if xa.std() > _EPS and xb.std() > _EPS:
            values.append(float(np.corrcoef(xa, xb)[0, 1]))
        else:
            values.append(0.0)
    stacked = np.concatenate([rows[c] for c in CHANNEL_ORDER])
    chunks = np.array_split(stacked, 6)
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

    b, a = butter(2, _BAND_HZ, btype="bandpass", fs=fs)
    bp = filtfilt(b, a, x)
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
    by convention; the count always passes through."""
    x = np.asarray(signal, dtype=np.float64)
    if beats.n_beats >= 2:
        rr_stats = [float(beats.rr.mean()), float(beats.rr.std()),
                    float(beats.rr.min()), float(beats.rr.max())]
    else:
        rr_stats = [0.0, 0.0, 0.0, 0.0]
    half_win = max(1, int(0.1 * beats.fs))
    amps, widths = [], []
    for idx in beats.indices:
        lo, hi = max(0, idx - half_win), min(x.size, idx + half_win + 1)
        seg = x[lo:hi]
        baseline = float(np.median(seg))
        dev = np.abs(seg - baseline)
        amp = float(dev.max())
        amps.append(amp)
        if amp > _EPS:
            above = dev >= 0.5 * amp
            center = int(np.argmax(dev))
            left = center
            while left > 0 and above[left - 1]:
                left -= 1
            right = center
            while right < above.size - 1 and above[right + 1]:
                right += 1
            widths.append((right - left + 1) / beats.fs)
        else:
            widths.append(0.0)
    amp_mean = float(np.mean(amps)) if amps else 0.0
    amp_std = float(np.std(amps)) if amps else 0.0
    width_mean = float(np.mean(widths)) if widths else 0.0
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
    for _ in range(_N_ITER):
        p = 1.0 / (1.0 + np.exp(-(z @ w + b)))
        g = sample_w * (p - t) / y.size
        w -= _LR * (z.T @ g)
        b -= _LR * float(g.sum())
    return LinearModel(weights=w, bias=b, mu=mu, sigma=sigma)


def linear_classifier_predict(model: LinearModel, features) -> np.ndarray:
    """Probability of the true-alarm class, in [0, 1]."""
    x = np.asarray(features, dtype=np.float64)
    z = (x - model.mu) / model.sigma
    return 1.0 / (1.0 + np.exp(-(z @ model.weights + model.bias)))
