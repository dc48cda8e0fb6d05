import csv
import itertools
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import butter, filtfilt, find_peaks, lfilter_zi

import alarmsift.features as features
from alarmsift.features import (BEAT_FEATURE_NAMES, FEATURE_NAMES,
                                LinearModel, beat_features, detect_beats,
                                export_features_csv, extract_features,
                                linear_classifier_fit,
                                linear_classifier_predict)
from alarmsift.records import CHANNEL_ORDER, Channel, class_weights
from alarmsift.stats import auc, stratified_kfold
from conftest import make_record

FS = 250.0
_F32_MAX = float(np.finfo(np.float32).max)


def _record_with(ecg_ii=None, n=15000, rng=None, **kwargs):
    rng = rng or np.random.default_rng(0)
    samples = 0.1 * rng.standard_normal((4, n))
    if ecg_ii is not None:
        samples[0] = ecg_ii
    return make_record(n=n, samples=samples, **kwargs)


def _named(record):
    """The record's features keyed by name."""
    return dict(zip(FEATURE_NAMES, extract_features(record)))


class TestFeatureRegistry:
    def test_exactly_103_unique_names(self):
        assert len(FEATURE_NAMES) == 103
        assert len(set(FEATURE_NAMES)) == 103

    def test_correlation_pairs_in_channel_order(self):
        assert [n for n in FEATURE_NAMES if n.startswith("corr_")] == [
            "corr_ecg_ii_ecg_v", "corr_ecg_ii_pleth", "corr_ecg_ii_resp",
            "corr_ecg_v_pleth", "corr_ecg_v_resp", "corr_pleth_resp"]
        assert FEATURE_NAMES.index("corr_ecg_ii_ecg_v") == 96


class TestExtractFeatures:
    def test_exactly_103_finite_values(self, small_synth):
        values = extract_features(small_synth[0])
        assert values.shape == (103,) and values.dtype == np.float64
        assert np.isfinite(values).all()

    @given(data=st.data(), n=st.integers(6, 400), scale=st.one_of(
        st.sampled_from([0.0, 1e-30, 1e-6, 1.0, 1e6, 1e20, 1e37, _F32_MAX]),
        st.floats(0.0, _F32_MAX)))
    @settings(max_examples=150, deadline=None)
    def test_any_finite_float32_record_gives_103_finite_values(self, data, n, scale):
        """The invariant the deleted wrapper type asserted, as a property:
        channels of noise at any float32 magnitude, or constant."""
        rows = []
        for _ in CHANNEL_ORDER:
            if data.draw(st.booleans(), label="constant"):
                level = data.draw(st.floats(-_F32_MAX, _F32_MAX, width=32),
                                  label="level")
                rows.append(np.full(n, level))
            else:
                seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
                rows.append(scale * np.random.default_rng(seed).uniform(-1.0, 1.0, n))
        record = make_record(n=n, samples=np.stack(rows).astype(np.float32))
        values = extract_features(record)
        assert values.shape == (103,) and np.isfinite(values).all()

    def test_non_finite_feature_refused_with_record_and_name(self, monkeypatch):
        real = features._channel_features

        def pleth_std_nan(x, fs, chan):
            values = real(x, fs, chan)
            if chan is Channel.PLETH:
                values[1] = np.nan
            return values

        monkeypatch.setattr(features, "_channel_features", pleth_std_nan)
        with pytest.raises(ValueError,
                           match=r"record rec-nan has a non-finite feature pleth_std = nan"):
            extract_features(make_record("rec-nan", n=600))

    def test_wrong_channel_count_errors(self):
        r = make_record(channels=(Channel.ECG_II, Channel.ECG_V),
                        samples=np.zeros((2, 600)))
        with pytest.raises(ValueError, match="canonical"):
            extract_features(r)

    def test_missing_channel_error_names_the_record(self):
        r = make_record("rec-17", channels=(Channel.ECG_II, Channel.ECG_V, Channel.PLETH),
                        samples=np.zeros((3, 600)))
        with pytest.raises(ValueError, match=r"record rec-17 has \['ECG_II', "
                                             r"'ECG_V', 'PLETH'\]"):
            extract_features(r)

    def test_identical_channels_correlate_fully(self):
        rng = np.random.default_rng(10)
        row = rng.standard_normal(6000)
        r = make_record(n=6000, samples=np.tile(row, (4, 1)))
        fv = _named(r)
        corr = [v for k, v in fv.items() if k.startswith("corr_")]
        assert len(corr) == 6
        np.testing.assert_allclose(corr, 1.0, atol=1e-9)

    @given(samples=hnp.arrays(np.float32, st.tuples(st.just(4), st.integers(6, 400)),
                              elements=st.floats(-1e3, 1e3, width=32)))
    @example(samples=np.zeros((4, 6), dtype=np.float32))
    @example(samples=np.arange(24, dtype=np.float32).reshape(4, 6) % 5)
    @settings(max_examples=200, deadline=None)
    def test_correlations_equal_pairwise_corrcoef(self, samples):
        """The one 4-channel ``np.corrcoef`` call gives each pair the bits
        of that pair's own call; a flat channel's pairs read 0.0."""
        r = make_record(n=samples.shape[1], samples=samples)
        fv = _named(r)
        for a, b in itertools.combinations(CHANNEL_ORDER, 2):
            name = f"corr_{a.value.lower()}_{b.value.lower()}"
            if min(fv[f"{c.value.lower()}_std"] for c in (a, b)) > features._EPS:
                rows = [r.channel(c).astype(np.float64) for c in (a, b)]
                want = float(np.corrcoef(*rows)[0, 1])
            else:
                want = 0.0
            assert np.float64(fv[name]).tobytes() == np.float64(want).tobytes(), name

    def test_dominant_frequency_of_sinusoid(self):
        n = 15000
        t = np.arange(n) / FS
        r = _record_with(ecg_ii=np.sin(2 * np.pi * 10.0 * t), n=n)
        fv = _named(r)
        assert abs(fv["ecg_ii_dominant_freq"] - 10.0) <= FS / n  # one FFT bin

    def test_flatline_conventions(self):
        r = make_record(n=6000, samples=np.zeros((4, 6000)))
        fv = _named(r)
        for chan in ("ecg_ii", "ecg_v", "pleth", "resp"):
            assert fv[f"{chan}_zcr"] == 0.0
            assert fv[f"{chan}_spectral_entropy"] == 0.0
            assert fv[f"{chan}_dominant_freq"] == 0.0
            assert fv[f"{chan}_snr_db"] == 0.0
        assert fv["rms_ratio_last_first_chunk"] == 0.0
        assert all(v == 0.0 for k, v in fv.items() if k.startswith("corr_"))

    def test_scale_invariant_features(self):
        rng = np.random.default_rng(21)
        samples = rng.standard_normal((4, 6000))
        a = _named(make_record(n=6000, samples=samples))
        b = _named(make_record(n=6000, samples=2.0 * samples))
        invariant = ("zcr", "dominant_freq", "spectral_entropy",
                     "spectral_centroid", "rolloff_85", "hjorth_mobility",
                     "hjorth_complexity", "lag1_autocorr")
        for key in a:
            if key.startswith("corr_") or any(key.endswith(f"_{f}") for f in invariant):
                np.testing.assert_allclose(b[key], a[key], rtol=1e-9, atol=1e-12)
        # documented scalings: mean/std/rms/range double, band powers x4
        for chan in ("ecg_ii", "pleth"):
            np.testing.assert_allclose(b[f"{chan}_rms"], 2 * a[f"{chan}_rms"], rtol=1e-9)
            np.testing.assert_allclose(b[f"{chan}_bandpower_4_15"],
                                       4 * a[f"{chan}_bandpower_4_15"], rtol=1e-9)

    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fewer_than_6_samples_refused_by_name(self, n, seed):
        r = make_record("rec-short", n=n, rng=np.random.default_rng(seed))
        if n < 6:
            with pytest.raises(ValueError,
                               match=rf"at least 6 samples .* record rec-short has {n}$"):
                extract_features(r)
        else:
            values = extract_features(r)
            assert values.shape == (103,) and np.isfinite(values).all()

    @pytest.mark.parametrize("n", [600, 15000])
    def test_moments_match_the_power_formulation(self, n):
        """Skewness and kurtosis come from products of z; they stay within
        1e-12 relative of mean(z ** 3) and mean(z ** 4) - 3 at every DC offset."""
        rng = np.random.default_rng(n)
        t = np.arange(n) / FS
        shape = rng.exponential(1.0, n) + np.sin(2 * np.pi * 1.3 * t)
        offsets = (0.0, 1.0, 100.0, 1e4)
        record = make_record(n=n, samples=np.stack([shape * (1 + i) + dc
                                                    for i, dc in enumerate(offsets)]))
        fv = _named(record)
        for chan, dc in zip(CHANNEL_ORDER, offsets):
            x = record.channel(chan).astype(np.float64)
            z = (x - x.mean()) / x.std()
            name = chan.value.lower()
            np.testing.assert_allclose(fv[f"{name}_skewness"], np.mean(z ** 3),
                                       rtol=1e-12, atol=0, err_msg=f"dc={dc}")
            np.testing.assert_allclose(fv[f"{name}_kurtosis"], np.mean(z ** 4) - 3.0,
                                       rtol=1e-12, atol=0, err_msg=f"dc={dc}")

    def test_equal_first_and_last_chunks_give_ratio_one(self):
        """The ratio compares time chunks across all four channels: equal
        first and last 10 s on every channel give exactly 1.0, however the
        channels' scales differ."""
        rng = np.random.default_rng(31)
        samples = rng.standard_normal((4, 15000)) * np.array([[1.0], [10.0], [0.1], [3.0]])
        samples[:, -2500:] = samples[:, :2500]
        assert _named(make_record(n=15000, samples=samples))[
            "rms_ratio_last_first_chunk"] == 1.0

    @pytest.mark.parametrize("n", [601, 15000, 15001])
    def test_drift_slope_matches_polyfit(self, n):
        """The closed-form slope over the 6 chunk RMS values, at
        ``np.array_split``'s boundaries, is ``np.polyfit``'s to 1e-12."""
        rng = np.random.default_rng(n)
        ramp = np.linspace(0.5, 2.0, n) ** np.array([[1.0], [-1.0], [2.0], [0.5]])
        record = make_record(n=n, samples=ramp * rng.standard_normal((4, n)))
        fv = _named(record)
        for chan in CHANNEL_ORDER:
            x = record.channel(chan).astype(np.float64)
            chunk_rms = [np.sqrt(np.mean(c * c)) for c in np.array_split(x, 6)]
            want = np.polyfit(np.arange(6), chunk_rms, 1)[0]
            np.testing.assert_allclose(fv[f"{chan.value.lower()}_energy_drift_slope"],
                                       want, rtol=1e-12, atol=0)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs 2 usable CPUs for a 2-thread BLAS pool")
    def test_same_bits_at_one_and_two_blas_threads(self):
        """Features and Pan-Tompkins beats of 40 synthetic records have the
        same bytes whether OpenBLAS runs 1 or 2 threads: the block filter
        runs on BLAS."""
        code = ("import hashlib, numpy as np; "
                "from alarmsift.features import detect_beats, extract_features; "
                "from alarmsift.records import Channel, SynthSpec, synth_dataset; "
                "records = synth_dataset(SynthSpec(n=40), seed=3); "
                "x = np.stack([extract_features(r) for r in records]); "
                "beats = [detect_beats(r.channel(Channel.ECG_II), r.fs) "
                "for r in records]; "
                "print(hashlib.sha256(x.tobytes()).hexdigest(), "
                "hashlib.sha256(np.concatenate(beats).tobytes()).hexdigest(), "
                "sum(b.size for b in beats))")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(features.__file__).parents[1]))
            proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True, timeout=300)
            digests.append(proc.stdout)
        assert digests[0] == digests[1]
        assert int(digests[0].split()[2]) > 0

    def test_csv_export(self, small_synth, tmp_path):
        path = tmp_path / "features.csv"
        export_features_csv(small_synth[:3], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["record_id", "alarm_type", "label", *FEATURE_NAMES]
        assert len(rows) == 4
        assert rows[1][0] == small_synth[0].record_id


def _bits(value) -> bytes:
    """A float's 8 bytes: equal bits, the sign of a zero included."""
    return struct.pack("<d", float(value))


_MEDIAN_VALUES = st.one_of(
    st.floats(-1e300, 1e300),  # two middle values sum without overflow
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),  # ties and signed zeros
    st.integers(-3, 3).map(float))


class TestChannelHelpers:
    """The partition median, the slice band power and the RR mean reproduce
    ``np.median``, the boolean-mask sum and ``np.mean`` bit for bit."""

    @given(values=st.lists(_MEDIAN_VALUES, min_size=1, max_size=40))
    @example(values=[-0.0])
    @example(values=[-0.0, -0.0])
    @example(values=[0.0, -0.0, 1.0])
    @example(values=[_F32_MAX, _F32_MAX, -_F32_MAX])
    @settings(max_examples=400, deadline=None)
    def test_median_matches_numpy(self, values):
        v = np.array(values)
        assert _bits(features._median(v)) == _bits(np.median(v))

    @pytest.mark.parametrize("n", [14999, 15000])
    @pytest.mark.parametrize("kind", ["noise", "rounded", "abs-deviation"])
    def test_median_matches_numpy_on_channel_sizes(self, n, kind):
        x = np.random.default_rng(n).standard_normal(n)
        if kind == "rounded":  # heavy ties
            x = np.round(3 * x) / 3
        elif kind == "abs-deviation":  # the MAD's input
            x = np.abs(x - np.median(x))
        assert _bits(features._median(x)) == _bits(np.median(x))

    @given(n=st.integers(6, 3000), fs=st.floats(1.0, 1000.0),
           band=st.tuples(st.floats(-1.0, 600.0), st.floats(-1.0, 600.0)),
           seed=st.integers(0, 2**32 - 1))
    @example(n=15000, fs=250.0, band=(0.5, 4.0), seed=0)
    @example(n=15000, fs=250.0, band=(40.0, 100.0), seed=1)
    @example(n=15000, fs=250.0, band=(0.05, 1.0), seed=2)
    @example(n=100, fs=100.0, band=(5.0, 5.0), seed=3)
    @settings(max_examples=200, deadline=None)
    def test_band_power_matches_the_mask_sum(self, n, fs, band, seed):
        """Bands whose edges fall on a bin, between bins, outside the
        spectrum or in reverse order all sum the masked bins' bits."""
        x = np.random.default_rng(seed).standard_normal(n)
        freqs, power = features._spectrum(x, fs)
        lo, hi = band
        expected = float(power[(freqs >= lo) & (freqs < hi)].sum())
        assert _bits(features._band_power(freqs, power, lo, hi)) == _bits(expected)

    @given(rr=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_rr_mean_matches_numpy(self, rr):
        assert _bits(features._rr_mean(rr)) == _bits(np.mean(rr))


def synthetic_ecg_train(bpm, duration=60.0, fs=FS, snr_db=20.0, seed=0):
    """Impulse-train ECG with known beat count and additive white noise."""
    rng = np.random.default_rng(seed)
    n = int(duration * fs)
    t = np.arange(n) / fs
    x = np.zeros(n)
    period = 60.0 / bpm
    beat_times = np.arange(0.5, duration, period)
    for bt in beat_times:
        u = (t - bt) / 0.02
        x += np.exp(-0.5 * u * u)
    power = np.mean(x ** 2)
    noise_power = power / (10 ** (snr_db / 10.0))
    x += np.sqrt(noise_power) * rng.standard_normal(n)
    return x, len(beat_times)


# The seed's candidate loop and per-beat refinement on scipy's find_peaks,
# with the flat-signal floor, kept as the reference that detect_beats's peak
# picking, Python-float loop and windowed argmax must reproduce.  ``bp`` is
# the bandpassed signal, scipy's filtfilt unless given.  ``rr_sizes``
# collects the length of every RR list averaged.

def _ref_detect_beats(signal, fs, rr_sizes=None, bp=None):
    x = np.asarray(signal, dtype=np.float64)
    if bp is None:
        bp = filtfilt(*features._bandpass(fs)[:2], x)
    deriv = np.convolve(bp, features._DERIVATIVE_KERNEL, mode="same")
    squared = deriv * deriv
    window = max(1, int(features._INTEGRATION_WINDOW_S * fs))
    mwi = np.convolve(squared, np.ones(window) / window, mode="same")

    refractory = int(features._REFRACTORY_S * fs)
    candidates, _ = find_peaks(mwi, distance=refractory + 1)
    floor = (features._FLAT_FLOOR * np.abs(x).max()) ** 2
    candidates = candidates[mwi[candidates] > floor]

    warmup = mwi[: int(2 * fs)]
    spki = 0.25 * float(warmup.max())
    npki = 0.5 * float(warmup.mean())
    accepted = []
    rr_hist = []

    def note_rr(idx):
        if accepted:
            rr_hist.append((idx - accepted[-1]) / fs)
            del rr_hist[:-8]

    def rr_mean():
        if rr_sizes is not None:
            rr_sizes.append(len(rr_hist))
        return float(np.mean(rr_hist))

    for idx in candidates:
        peak = mwi[idx]
        thr1 = npki + features._THRESHOLD_FRACTION * (spki - npki)
        if peak > thr1:
            note_rr(idx)
            accepted.append(int(idx))
            spki = features._PEAK_UPDATE * peak + (1 - features._PEAK_UPDATE) * spki
        else:
            missed = (accepted and rr_hist
                      and (idx - accepted[-1]) / fs >
                      features._SEARCHBACK_RR_FACTOR * rr_mean())
            if missed and peak > features._SEARCHBACK_FRACTION * thr1:
                note_rr(idx)
                accepted.append(int(idx))
                spki = 0.25 * peak + 0.75 * spki
            else:
                npki = features._PEAK_UPDATE * peak + (1 - features._PEAK_UPDATE) * npki

    refined = []
    for idx in accepted:
        lo = max(0, idx - window)
        j = lo + int(np.argmax(np.abs(bp[lo:idx + 1])))
        if not refined or j - refined[-1] > refractory:
            refined.append(j)
    return np.asarray(refined, dtype=np.int64)


@st.composite
def _beat_signals(draw, rates=st.floats(31.0, 1000.0)):
    """A signal and its rate for detect_beats: a rate from ``rates``
    (31-1000 Hz), 2-40 s, one of noise over six decades of scale,
    integer-rounded plateaus, a flatline, or an impulse-train ECG at
    40-200 bpm."""
    fs = draw(rates)
    duration = draw(st.floats(2.0, 40.0))
    n = int(duration * fs)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["noise", "plateaus", "flat", "ecg"]))
    if kind == "noise":
        x = 10.0 ** draw(st.floats(-3.0, 3.0)) * rng.standard_normal(n)
    elif kind == "plateaus":
        step = draw(st.integers(1, int(fs)))
        x = np.repeat(np.round(5 * rng.standard_normal(n // step + 1)), step)[:n]
    elif kind == "flat":
        x = np.full(n, draw(st.sampled_from([0.0, 1.0, -3.5])))
    else:
        x, _ = synthetic_ecg_train(draw(st.floats(40.0, 200.0)), duration=duration,
                                   fs=fs, snr_db=draw(st.floats(0.0, 30.0)), seed=seed)
    return x, fs


# ECG trains long enough that the search-back averages a full 8-interval RR list
_EIGHT_RR_CASES = [(synthetic_ecg_train(bpm, duration=40.0, fs=fs, snr_db=snr,
                                        seed=seed)[0], fs)
                   for bpm, fs, snr, seed in ((45, 250.0, 10.0, 1),
                                              (120, 1000.0, 5.0, 2),
                                              (40, 100.0, 3.0, 3))]


class TestDetectBeats:
    @pytest.mark.parametrize("bpm", [60, 90, 120])
    def test_beat_count_within_two(self, bpm):
        x, truth = synthetic_ecg_train(bpm, snr_db=20.0, seed=bpm)
        beats = detect_beats(x, FS)
        assert beats.dtype == np.int64
        assert abs(beats.size - truth) <= 2, (bpm, beats.size, truth)

    @given(case=_beat_signals())
    @example(case=_EIGHT_RR_CASES[0])
    @example(case=_EIGHT_RR_CASES[1])
    @example(case=_EIGHT_RR_CASES[2])
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_candidate_reference(self, case):
        """Bit for bit with the reference on scipy's filtfilt, and with the
        reference on detect_beats' own bandpassed signal.  40 Hz is left to
        the next test."""
        x, fs = case
        assume(fs != 40.0)
        beats = detect_beats(x, fs)
        assert beats.dtype == np.int64
        assert np.array_equal(beats, _ref_detect_beats(x, fs))
        bp = features._filtfilt(features._bandpass(fs), x)
        assert np.array_equal(beats, _ref_detect_beats(x, fs, bp=bp))

    @given(case=_beat_signals(rates=st.just(40.0)))
    @settings(max_examples=100, deadline=None)
    def test_band_centred_on_a_quarter_of_fs(self, case):
        """At 40 Hz the 5-15 Hz band is centred on fs / 4: ``a`` holds only
        even powers of z^-1, up to rounding, so the filter runs on even and
        odd samples apart, and a signal held for 2 or 4 samples gives pairs
        of bandpassed magnitudes equal in exact arithmetic.  The refinement
        then takes whichever sample each filter's last bit favours, so the
        beats of a held signal may differ from scipy's filter's.  They match
        the reference bit for bit on detect_beats' own bandpassed signal,
        and on scipy's wherever no sample repeats the one before it."""
        x, fs = case
        f = features._bandpass(fs)
        assert np.abs(f.a[1::2]).max() < 1e-15
        beats = detect_beats(x, fs)
        bp = features._filtfilt(f, x)
        assert np.array_equal(beats, _ref_detect_beats(x, fs, bp=bp))
        if (x[1:] != x[:-1]).all():
            assert np.array_equal(beats, _ref_detect_beats(x, fs))

    def test_reference_cases_average_eight_rr_intervals(self):
        """The property's examples reach the 8-interval pairwise sum."""
        for x, fs in _EIGHT_RR_CASES:
            sizes = []
            expected = _ref_detect_beats(x, fs, sizes)
            assert 8 in sizes and max(sizes) == 8
            assert np.array_equal(detect_beats(x, fs), expected)

    @pytest.mark.parametrize("fs", [100.0, 250.0])
    @pytest.mark.parametrize("shift", [-2, -1, 0, 1])
    def test_beat_at_the_integration_window_matches_the_reference(self, fs, shift):
        """An impulse puts the first integration peak at ``window + shift``:
        before ``window`` the refinement searches from sample 0, from
        ``window`` on it takes the window ending at the peak."""
        window = int(features._INTEGRATION_WINDOW_S * fs)
        x = np.zeros(int(4 * fs))
        x[window + shift] = x[window + shift + int(fs)] = 1.0
        beats = detect_beats(x, fs)
        assert beats.size == 2
        assert np.array_equal(beats, _ref_detect_beats(x, fs))

    def test_flatline_no_beats(self):
        beats = detect_beats(np.zeros(int(60 * FS)), FS)
        assert beats.size == 0 and beats.dtype == np.int64

    @pytest.mark.parametrize("fs", [31.0, 100.0, 250.0, 360.0, 1000.0])
    @pytest.mark.parametrize("level", [1.0, 0.5, -0.3, 1e-3, -7e4, 1e-300])
    def test_constant_at_any_level_no_beats(self, fs, level):
        """A lead-off or asystole flatline sits at a DC offset: its
        bandpassed signal is rounding noise, and none of it is a beat."""
        beats = detect_beats(np.full(int(60 * fs), level), fs)
        assert beats.size == 0 and beats.dtype == np.int64

    def test_refractory_merges_close_impulses(self):
        x = np.zeros(int(4 * FS))
        x[500] = 1.0
        x[500 + int(0.1 * FS)] = 1.0  # 100 ms later, inside refractory
        beats = detect_beats(x, FS)
        assert beats.size == 1

    def test_two_beats_outside_refractory(self):
        x = np.zeros(int(4 * FS))
        x[400] = 1.0
        x[400 + int(0.8 * FS)] = 1.0
        beats = detect_beats(x, FS)
        assert beats.size == 2

    def test_gaps_exceed_refractory(self):
        x, _ = synthetic_ecg_train(120, snr_db=15.0, seed=5)
        beats = detect_beats(x, FS)
        assert (np.diff(beats) > int(0.2 * FS)).all()

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="2 seconds"):
            detect_beats(np.zeros(100), FS)

    def test_param_validation(self):
        """At 25 Hz the 15 Hz band edge lies above Nyquist."""
        with pytest.raises(ValueError, match=r"fs=25\.0"):
            detect_beats(np.zeros(5000), 25.0)

    def test_infinite_rate_refused_by_name(self):
        with pytest.raises(ValueError, match=r"finite fs .* got fs=inf"):
            detect_beats(np.zeros(5000), math.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_refused(self, bad):
        x, _ = synthetic_ecg_train(60, seed=1)
        x[1234] = bad
        with pytest.raises(ValueError, match=rf"finite signal; sample 1234 is {bad}"):
            detect_beats(x, FS)

    def test_bandpass_designed_once_per_rate(self, tmp_path):
        """250, 500 then 250 Hz in one process give the beats that a fresh
        process gives at each rate, and design two filters."""
        signals = {fs: synthetic_ecg_train(75, duration=12.0, fs=fs, seed=int(fs))[0]
                   for fs in (250.0, 500.0)}
        features._bandpass.cache_clear()
        in_process = [(fs, detect_beats(signals[fs], fs))
                      for fs in (250.0, 500.0, 250.0)]
        info = features._bandpass.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

        env = dict(os.environ, PYTHONPATH=str(Path(features.__file__).parents[1]))
        code = ("import sys, numpy as np; from alarmsift.features import detect_beats; "
                "np.save(sys.argv[2], detect_beats(np.load(sys.argv[1]), "
                "float(sys.argv[3])))")
        fresh = {}
        for fs, x in signals.items():
            np.save(tmp_path / f"x{fs}.npy", x)
            subprocess.run([sys.executable, "-c", code, str(tmp_path / f"x{fs}.npy"),
                            str(tmp_path / f"beats{fs}.npy"), str(fs)],
                           check=True, env=env, timeout=120)
            fresh[fs] = np.load(tmp_path / f"beats{fs}.npy")
        for fs, indices in in_process:
            assert indices.size > 0
            assert np.array_equal(indices, fresh[fs]), fs

    @pytest.mark.parametrize("fs", [2500.0, 4000.0, 10000.0])
    def test_high_rate_matches_the_reference(self, fs):
        """Above 2000 Hz the block filter convolves by FFT; the beats of an
        ECG train still equal the reference's on scipy's filtfilt."""
        x, truth = synthetic_ecg_train(75, duration=20.0, fs=fs, seed=int(fs))
        beats = detect_beats(x, fs)
        assert abs(beats.size - truth) <= 2
        assert np.array_equal(beats, _ref_detect_beats(x, fs))

    @given(fs=st.floats(max_value=30.0))
    @example(fs=30.0)
    @example(fs=0.0)
    @settings(max_examples=30, deadline=None)
    def test_low_rate_refused_without_a_filter(self, fs):
        before = features._bandpass.cache_info()
        with pytest.raises(ValueError, match=re.escape(f"fs={fs}")):
            detect_beats(np.zeros(5000), fs)
        after = features._bandpass.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)


# Rates from the lowest detect_beats takes up to 10 kHz, the common ECG
# rates among them; at 40 Hz the band is centred on fs / 4, and above
# 2000 Hz the block filter convolves by FFT.
_RATES = [30.000001, 31.0, 33.3, 40.0, 62.5, 100.0, 125.0, 128.0, 200.0, 250.0,
          256.0, 257.0, 300.0, 360.0, 500.0, 777.7, 1000.0, 1024.0, 1500.0, 2000.0,
          2500.0, 4000.0, 10000.0]


@st.composite
def _plateau_arrays(draw):
    """Short arrays of a few levels, each held for 1-3 samples: plateaus,
    equal heights and ties everywhere."""
    levels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=60))
    holds = draw(st.lists(st.integers(1, 3), min_size=len(levels),
                          max_size=len(levels)))
    return np.repeat(np.array(levels, dtype=np.float64), holds)


def _long_double_filtfilt(f, x):
    """scipy's filtfilt recurrence, sample by sample, in long double."""
    b, a = f.b.astype(np.longdouble), f.a.astype(np.longdouble)

    def lfilter(x, z):
        y = np.empty(x.size, dtype=np.longdouble)
        for n, xn in enumerate(x):
            y[n] = yn = z[0] + b[0] * xn
            z = np.append(z[1:], 0) + b[1:] * xn - a[1:] * yn
        return y

    pad = 3 * b.size
    ext = np.concatenate((2 * x[0] - x[pad:0:-1], x, 2 * x[-1] - x[-2:-pad - 2:-1]))
    ext = ext.astype(np.longdouble)
    y = lfilter(ext, f.zi.astype(np.longdouble) * ext[0])
    y = lfilter(y[::-1], f.zi.astype(np.longdouble) * y[-1])
    return y[::-1][pad:-pad].astype(np.float64)


class TestBandpassOracle:
    """The numpy Pan-Tompkins filter and peak picking against scipy."""

    @pytest.mark.parametrize("fs", _RATES)
    def test_design_and_steady_state_match_scipy_bit_for_bit(self, fs):
        f = features._bandpass(fs)
        b, a = butter(2, features._BAND_HZ, btype="bandpass", fs=fs)
        for ours, theirs in ((f.b, b), (f.a, a), (f.zi, lfilter_zi(b, a))):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()

    @staticmethod
    def _signals(fs, seconds):
        """ECG, noise, and a random walk whose drift the band removes."""
        rng = np.random.default_rng(int(fs))
        n = int(seconds * fs)
        ecg, _ = synthetic_ecg_train(75, duration=seconds, fs=fs, seed=int(fs))
        return (1.2 * ecg / np.abs(ecg).max(), rng.standard_normal(n),
                np.cumsum(rng.standard_normal(n)))

    @pytest.mark.parametrize("fs", [r for r in _RATES if r <= 500.0])
    def test_filtfilt_within_1e_12_of_scipy(self, fs):
        f = features._bandpass(fs)
        for x in self._signals(fs, 20.0):
            err = np.abs(features._filtfilt(f, x) - filtfilt(f.b, f.a, x)).max()
            assert err <= 1e-12 * np.abs(x).max(), (fs, err)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="needs a long double wider than float64")
    @pytest.mark.parametrize("fs", [r for r in _RATES if r > 500.0])
    def test_filtfilt_rounds_no_worse_than_scipy(self, fs):
        """Above 500 Hz the poles crowd towards 1, and scipy's own recurrence
        drifts from the exact result by more than 1e-12 of the input.
        Against a long double recurrence, the block filter's worst error
        over the rate's signals stays within twice scipy's."""
        f = features._bandpass(fs)
        ours, theirs = [], []
        for x in self._signals(fs, 5.0):
            exact = _long_double_filtfilt(f, x)
            ours.append(np.abs(features._filtfilt(f, x) - exact).max() / np.abs(x).max())
            theirs.append(np.abs(filtfilt(f.b, f.a, x) - exact).max() / np.abs(x).max())
        assert max(ours) <= 2 * max(theirs), (fs, ours, theirs)

    @pytest.mark.parametrize("fs", [250.0, 2000.0, 2500.0, 10000.0])
    def test_plan_decays_and_grows_as_l_above_the_toeplitz_limit(self, fs):
        f = features._bandpass(fs)
        size = len(f.carry)
        assert np.abs(f.step).max() <= features._CARRY_DECAY
        if size <= features._MAX_TOEPLITZ:
            assert f.zero_state.shape == (size, size)
        else:
            assert f.zero_state is None
            assert sum(arr.size for arr in f if arr is not None) < 10 * size

    @given(x=_plateau_arrays(), distance=st.integers(1, 8))
    @example(x=np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]), distance=3)
    @example(x=np.zeros(1), distance=1)
    @settings(max_examples=2000, deadline=None)
    def test_peaks_match_scipy_find_peaks(self, x, distance):
        """Flat-top midpoints, then greedy selection in np.argsort's
        order, ties included."""
        want, _ = find_peaks(x, distance=distance)
        got = features._find_peaks(x, distance)
        assert got.dtype == np.int64 and np.array_equal(got, want)


# The seed's per-beat loop and logistic loop, kept as references: the
# vectorized beat windows and the buffered fit must reproduce them bit for bit.

def _ref_beat_features(signal, indices, fs):
    x = np.asarray(signal, dtype=np.float64)
    if indices.size >= 2:
        rr = np.diff(indices) / fs
        rr_stats = [float(rr.mean()), float(rr.std()),
                    float(rr.min()), float(rr.max())]
    else:
        rr_stats = [0.0, 0.0, 0.0, 0.0]
    half_win = max(1, int(0.1 * fs))
    amps, widths = [], []
    for idx in indices:
        lo, hi = max(0, idx - half_win), min(x.size, idx + half_win + 1)
        seg = x[lo:hi]
        baseline = float(np.median(seg))
        dev = np.abs(seg - baseline)
        amp = float(dev.max())
        amps.append(amp)
        if amp > 1e-12:
            above = dev >= 0.5 * amp
            center = int(np.argmax(dev))
            left = center
            while left > 0 and above[left - 1]:
                left -= 1
            right = center
            while right < above.size - 1 and above[right + 1]:
                right += 1
            widths.append((right - left + 1) / fs)
        else:
            widths.append(0.0)
    amp_mean = float(np.mean(amps)) if amps else 0.0
    amp_std = float(np.std(amps)) if amps else 0.0
    width_mean = float(np.mean(widths)) if widths else 0.0
    return np.array([*rr_stats, float(indices.size), amp_mean, amp_std, width_mean])


def _ref_linear_classifier_fit(features, labels, seed=0):
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    cw = class_weights(y)
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma = np.where(sigma > 1e-12, sigma, 1.0)
    z = (x - mu) / sigma
    sample_w = np.where(y, cw.w_true, cw.w_false)
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1e-3, size=z.shape[1])
    b = 0.0
    t = y.astype(np.float64)
    for _ in range(800):
        p = 1.0 / (1.0 + np.exp(-(z @ w + b)))
        g = sample_w * (p - t) / y.size
        w -= 0.05 * (z.T @ g)
        b -= 0.05 * float(g.sum())
    return LinearModel(weights=w, bias=b, mu=mu, sigma=sigma)


@st.composite
def _beat_cases(draw):
    """A signal, strictly increasing beat indices on it and its rate, many of them within
    0.1 s of an end (clipped, possibly even-length windows), on noise, a DC
    offset, tied (quantized) values, flat stretches, or a flat signal whose
    amplitude stays <= 1e-12."""
    fs = draw(st.sampled_from([100.0, 250.0, 500.0]))
    half_win = max(1, int(0.1 * fs))
    n = draw(st.integers(1, 8 * half_win))
    near_end = st.one_of(st.integers(0, min(half_win, n - 1)),
                         st.integers(max(0, n - 1 - half_win), n - 1))
    indices = draw(st.lists(st.one_of(near_end, st.integers(0, n - 1)),
                            max_size=10, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "offset", "quantized", "stretches", "flat"]))
    x = rng.standard_normal(n)
    if kind == "offset":  # x - baseline is exact, so a baseline's last bit shows
        x = 10.0 + 1e-3 * x
    elif kind == "quantized":
        x = np.round(2 * x)
    elif kind == "stretches":
        for lo in rng.integers(0, n, size=3):
            x[lo:lo + 2 * half_win] = x[lo]
    elif kind == "flat":
        x = draw(st.sampled_from([0.0, 1.0, -3.5])) + draw(
            st.sampled_from([0.0, 1e-14])) * x
    indices = np.array(sorted(indices), dtype=np.int64)
    return x, indices, fs


class TestBeatFeatures:
    @given(case=_beat_cases())
    @example(case=(np.zeros(100), np.empty(0, dtype=np.int64), FS))
    @example(case=(np.r_[np.zeros(50), 1.0, np.zeros(49)], np.array([50]), FS))
    @example(case=(np.r_[1.0, np.zeros(98), 1.0], np.array([0, 99]), FS))
    @example(case=(2.0 + 1e-14 * np.random.default_rng(1).standard_normal(500),
                   np.array([3, 250, 497]), FS))
    @example(case=(np.r_[0.0, 1.0, 3.0, 1.0, np.zeros(96)], np.array([2, 60]), 1e4))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_beat_reference(self, case):
        x, indices, fs = case
        assert np.array_equal(beat_features(x, indices, fs),
                              _ref_beat_features(x, indices, fs))

    @pytest.mark.parametrize("index", [-1, 100])
    def test_beat_outside_the_signal_refused(self, index):
        with pytest.raises(ValueError, match=r"beat indices .* signal's 100 samples"):
            beat_features(np.zeros(100), np.array([index]), FS)

    def test_metronomic_60_bpm_constructed(self):
        x, _ = synthetic_ecg_train(60, snr_db=40.0, seed=3)
        indices = np.arange(125, x.size, int(FS))  # exactly one beat per second
        v = dict(zip(BEAT_FEATURE_NAMES, beat_features(x, indices, FS)))
        assert v["rr_mean"] == 1.0
        assert v["rr_std"] == 0.0
        assert v["beat_count"] == indices.size

    def test_rr_comes_from_the_indices_and_rate(self):
        """Three beats 1 s apart at 250 Hz give RR 1 s, and the same indices
        read at 125 Hz give 2 s: no stored RR can disagree with them."""
        x = np.zeros(1000)
        indices = np.array([100, 350, 600])
        assert beat_features(x, indices, FS)[:4].tolist() == [1.0, 0.0, 1.0, 1.0]
        assert beat_features(x, indices, FS / 2)[:4].tolist() == [2.0, 0.0, 2.0, 2.0]

    def test_detected_beats_near_metronomic(self):
        x, _ = synthetic_ecg_train(60, snr_db=40.0, seed=3)
        beats = detect_beats(x, FS)
        v = dict(zip(BEAT_FEATURE_NAMES, beat_features(x, beats, FS)))
        assert abs(v["rr_mean"] - 1.0) < 0.02
        assert v["rr_std"] < 0.06  # lobe-picking jitter stays below ~1 sample pair
        assert v["beat_count"] == beats.size

    def test_fewer_than_two_beats_convention(self):
        x = np.zeros(1000)
        x[300:310] = 1.0
        v = dict(zip(BEAT_FEATURE_NAMES, beat_features(x, np.array([305]), FS)))
        assert v["rr_mean"] == 0.0 and v["rr_max"] == 0.0
        assert v["beat_count"] == 1.0
        assert v["amp_mean"] > 0.0

    def test_amplitude_homogeneity(self):
        x, _ = synthetic_ecg_train(75, snr_db=30.0, seed=9)
        beats = detect_beats(x, FS)
        a = dict(zip(BEAT_FEATURE_NAMES, beat_features(x, beats, FS)))
        b = dict(zip(BEAT_FEATURE_NAMES, beat_features(2.0 * x, beats, FS)))
        np.testing.assert_allclose(b["amp_mean"], 2 * a["amp_mean"], rtol=1e-9)
        np.testing.assert_allclose(b["amp_std"], 2 * a["amp_std"], rtol=1e-9)
        assert b["rr_mean"] == a["rr_mean"]
        assert b["width_mean"] == a["width_mean"]

    def test_window_wider_than_any_signal(self):
        """At fs = 1e300 each beat's window is the whole signal, as at 1e4;
        the window was sized from fs alone and failed to allocate."""
        x = np.r_[0.0, 1.0, 3.0, 1.0, np.zeros(96)]
        wide = beat_features(x, np.array([2, 60]), 1e4)
        huge = beat_features(x, np.array([2, 60]), 1e300)
        assert np.isfinite(huge).all()
        assert huge[4:7].tolist() == wide[4:7].tolist() == [2.0, 3.0, 0.0]

    def test_strictly_increasing_enforced(self):
        for indices in ([10, 10], [10, 20, 15]):
            with pytest.raises(ValueError, match="strictly increasing"):
                beat_features(np.zeros(100), np.array(indices), FS)

    @pytest.mark.parametrize("indices", [np.array([[10, 20]]), np.array(5),
                                         np.array([10.0, 20.0]), np.array([True])])
    def test_indices_not_an_integer_vector_refused(self, indices):
        with pytest.raises(ValueError, match="1-D integer vector of beat indices"):
            beat_features(np.zeros(100), indices, FS)

    @pytest.mark.parametrize("fs", [0.0, -250.0, math.nan, math.inf])
    def test_bad_rate_refused_by_name(self, fs):
        with pytest.raises(ValueError, match=re.escape(f"finite fs > 0, got fs={fs}")):
            beat_features(np.zeros(100), np.array([10, 60]), fs)


def _fit_one(features, labels, seed=0):
    (model,) = linear_classifier_fit([(features, labels, seed)])
    return model


@st.composite
def _fit_batches(draw):
    """1-8 problems of one width: 2-60 rows each, up to 3 constant columns,
    columns at scales 1e-3 to 1e3, both classes, seeds 0-49."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(1, 111))
    problems = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(2, 60))
        x = rng.standard_normal((n, f)) * rng.choice([1e-3, 1.0, 1e3], size=f)
        x[:, :min(draw(st.integers(0, 3)), f)] = 7.0  # sigma 1 by convention
        labels = rng.random(n) < 0.5
        labels[:2] = (True, False)
        problems.append((x, labels, draw(st.integers(0, 49))))
    return problems


class TestLinearClassifier:
    @given(problems=_fit_batches(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_allocating_reference(self, problems, data):
        """Each model of a batch is the one its problem gets alone, bit for
        bit, and a permuted batch gives the same models, permuted."""
        models = linear_classifier_fit(problems)
        assert len(models) == len(problems)
        for got, (x, labels, fit_seed) in zip(models, problems):
            ref = _ref_linear_classifier_fit(x, labels, seed=fit_seed)
            for name in ("weights", "mu", "sigma"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert got.bias == ref.bias
        perm = data.draw(st.permutations(range(len(problems))))
        permuted = linear_classifier_fit([problems[i] for i in perm])
        for got, i in zip(permuted, perm):
            assert np.array_equal(got.weights, models[i].weights)
            assert got.bias == models[i].bias

    def test_each_model_owns_its_weights(self):
        rng = np.random.default_rng(6)
        problems = [(rng.standard_normal((10, 3)), np.arange(10) % 2 == 0, s)
                    for s in range(3)]
        models = linear_classifier_fit(problems)
        assert all(m.weights.base is None for m in models)

    def test_empty_batch(self):
        assert linear_classifier_fit([]) == []

    def test_mixed_widths_refused_with_the_index(self):
        rng = np.random.default_rng(7)
        labels = np.arange(10) % 2 == 0
        problems = [(rng.standard_normal((10, f)), labels, 0) for f in (3, 3, 4)]
        with pytest.raises(ValueError, match=re.escape(
                "one column count for every problem: problem 0 has 3, "
                "problem 2 has 4")):
            linear_classifier_fit(problems)

    @pytest.mark.parametrize("bad, message", [
        ((np.zeros((10, 3)), np.arange(8) % 2 == 0, 0), "one label per row: 10 rows"),
        ((np.zeros((4, 3)), [True] * 4, 0), "both classes present"),
        ((np.full((10, 3), np.nan), np.arange(10) % 2 == 0, 0), "needs finite features"),
        ((np.zeros(10), np.arange(10) % 2 == 0, 0), "non-empty"),
    ])
    def test_bad_problem_refused_with_its_index(self, bad, message):
        good = (np.random.default_rng(8).standard_normal((10, 3)),
                np.arange(10) % 2 == 0, 0)
        with pytest.raises(ValueError, match=rf"{message}.* \(problem 2\)$"):
            linear_classifier_fit([good, good, bad, good])

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (2.5, "seed must be an integer, got 2.5"),
        (True, "seed must be an integer, got True"),
        (None, "seed must be an integer, got None"),
    ])
    def test_bad_seed_refused_with_its_index(self, seed, message):
        """A seed numpy cannot take is refused by name before any fit,
        with the index of its problem."""
        rng = np.random.default_rng(9)
        labels = np.arange(10) % 2 == 0
        problems = [(rng.standard_normal((10, 3)), labels, s) for s in (0, seed)]
        with pytest.raises(ValueError, match=rf"^{re.escape(message)} \(problem 1\)$"):
            linear_classifier_fit(problems)

    def test_separable_toy_perfect_training_auc(self):
        rng = np.random.default_rng(1)
        n = 40
        labels = np.arange(n) % 2 == 0
        x = np.column_stack([labels + 0.05 * rng.standard_normal(n),
                             rng.standard_normal(n)])
        model = _fit_one(x, labels)
        scores = linear_classifier_predict(model, x)
        assert auc(scores, labels) == 1.0

    def test_shuffled_labels_near_chance_cv(self):
        rng = np.random.default_rng(8)
        n = 120
        x = rng.standard_normal((n, 5))
        labels = rng.permutation(np.arange(n) % 2 == 0)
        fa = stratified_kfold(labels, 4, seed=2)
        oof = np.empty(n)
        for f in range(4):
            tr, te = fa.train_indices(f), fa.test_indices(f)
            model = _fit_one(x[tr], labels[tr])
            oof[te] = linear_classifier_predict(model, x[te])
        assert 0.35 <= auc(oof, labels) <= 0.65

    def test_duplicated_rows_same_decision_function(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4))
        labels = rng.random(30) < 0.4
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        m1 = _fit_one(x, labels)
        m2 = _fit_one(np.vstack([x, x]), np.concatenate([labels, labels]))
        np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-12)
        np.testing.assert_allclose(m1.bias, m2.bias, atol=1e-12)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            _fit_one(np.zeros((4, 2)), [True] * 4)

    def test_scores_in_unit_interval(self, small_synth):
        feats = np.stack([extract_features(r) for r in small_synth])
        labels = np.array([r.label for r in small_synth])
        model = _fit_one(feats, labels)
        scores = linear_classifier_predict(model, feats)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_one_label_per_row_required(self):
        with pytest.raises(ValueError, match=r"one label per row: 10 rows, "
                                             r"labels of shape \(8,\)"):
            _fit_one(np.zeros((10, 3)), np.arange(8) % 2 == 0)

    @pytest.mark.parametrize("x", [np.zeros(10), np.zeros((0, 3)), np.zeros((10, 0))])
    def test_fit_needs_a_non_empty_matrix(self, x):
        with pytest.raises(ValueError, match=r"linear_classifier_fit needs a "
                                             r"non-empty \(N, F\) feature matrix"):
            _fit_one(x, np.arange(x.shape[0]) % 2 == 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_refused(self, bad):
        x = np.random.default_rng(2).standard_normal((10, 3))
        x[4, 1] = bad
        with pytest.raises(ValueError, match=rf"finite features; row 4, column 1 is {bad}"):
            _fit_one(x, np.arange(10) % 2 == 0)

    def test_predict_needs_the_model_width(self):
        rng = np.random.default_rng(3)
        model = _fit_one(rng.standard_normal((10, 3)), np.arange(10) % 2 == 0)
        with pytest.raises(ValueError, match="model's 3 feature columns, got 2"):
            linear_classifier_predict(model, rng.standard_normal((10, 2)))
        x = rng.standard_normal((10, 3))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="linear_classifier_predict needs finite"):
            linear_classifier_predict(model, x)
