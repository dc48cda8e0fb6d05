import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import alarmsift.features as features
from alarmsift.features import (BEAT_FEATURE_NAMES, FEATURE_NAMES,
                                BeatAnnotations, FeatureVector, LinearModel,
                                beat_features, detect_beats,
                                export_features_csv, extract_features,
                                linear_classifier_fit,
                                linear_classifier_predict)
from alarmsift.records import CHANNEL_ORDER, Channel, class_weights
from alarmsift.stats import auc, stratified_kfold
from conftest import make_record

FS = 250.0


def _record_with(ecg_ii=None, n=15000, rng=None, **kwargs):
    rng = rng or np.random.default_rng(0)
    samples = 0.1 * rng.standard_normal((4, n))
    if ecg_ii is not None:
        samples[0] = ecg_ii
    return make_record(n=n, samples=samples, **kwargs)


class TestFeatureRegistry:
    def test_exactly_103_unique_names(self):
        assert len(FEATURE_NAMES) == 103
        assert len(set(FEATURE_NAMES)) == 103

    def test_correlation_pairs_in_channel_order(self):
        assert [n for n in FEATURE_NAMES if n.startswith("corr_")] == [
            "corr_ecg_ii_ecg_v", "corr_ecg_ii_pleth", "corr_ecg_ii_resp",
            "corr_ecg_v_pleth", "corr_ecg_v_resp", "corr_pleth_resp"]
        assert FEATURE_NAMES.index("corr_ecg_ii_ecg_v") == 96

    def test_vector_length_enforced(self):
        with pytest.raises(ValueError):
            FeatureVector(np.zeros(10))
        with pytest.raises(ValueError):
            FeatureVector(np.full(103, np.nan))


class TestExtractFeatures:
    def test_exactly_103_finite_values(self, small_synth):
        fv = extract_features(small_synth[0])
        assert fv.values.shape == (103,)
        assert np.isfinite(fv.values).all()

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
        fv = extract_features(r).as_dict()
        corr = [v for k, v in fv.items() if k.startswith("corr_")]
        assert len(corr) == 6
        np.testing.assert_allclose(corr, 1.0, atol=1e-9)

    def test_dominant_frequency_of_sinusoid(self):
        n = 15000
        t = np.arange(n) / FS
        r = _record_with(ecg_ii=np.sin(2 * np.pi * 10.0 * t), n=n)
        fv = extract_features(r).as_dict()
        assert abs(fv["ecg_ii_dominant_freq"] - 10.0) <= FS / n  # one FFT bin

    def test_flatline_conventions(self):
        r = make_record(n=6000, samples=np.zeros((4, 6000)))
        fv = extract_features(r).as_dict()
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
        a = extract_features(make_record(n=6000, samples=samples)).as_dict()
        b = extract_features(make_record(n=6000, samples=2.0 * samples)).as_dict()
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
            values = extract_features(r).values
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
        fv = extract_features(record).as_dict()
        for chan, dc in zip(CHANNEL_ORDER, offsets):
            x = record.channel(chan).astype(np.float64)
            z = (x - x.mean()) / x.std()
            name = chan.value.lower()
            np.testing.assert_allclose(fv[f"{name}_skewness"], np.mean(z ** 3),
                                       rtol=1e-12, atol=0, err_msg=f"dc={dc}")
            np.testing.assert_allclose(fv[f"{name}_kurtosis"], np.mean(z ** 4) - 3.0,
                                       rtol=1e-12, atol=0, err_msg=f"dc={dc}")

    def test_csv_export(self, small_synth, tmp_path):
        path = tmp_path / "features.csv"
        export_features_csv(small_synth[:3], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["record_id", "alarm_type", "label", *FEATURE_NAMES]
        assert len(rows) == 4
        assert rows[1][0] == small_synth[0].record_id


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


class TestDetectBeats:
    @pytest.mark.parametrize("bpm", [60, 90, 120])
    def test_beat_count_within_two(self, bpm):
        x, truth = synthetic_ecg_train(bpm, snr_db=20.0, seed=bpm)
        beats = detect_beats(x, FS)
        assert abs(beats.n_beats - truth) <= 2, (bpm, beats.n_beats, truth)

    def test_flatline_no_beats(self):
        beats = detect_beats(np.zeros(int(60 * FS)), FS)
        assert beats.n_beats == 0

    def test_refractory_merges_close_impulses(self):
        x = np.zeros(int(4 * FS))
        x[500] = 1.0
        x[500 + int(0.1 * FS)] = 1.0  # 100 ms later, inside refractory
        beats = detect_beats(x, FS)
        assert beats.n_beats == 1

    def test_two_beats_outside_refractory(self):
        x = np.zeros(int(4 * FS))
        x[400] = 1.0
        x[400 + int(0.8 * FS)] = 1.0
        beats = detect_beats(x, FS)
        assert beats.n_beats == 2

    def test_gaps_exceed_refractory(self):
        x, _ = synthetic_ecg_train(120, snr_db=15.0, seed=5)
        beats = detect_beats(x, FS)
        assert (np.diff(beats.indices) > int(0.2 * FS)).all()

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="2 seconds"):
            detect_beats(np.zeros(100), FS)

    def test_param_validation(self):
        """At 25 Hz the 15 Hz band edge lies above Nyquist."""
        with pytest.raises(ValueError, match=r"fs=25\.0"):
            detect_beats(np.zeros(5000), 25.0)

    def test_bandpass_designed_once_per_rate(self, tmp_path):
        """250, 500 then 250 Hz in one process give the beats that a fresh
        process gives at each rate, and design two filters."""
        signals = {fs: synthetic_ecg_train(75, duration=12.0, fs=fs, seed=int(fs))[0]
                   for fs in (250.0, 500.0)}
        features._bandpass.cache_clear()
        in_process = [(fs, detect_beats(signals[fs], fs).indices)
                      for fs in (250.0, 500.0, 250.0)]
        info = features._bandpass.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

        env = dict(os.environ, PYTHONPATH=str(Path(features.__file__).parents[1]))
        code = ("import sys, numpy as np; from alarmsift.features import detect_beats; "
                "np.save(sys.argv[2], detect_beats(np.load(sys.argv[1]), "
                "float(sys.argv[3])).indices)")
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


# The seed's per-beat loop and logistic loop, kept as references: the
# vectorized beat windows and the buffered fit must reproduce them bit for bit.

def _ref_beat_features(signal, beats):
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
        if amp > 1e-12:
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
    """A signal and strictly increasing beats on it, many of them within
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
    return x, BeatAnnotations(indices=indices, rr=np.diff(indices) / fs, fs=fs)


class TestBeatFeatures:
    @given(case=_beat_cases())
    @example(case=(np.zeros(100), BeatAnnotations(
        indices=np.empty(0, dtype=np.int64), rr=np.empty(0), fs=FS)))
    @example(case=(np.r_[np.zeros(50), 1.0, np.zeros(49)], BeatAnnotations(
        indices=np.array([50]), rr=np.empty(0), fs=FS)))
    @example(case=(np.r_[1.0, np.zeros(98), 1.0], BeatAnnotations(
        indices=np.array([0, 99]), rr=np.array([99 / FS]), fs=FS)))
    @example(case=(2.0 + 1e-14 * np.random.default_rng(1).standard_normal(500),
                   BeatAnnotations(indices=np.array([3, 250, 497]),
                                   rr=np.array([247, 247]) / FS, fs=FS)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_beat_reference(self, case):
        x, beats = case
        assert np.array_equal(beat_features(x, beats), _ref_beat_features(x, beats))

    @pytest.mark.parametrize("index", [-1, 100])
    def test_beat_outside_the_signal_refused(self, index):
        beats = BeatAnnotations(indices=np.array([index]), rr=np.empty(0), fs=FS)
        with pytest.raises(ValueError, match=r"beat indices .* signal's 100 samples"):
            beat_features(np.zeros(100), beats)

    def test_metronomic_60_bpm_constructed(self):
        x, _ = synthetic_ecg_train(60, snr_db=40.0, seed=3)
        indices = np.arange(125, x.size, int(FS))  # exactly one beat per second
        beats = BeatAnnotations(indices=indices, rr=np.diff(indices) / FS, fs=FS)
        v = dict(zip(BEAT_FEATURE_NAMES, beat_features(x, beats)))
        assert v["rr_mean"] == 1.0
        assert v["rr_std"] == 0.0
        assert v["beat_count"] == beats.n_beats

    def test_detected_beats_near_metronomic(self):
        x, _ = synthetic_ecg_train(60, snr_db=40.0, seed=3)
        beats = detect_beats(x, FS)
        v = dict(zip(BEAT_FEATURE_NAMES, beat_features(x, beats)))
        assert abs(v["rr_mean"] - 1.0) < 0.02
        assert v["rr_std"] < 0.06  # lobe-picking jitter stays below ~1 sample pair
        assert v["beat_count"] == beats.n_beats

    def test_fewer_than_two_beats_convention(self):
        x = np.zeros(1000)
        x[300:310] = 1.0
        beats = BeatAnnotations(indices=np.array([305]), rr=np.empty(0), fs=FS)
        v = dict(zip(BEAT_FEATURE_NAMES, beat_features(x, beats)))
        assert v["rr_mean"] == 0.0 and v["rr_max"] == 0.0
        assert v["beat_count"] == 1.0
        assert v["amp_mean"] > 0.0

    def test_amplitude_homogeneity(self):
        x, _ = synthetic_ecg_train(75, snr_db=30.0, seed=9)
        beats = detect_beats(x, FS)
        a = dict(zip(BEAT_FEATURE_NAMES, beat_features(x, beats)))
        b = dict(zip(BEAT_FEATURE_NAMES, beat_features(2.0 * x, beats)))
        np.testing.assert_allclose(b["amp_mean"], 2 * a["amp_mean"], rtol=1e-9)
        np.testing.assert_allclose(b["amp_std"], 2 * a["amp_std"], rtol=1e-9)
        assert b["rr_mean"] == a["rr_mean"]
        assert b["width_mean"] == a["width_mean"]

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            BeatAnnotations(indices=np.array([10, 10]), rr=np.empty(0), fs=FS)


class TestLinearClassifier:
    @given(n=st.integers(2, 60), f=st.integers(1, 111),
           seed=st.integers(0, 2**32 - 1), fit_seed=st.integers(0, 5),
           constant_cols=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_allocating_reference(self, n, f, seed, fit_seed, constant_cols):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, f)) * rng.choice([1e-3, 1.0, 1e3], size=f)
        x[:, :min(constant_cols, f)] = 7.0  # sigma 1 by convention
        labels = rng.random(n) < 0.5
        labels[:2] = (True, False)
        got = linear_classifier_fit(x, labels, seed=fit_seed)
        ref = _ref_linear_classifier_fit(x, labels, seed=fit_seed)
        for name in ("weights", "mu", "sigma"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert got.bias == ref.bias

    def test_separable_toy_perfect_training_auc(self):
        rng = np.random.default_rng(1)
        n = 40
        labels = np.arange(n) % 2 == 0
        x = np.column_stack([labels + 0.05 * rng.standard_normal(n),
                             rng.standard_normal(n)])
        model = linear_classifier_fit(x, labels)
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
            model = linear_classifier_fit(x[tr], labels[tr])
            oof[te] = linear_classifier_predict(model, x[te])
        assert 0.35 <= auc(oof, labels) <= 0.65

    def test_duplicated_rows_same_decision_function(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4))
        labels = rng.random(30) < 0.4
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        m1 = linear_classifier_fit(x, labels)
        m2 = linear_classifier_fit(np.vstack([x, x]),
                                   np.concatenate([labels, labels]))
        np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-12)
        np.testing.assert_allclose(m1.bias, m2.bias, atol=1e-12)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            linear_classifier_fit(np.zeros((4, 2)), [True] * 4)

    def test_scores_in_unit_interval(self, small_synth):
        feats = np.stack([extract_features(r).values for r in small_synth])
        labels = np.array([r.label for r in small_synth])
        model = linear_classifier_fit(feats, labels)
        scores = linear_classifier_predict(model, feats)
        assert scores.min() >= 0.0 and scores.max() <= 1.0
