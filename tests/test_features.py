import csv

import numpy as np
import pytest

from alarmsift.features import (BEAT_FEATURE_NAMES, FEATURE_NAMES,
                                BeatAnnotations, FeatureVector,
                                beat_features, detect_beats,
                                export_features_csv, extract_features,
                                linear_classifier_fit,
                                linear_classifier_predict)
from alarmsift.records import Channel
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


class TestBeatFeatures:
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
