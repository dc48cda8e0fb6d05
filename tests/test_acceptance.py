"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured runtime (visible with
``pytest tests/test_acceptance.py -v -s``) and enforces the stated runtime
budget.
"""

import json
import time

import numpy as np
from scipy.stats import norm

import alarmsift as asift
from alarmsift.harness import (AblationSpec, ExperimentConfig, SweepSpec,
                               ablate, run_experiment, stratified_split, sweep)
from alarmsift.net import (ModelConfig, finite_diff_check, predict,
                           stack_sequences, train)
from alarmsift.records import SynthSpec, synth_dataset, write_dataset
from alarmsift.scalogram import SCALES, MorletParams, cwt
from alarmsift.stats import (Confusion, auc, confusion_metrics, delong_test,
                             fold_summary, stratified_kfold)
from test_net import _kink_free_fixture
from test_scalogram import direct_cwt
from test_stats import pair_count_auc


class _budget:
    def __init__(self, number, description, seconds):
        self.number, self.description, self.seconds = number, description, seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"\nPASS criterion {self.number}: {self.description} "
                  f"({elapsed:.1f}s < {self.seconds}s)")
            assert elapsed < self.seconds, f"runtime budget exceeded: {elapsed:.1f}s"
        else:
            print(f"\nFAIL criterion {self.number}: {self.description}")
        return False


def test_criterion_01_metric_arithmetic():
    with _budget(1, "confusion-table metric arithmetic", 1.0):
        m = confusion_metrics(Confusion(tp=93, tn=288, fp=52, fn=65))
        assert round(m.sensitivity, 3) == 0.589
        assert round(m.specificity, 3) == 0.847
        assert round(m.precision, 3) == 0.641
        assert round(m.f1, 3) == 0.614
        assert round(m.npv, 3) == 0.816
        assert round(m.accuracy, 3) == 0.765


def test_criterion_02_class_weights():
    with _budget(2, "class weights for the 158/340 split", 1.0):
        w = asift.class_weights([True] * 158 + [False] * 340)
        assert round(w.w_true, 3) == 1.576
        assert round(w.w_false, 3) == 0.732


def test_criterion_03_ci_arithmetic():
    with _budget(3, "fold mean/std and 95% interval arithmetic", 1.0):
        s = fold_summary([0.7923, 0.8254, 0.8185, 0.8344, 0.8373])
        assert round(s.mean, 4) == 0.8216
        assert round(s.std, 4) == 0.0161
        assert round(s.ci_lo, 3) == 0.790
        assert round(s.ci_hi, 3) == 0.853


def test_criterion_04_cwt_oracle():
    with _budget(4, "FFT CWT vs direct convolution, 100 random cases", 120.0):
        rng = np.random.default_rng(4040)
        for _ in range(100):
            n = int(rng.integers(64, 4097))
            a_max = min(128.0, (n - 1) / 8.0)
            scale = float(np.exp(rng.uniform(0.0, np.log(a_max))))
            x = rng.standard_normal(n)
            fft_path = cwt(x, np.array([scale]))[0]
            direct = direct_cwt(x, scale)
            err = np.max(np.abs(fft_path - direct)) / np.max(np.abs(direct))
            assert err < 1e-6, (n, scale, err)
        # sinusoid peak scale within one grid step of fc*fs/f
        fs, f = 250.0, 10.0
        x = np.sin(2 * np.pi * f * np.arange(2500) / fs)
        grid = SCALES
        params = MorletParams()
        energy = np.sum(np.abs(cwt(x, grid, params)) ** 2, axis=1)
        peak = int(np.argmax(energy))
        target = int(np.argmin(np.abs(grid - params.fc * fs / f)))
        assert abs(peak - target) <= 1


def test_criterion_05_auc_oracle():
    with _budget(5, "AUC equals exhaustive pair counting on 1000 cases", 60.0):
        rng = np.random.default_rng(5050)
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            labels = np.zeros(n, bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            scores = np.round(rng.random(n), 2)  # coarse grid forces ties
            assert auc(scores, labels) == pair_count_auc(scores, labels)


def test_criterion_06_delong_calibration():
    with _budget(6, "DeLong p-value and null rejection rate", 300.0):
        p = 2.0 * float(norm.cdf(-3.124))
        assert float(f"{p:.2g}") == 0.0018
        rng = np.random.default_rng(2024)
        rejections = 0
        trials = 1000
        for _ in range(trials):
            n = 200
            labels = np.zeros(n, bool)
            labels[:80] = True
            rng.shuffle(labels)
            signal = labels + rng.standard_normal(n)
            score_a = signal + rng.standard_normal(n)
            score_b = signal + rng.standard_normal(n)
            if delong_test(score_a, score_b, labels).p < 0.05:
                rejections += 1
        rate = rejections / trials
        assert 0.03 <= rate <= 0.07, rate


def test_criterion_07_gradient_correctness():
    with _budget(7, "finite-difference gradient check, reduced model", 120.0):
        params, sample = _kink_free_fixture()
        errors = finite_diff_check(params, sample, True)
        assert set(errors) == set(params.tensors)
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: {err}"


def test_criterion_08_end_to_end_desk_scale():
    with _budget(8, "temporal model AUC >= 0.90 on the onset-coded family; "
                    "shuffled control near chance", 900.0):
        records = synth_dataset(SynthSpec(n=240, true_ratio=0.5), seed=42)
        x = stack_sequences([asift.build_sequence(r, 6) for r in records])
        labels = np.array([r.label for r in records], dtype=bool)
        cfg = ModelConfig(embed_dim=64, lstm_hidden=32, head_hidden=32,
                          learning_rate=2e-3, max_epochs=30, batch_size=16,
                          seed=42)
        fractions = [0.60, 0.15, 0.25]
        tr, va, te = stratified_split(labels, fractions, seed=42)
        model, history = train(x, labels, tr, va, cfg)
        held_out = auc(predict(x[te], model), labels[te])
        assert history.epochs_run <= 30
        assert held_out >= 0.90, held_out

        shuffled = labels.copy()
        np.random.default_rng(1000).shuffle(shuffled)
        tr2, va2, te2 = stratified_split(shuffled, fractions, seed=42)
        control_model, _ = train(x, shuffled, tr2, va2, cfg)
        control = auc(predict(x[te2], control_model), shuffled[te2])
        assert 0.35 <= control <= 0.65, control
        print(f"\n  held-out AUC {held_out:.4f}, shuffled control {control:.4f}")


def test_criterion_09_stratification_and_determinism(tmp_path):
    with _budget(9, "fold stratification counts and run determinism", 600.0):
        labels = np.zeros(498, bool)
        labels[:158] = True
        fa1 = stratified_kfold(labels, 5, seed=42)
        fa2 = stratified_kfold(labels, 5, seed=42)
        np.testing.assert_array_equal(fa1.fold_of, fa2.fold_of)
        for f in range(5):
            assert int(labels[fa1.test_indices(f)].sum()) in (31, 32)

        data_dir = tmp_path / "data"
        write_dataset(synth_dataset(SynthSpec(n=16, true_ratio=0.5), 42), data_dir)
        cfg = ExperimentConfig(
            experiment="temporal", data_dir=str(data_dir), folds=2, seed=42,
            out_dir=str(tmp_path / "runs"), val_fraction=0.25,
            model=ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                              dropout=0.0, max_epochs=2, batch_size=8, seed=42))
        first = (run_experiment(cfg) / "report.json").read_bytes()
        second = (run_experiment(cfg) / "report.json").read_bytes()
        assert first == second


def test_criterion_10_pan_tompkins():
    with _budget(10, "beat detection at 60/90/120 bpm and flatline", 60.0):
        from test_features import synthetic_ecg_train

        for bpm in (60, 90, 120):
            x, truth = synthetic_ecg_train(bpm, snr_db=12.0, seed=bpm)
            beats = asift.detect_beats(x, 250.0)
            assert abs(beats.size - truth) <= 2, (bpm, beats.size, truth)
        assert asift.detect_beats(np.zeros(15000), 250.0).size == 0


def test_criterion_11_harness_counting(tmp_path):
    with _budget(11, "sweep executes 48 runs; ablation grid shape; "
                     "leakage guard", 600.0):
        data_dir = tmp_path / "data"
        write_dataset(synth_dataset(SynthSpec(n=18, true_ratio=0.5), 42), data_dir)
        base = ExperimentConfig(
            experiment="temporal", data_dir=str(data_dir), folds=3, seed=42,
            out_dir=str(tmp_path / "runs"), val_fraction=0.25,
            model=ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6,
                              dropout=0.0, max_epochs=1, batch_size=8, seed=42))

        result = sweep(SweepSpec(repeats=4), base)  # default 4+4+4 axes
        assert result.runs_executed == 48
        assert SweepSpec(repeats=4).total_runs == 48

        abl = ablate(AblationSpec(), base)
        assert len(abl.chunk_rows) == 4
        assert len(abl.channel_rows) == 3
        for row in abl.chunk_rows + abl.channel_rows:
            assert len(row["fold_aucs"]) == 3  # stds computed over 3 folds
            assert row["std_auc"] >= 0.0

        # leakage guard: every record scored exactly once, out of fold
        run_dir = run_experiment(base)
        import csv

        with open(run_dir / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len({r["record_id"] for r in rows}) == 18
        report = json.loads((run_dir / "report.json").read_text())
        assert len(report["folds"]) == 3
