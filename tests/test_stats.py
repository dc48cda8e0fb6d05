import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from alarmsift import stats
from alarmsift.records import AlarmType
from alarmsift.stats import (Confusion, auc, bootstrap_auc_diff,
                             confusion_metrics, delong_test, error_report,
                             fold_summary, per_alarm_report, stratified_kfold)
from conftest import make_record


def pair_count_auc(scores, labels):
    """Exhaustive pair-counting oracle; ties between classes credit 0.5."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, bool)
    pos, neg = scores[labels], scores[~labels]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def _ref_midranks(x):
    """1-D midranks, sorted once and ranked tie group by tie group."""
    order = np.argsort(x, kind="mergesort")
    z = x[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(z) != 0) + 1))
    ends = np.concatenate((starts[1:], [x.size]))
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def _ref_bootstrap(a, b, labels, n_iter, seed):
    """Percentile bounds from one resample, and one rank pass, at a time."""
    def one_auc(scores, y):
        m = int(y.sum())
        return (_ref_midranks(scores)[y].sum() - m * (m + 1) / 2.0) / (m * (y.size - m))

    rng, n = np.random.default_rng(seed), labels.size
    diffs = np.empty(n_iter)
    for i in range(n_iter):
        while True:
            idx = rng.integers(0, n, size=n)
            y = labels[idx]
            if 0 < y.sum() < n:
                break
        diffs[i] = one_auc(a[idx], y) - one_auc(b[idx], y)
    return tuple(np.percentile(diffs, [2.5, 97.5]))


# Seeds that are not an integer >= 0: ``np.random.default_rng`` refuses -1
# and 2.5 without naming the argument, and takes None as fresh entropy.
BAD_SEEDS = [
    (-1, "seed must be >= 0, got -1"),
    (2.5, "seed must be an integer, got 2.5"),
    (True, "seed must be an integer, got True"),
    (None, "seed must be an integer, got None"),
]


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_half_concordant(self):
        # positives {0.9, 0.2} vs negatives {0.4, 0.6}: 2 of 4 pairs concordant
        assert auc([0.9, 0.4, 0.6, 0.2], [1, 0, 0, 1]) == 0.5

    def test_single_class_errors(self):
        for name in ("auc", "delong_test", "bootstrap_auc_diff"):
            with pytest.raises(ValueError,
                               match=rf"^{name} requires both classes present"):
                _call(name, np.array([0.1, 0.2]), np.ones(2, bool))

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 120))
            labels = np.zeros(n, bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            # quantized scores force plenty of exact ties
            scores = np.round(rng.random(n), 1)
            assert auc(scores, labels) == pair_count_auc(scores, labels)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pair_counting_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        labels = np.zeros(n, bool)
        labels[: int(rng.integers(1, n))] = True
        rng.shuffle(labels)
        scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)
        assert auc(scores, labels) == pair_count_auc(scores, labels)


    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=30),
           st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1,
                    max_size=3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rejects_non_finite_scores(self, finite, bad, seed):
        rng = np.random.default_rng(seed)
        scores = np.array(finite + bad)
        rng.shuffle(scores)
        labels = np.arange(scores.size) % 2 == 0
        with pytest.raises(ValueError, match="finite"):
            auc(scores, labels)


class TestConfusionMetrics:
    def test_production_confusion_table(self):
        m = confusion_metrics(Confusion(tp=93, tn=288, fp=52, fn=65))
        assert round(m.sensitivity, 3) == 0.589
        assert round(m.specificity, 3) == 0.847
        assert round(m.precision, 3) == 0.641
        assert round(m.f1, 3) == 0.614
        assert round(m.npv, 3) == 0.816
        assert round(m.accuracy, 3) == 0.765

    def test_internal_consistency(self):
        c = Confusion(tp=10, tn=20, fp=5, fn=15)
        m = confusion_metrics(c)
        assert m.accuracy == (c.tp + c.tn) / c.total
        p, s = m.precision, m.sensitivity
        np.testing.assert_allclose(m.f1, 2 * p * s / (p + s))

    def test_tp_equals_fn(self):
        assert confusion_metrics(Confusion(7, 0, 3, 7)).sensitivity == 0.5

    def test_zero_fp_perfect_precision(self):
        assert confusion_metrics(Confusion(5, 9, 0, 2)).precision == 1.0

    def test_degenerate_flagged(self):
        m = confusion_metrics(Confusion(0, 10, 0, 0))
        assert m.precision == 0.0
        assert "precision" in m.flagged and "sensitivity" in m.flagged

    def test_from_predictions(self):
        c = Confusion.from_predictions([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 1)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
           st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1,
                    max_size=3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_from_predictions_rejects_non_finite(self, finite, bad, seed):
        """A NaN score must not be counted as a negative prediction."""
        scores = np.array(finite + bad)
        np.random.default_rng(seed).shuffle(scores)
        labels = np.arange(scores.size) % 2 == 0
        with pytest.raises(ValueError, match="finite"):
            Confusion.from_predictions(scores, labels)


class TestStratifiedKfold:
    def test_production_shape_498(self):
        labels = np.zeros(498, bool)
        labels[:158] = True
        fa = stratified_kfold(labels, k=5, seed=42)
        pos_counts = [int(labels[fa.test_indices(f)].sum()) for f in range(5)]
        totals = [fa.test_indices(f).size for f in range(5)]
        assert set(pos_counts) <= {31, 32}
        assert set(totals) <= {99, 100}
        assert sum(totals) == 498

    def test_deterministic(self):
        labels = np.random.default_rng(1).random(100) < 0.3
        a = stratified_kfold(labels, 5, seed=9)
        b = stratified_kfold(labels, 5, seed=9)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)

    def test_partition_property(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(20, 200))
            labels = rng.random(n) < rng.uniform(0.2, 0.8)
            k = int(rng.integers(2, 6))
            if labels.sum() < k or (~labels).sum() < k:
                continue
            fa = stratified_kfold(labels, k, seed=int(rng.integers(1e6)))
            assert sorted(np.concatenate([fa.test_indices(f) for f in range(k)]).tolist()) \
                == list(range(n))
            for cls in (True, False):
                counts = [int((labels[fa.test_indices(f)] == cls).sum())
                          for f in range(k)]
                assert max(counts) - min(counts) <= 1

    def test_k_too_small_or_large(self):
        with pytest.raises(ValueError):
            stratified_kfold([True, False] * 5, k=1, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold([True, False, False], k=2, seed=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
    def test_non_integer_k_refused_by_name(self, k):
        """A fold count is an integer: ``2.5`` would deal fold ids 0, 1
        and 2 under ``k = 2.5``."""
        with pytest.raises(ValueError, match=rf"^k must be an integer, got "
                                             rf"{re.escape(repr(k))}$"):
            stratified_kfold([True, False] * 6, k, seed=0)

    @pytest.mark.parametrize("seed, message", BAD_SEEDS)
    def test_bad_seed_refused_by_name(self, seed, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            stratified_kfold([True, False] * 6, 3, seed)

    def test_numpy_integer_k_and_seed_give_the_int_assignment(self):
        labels = np.arange(12) % 3 == 0
        a = stratified_kfold(labels, np.int64(4), np.uint8(7))
        b = stratified_kfold(labels, 4, 7)
        assert type(a.k) is int and a.k == 4
        np.testing.assert_array_equal(a.fold_of, b.fold_of)


class TestDelong:
    def test_identical_scores(self):
        scores = np.array([0.8, 0.3, 0.6, 0.1])
        labels = np.array([1, 0, 1, 0], bool)
        res = delong_test(scores, scores, labels)
        assert res.z == 0.0 and res.p == 1.0

    def test_p_value_from_z(self):
        # 2 * Phi(-3.124) rounds to 0.0018 at 2 significant figures
        p = 2.0 * stats._normal_cdf(-3.124)
        assert float(f"{p:.2g}") == 0.0018

    @given(z=st.floats(-5.0, 5.0))
    @example(z=0.0)
    @example(z=1.0)
    @example(z=-1.0)
    @example(z=math.nextafter(1.0, 0.0))
    @example(z=5.0)
    @settings(max_examples=2000, deadline=None)
    def test_normal_tail_within_2e_15_of_scipy(self, z):
        """Both sides of the erf/erfc switch at |z| = 1, out to |z| = 5."""
        want = 2.0 * float(norm.cdf(-abs(z)))
        assert abs(2.0 * stats._normal_cdf(-abs(z)) - want) <= 2e-15 * want
        assert abs(stats._normal_cdf(z) - float(norm.cdf(z))) <= 2e-15 * float(norm.cdf(z))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_p_is_the_two_sided_normal_tail_of_z(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(40) < 17)
        signal = labels + rng.standard_normal(40)
        res = delong_test(signal + rng.standard_normal(40),
                          signal + 2 * rng.standard_normal(40), labels)
        want = 2.0 * float(norm.cdf(-abs(res.z)))
        assert abs(res.p - want) <= 2e-15 * want

    def test_clear_separation_significant(self):
        rng = np.random.default_rng(77)
        n = 200
        labels = np.zeros(n, bool)
        labels[:80] = True
        rng.shuffle(labels)
        scores_a = labels + 0.05 * rng.standard_normal(n)  # near-perfect
        scores_b = rng.random(n)  # uninformative
        res = delong_test(scores_a, scores_b, labels)
        assert res.auc_a > 0.95 and res.p < 0.01

    def test_sign_convention(self):
        rng = np.random.default_rng(78)
        n = 300
        labels = rng.random(n) < 0.4
        strong = labels + 0.3 * rng.standard_normal(n)
        weak = labels + 3.0 * rng.standard_normal(n)
        res = delong_test(weak, strong, labels)  # (baseline, improved)
        assert res.z < 0  # z carries the sign of auc_a - auc_b

    def test_null_calibration(self):
        """Equally informative paired models: ~5% rejections at alpha=.05."""
        rng = np.random.default_rng(2024)
        rejections = 0
        trials = 1000
        for _ in range(trials):
            n = 200
            labels = np.zeros(n, bool)
            labels[:80] = True
            rng.shuffle(labels)
            signal = labels + 1.0 * rng.standard_normal(n)
            scores_a = signal + 1.0 * rng.standard_normal(n)
            scores_b = signal + 1.0 * rng.standard_normal(n)
            if delong_test(scores_a, scores_b, labels).p < 0.05:
                rejections += 1
        assert 0.03 <= rejections / trials <= 0.07

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            delong_test([0.1, 0.2], [0.1], [True, False])

    @given(data=st.data(), n=st.integers(2, 80))
    @settings(max_examples=300, deadline=None)
    def test_aucs_are_auc_bit_for_bit(self, data, n):
        """auc_a and auc_b are ``auc`` of each score vector, ties included:
        one Mann-Whitney definition, not a second from the mean of V10."""
        labels = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        labels[:2] = (True, False)
        levels = data.draw(st.integers(1, 2 * n))  # few levels: many ties
        scores = [np.array(data.draw(st.lists(st.integers(0, levels), min_size=n,
                                              max_size=n))) / levels
                  for _ in range(2)]
        res = delong_test(*scores, labels)
        assert res.auc_a == auc(scores[0], labels)
        assert res.auc_b == auc(scores[1], labels)


class TestBootstrap:
    def test_identical_scores_zero_interval(self):
        scores = np.array([0.9, 0.2, 0.7, 0.4, 0.6, 0.3])
        labels = np.array([1, 0, 1, 0, 1, 0], bool)
        ci = bootstrap_auc_diff(scores, scores, labels, n_iter=200, seed=1)
        assert ci.lower == 0.0 and ci.upper == 0.0

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        labels = rng.random(60) < 0.5
        a, b = rng.random(60), rng.random(60)
        c1 = bootstrap_auc_diff(a, b, labels, n_iter=300, seed=9)
        c2 = bootstrap_auc_diff(a, b, labels, n_iter=300, seed=9)
        assert (c1.lower, c1.upper) == (c2.lower, c2.upper)

    def test_clear_separation_excludes_zero(self):
        rng = np.random.default_rng(41)
        n = 300
        labels = np.zeros(n, bool)
        labels[:120] = True
        rng.shuffle(labels)
        strong = labels + 0.2 * rng.standard_normal(n)
        weak = labels + 4.0 * rng.standard_normal(n)
        ci = bootstrap_auc_diff(strong, weak, labels, n_iter=500, seed=3)
        assert ci.lower > 0.0

    @given(n=st.integers(2, 60), n_pos=st.integers(1, 59),
           data_seed=st.integers(0, 2**32 - 1), ties=st.booleans(),
           n_iter=st.integers(1, 300), block=st.sampled_from((1, 3, 7, 128)),
           seed=st.integers(0, 50))
    @example(n=8, n_pos=1, data_seed=44, ties=True, n_iter=300, block=128, seed=8)
    @example(n=30, n_pos=9, data_seed=44, ties=True, n_iter=300, block=128, seed=30)
    @example(n=56, n_pos=20, data_seed=44, ties=True, n_iter=300, block=128, seed=56)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop_bit_for_bit(self, n, n_pos, data_seed, ties,
                                                n_iter, block, seed):
        """Blocks of resamples ranked row-wise give the bounds of a loop that
        ranks one resample at a time, bit for bit: tied scores, redraws of
        one-class resamples (one positive) and a last, partial block
        included."""
        n_pos = min(n_pos, n - 1)
        labels = np.arange(n) < n_pos
        rng = np.random.default_rng(data_seed)
        a, b = rng.random(n), rng.random(n)
        if ties:
            a = np.round(a, 1)
        with mock.patch.object(stats, "_BOOTSTRAP_BLOCK", block):
            ci = bootstrap_auc_diff(a, b, labels, n_iter=n_iter, seed=seed)
        assert (ci.lower, ci.upper) == _ref_bootstrap(a, b, labels, n_iter, seed)
        assert ci.n_iter == n_iter

    @given(x=st.lists(st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                                st.floats(-1e300, 1e300)), min_size=1, max_size=60),
           percents=st.just([2.5, 97.5]) | st.lists(st.floats(0.0, 100.0),
                                                    min_size=1, max_size=3))
    @example(x=[-0.0], percents=[2.5, 97.5])
    @example(x=[0.0, -0.0, -0.0, 0.0, -0.0], percents=[2.5, 97.5])
    @settings(max_examples=300, deadline=None)
    def test_percentiles_equal_numpy_bit_for_bit(self, x, percents):
        """The bounds' percentiles are ``np.percentile``'s bits, one value,
        ties and the sign of a zero result included."""
        x = np.array(x)
        want = np.percentile(x, percents)
        assert np.array(stats._percentiles(x.copy(), percents)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_iter", [0, -3, 2.5, True])
    def test_bad_n_iter_refused_by_name(self, n_iter):
        labels = np.arange(6) % 2 == 0
        with pytest.raises(ValueError, match=r"^n_iter must be "):
            bootstrap_auc_diff(np.linspace(0.0, 1.0, 6), np.ones(6), labels,
                               n_iter=n_iter)

    @pytest.mark.parametrize("seed, message", BAD_SEEDS)
    def test_bad_seed_refused_by_name(self, seed, message):
        labels = np.arange(6) % 2 == 0
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            bootstrap_auc_diff(np.linspace(0.0, 1.0, 6), np.ones(6), labels,
                               n_iter=10, seed=seed)

    def test_agrees_with_delong_on_separated_pair(self):
        rng = np.random.default_rng(43)
        n = 400
        labels = rng.random(n) < 0.4
        strong = labels + 0.3 * rng.standard_normal(n)
        weak = labels + 4.0 * rng.standard_normal(n)
        ci = bootstrap_auc_diff(strong, weak, labels, n_iter=400, seed=4)
        res = delong_test(weak, strong, labels)
        assert ci.lower > 0.0 and res.p < 0.05 and res.z < 0


class TestFoldSummary:
    def test_production_fold_arithmetic(self):
        s = fold_summary([0.7923, 0.8254, 0.8185, 0.8344, 0.8373])
        assert round(s.mean, 4) == 0.8216
        assert round(s.std, 4) == 0.0161
        assert round(s.ci_lo, 3) == 0.790
        assert round(s.ci_hi, 3) == 0.853

    @given(finite=st.lists(st.floats(0.0, 1.0), max_size=6),
           bad=st.lists(st.sampled_from((np.nan, np.inf, -np.inf)), max_size=2),
           order=st.randoms(use_true_random=False))
    def test_refuses_empty_or_non_finite_by_name(self, finite, bad, order):
        aucs = finite + bad
        order.shuffle(aucs)
        if aucs and not bad:
            s = fold_summary(aucs)
            assert np.isfinite([s.mean, s.std, s.ci_lo, s.ci_hi]).all()
            return
        with pytest.raises(ValueError, match="^fold_summary requires"):
            fold_summary(aucs)


class TestReports:
    def _records(self, counts):
        records = []
        i = 0
        for atype, (total, true) in counts.items():
            for j in range(total):
                records.append(make_record(f"r{i}", n=8, alarm_type=atype,
                                           label=j < true))
                i += 1
        return records

    def test_per_alarm_counts_production_shape(self):
        counts = {AlarmType.VFIB_FLUTTER: (263, 60), AlarmType.ASYSTOLE: (85, 12),
                  AlarmType.TACHYCARDIA: (62, 56), AlarmType.BRADYCARDIA: (56, 25),
                  AlarmType.VFIB: (32, 5)}
        records = self._records(counts)
        rng = np.random.default_rng(0)
        rows = per_alarm_report(rng.random(len(records)), records)
        by_type = {row.alarm_type: row.n for row in rows}
        assert by_type == {AlarmType.VFIB_FLUTTER: 263, AlarmType.ASYSTOLE: 85,
                           AlarmType.TACHYCARDIA: 62, AlarmType.BRADYCARDIA: 56,
                           AlarmType.VFIB: 32}

    def test_single_type_dataset(self):
        records = [make_record(f"r{i}", n=8, alarm_type=AlarmType.VFIB,
                               label=i < 3) for i in range(10)]
        rows = per_alarm_report(np.linspace(0, 1, 10), records)
        assert len(rows) == 1 and rows[0].n == 10

    def test_per_type_auc_matches_oracle(self):
        records = [make_record(f"r{i}", n=8, alarm_type=AlarmType.ASYSTOLE,
                               label=i % 2 == 0) for i in range(6)]
        scores = np.array([0.9, 0.1, 0.4, 0.6, 0.7, 0.2])
        labels = np.array([r.label for r in records])
        rows = per_alarm_report(scores, records)
        assert rows[0].auc == pair_count_auc(scores, labels)

    def test_single_class_type_flagged(self):
        records = [make_record(f"r{i}", n=8, alarm_type=AlarmType.VFIB,
                               label=True) for i in range(4)]
        rows = per_alarm_report([0.9, 0.8, 0.4, 0.3], records)
        assert rows[0].single_class and rows[0].auc is None
        assert rows[0].accuracy == 0.5

    def test_error_report_counts(self):
        p = np.array([0.9, 0.3, 0.2, 0.7])
        y = np.array([1, 1, 0, 0], bool)
        rep = error_report(p, y, ["a", "b", "c", "d"])
        assert rep.fn_ids == ("b",)
        assert rep.fp_ids == ("d",)
        assert len(rep.fn_ids) + len(rep.fp_ids) == 2

    def test_perfect_predictions_empty(self):
        rep = error_report([0.9, 0.1], [True, False])
        assert len(rep.fn_ids) + len(rep.fp_ids) == 0
        assert rep.high_confidence_ids == ()

    def test_high_confidence_threshold(self):
        rep = error_report([0.99, 0.9, 0.1], [False, True, False], ["a", "b", "c"])
        assert rep.fp_ids == ("a",)
        assert rep.high_confidence_ids == ("a",)

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            error_report([1.2], [True])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
           st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1,
                    max_size=3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_error_report_rejects_non_finite(self, finite, bad, seed):
        scores = np.array(finite + bad)
        np.random.default_rng(seed).shuffle(scores)
        labels = np.arange(scores.size) % 2 == 0
        with pytest.raises(ValueError, match="finite"):
            error_report(scores, labels)


# ---------------------------------------------------------------------------
# The one score check shared by every entry point that takes scores
# ---------------------------------------------------------------------------

def _records_with(labels):
    return [make_record(f"r{i}", n=8, label=bool(y)) for i, y in enumerate(labels)]


def _call(name, scores, labels, bad_side=0):
    """Call entry point ``name`` with ``scores``; the paired tests get a good
    second vector, on the side that ``bad_side`` does not name."""
    good = np.linspace(0.0, 1.0, len(labels))
    pair = (scores, good) if bad_side == 0 else (good, scores)
    return {
        "auc": lambda: auc(scores, labels),
        "Confusion.from_predictions": lambda: Confusion.from_predictions(scores, labels),
        "delong_test": lambda: delong_test(*pair, labels),
        "bootstrap_auc_diff": lambda: bootstrap_auc_diff(*pair, labels, n_iter=10),
        "error_report": lambda: error_report(scores, labels),
        "per_alarm_report": lambda: per_alarm_report(scores, _records_with(labels)),
    }[name]()


ENTRY_POINTS = ("auc", "Confusion.from_predictions", "delong_test",
                "bootstrap_auc_diff", "error_report", "per_alarm_report")


@st.composite
def _bad_scores(draw):
    """Probabilities for two-class labels, with NaN, +inf or -inf at a drawn
    position, or one score too many or too few."""
    n = draw(st.integers(2, 30))
    labels = np.arange(n) % 2 == 0
    scores = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1))).random(n)
    if draw(st.booleans()):
        scores[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from((np.nan, np.inf, -np.inf)))
    else:
        scores = np.resize(scores, n + draw(st.sampled_from((-1, 1))))
    return scores, labels


class TestScoreCheck:
    @given(name=st.sampled_from(ENTRY_POINTS), case=_bad_scores(),
           bad_side=st.integers(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_every_entry_point_refuses_by_name(self, name, case, bad_side):
        scores, labels = case
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} requires "):
            _call(name, scores, labels, bad_side)

    @pytest.mark.parametrize("name, scores, labels, message", [
        ("delong_test", [0.1, np.nan, 0.7, 0.4], [1, 0, 1, 0], "finite scores"),
        ("per_alarm_report", [0.9, np.nan, 0.2], [1, 1, 0], "finite scores"),
        ("error_report", [0.9, 0.1, 0.8, 0.2, 0.6], [1, 0] * 10, "one score per label"),
        ("auc", [0.9, 0.1, 0.4], [1, 0], "one score per label"),
        ("bootstrap_auc_diff", [0.9, 0.1], [1, 0, 1], "one score per label"),
        ("Confusion.from_predictions", [0.9, 0.1, 0.4], [1, 0], "one score per label"),
        ("auc", [[0.9, 0.1], [0.4, 0.6]], [[1, 0], [1, 0]],
         "one score per label in a 1-D vector"),
    ])
    def test_refuses_known_probe(self, name, scores, labels, message):
        """Inputs that an entry point once processed silently, or failed on
        deep inside numpy."""
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} requires {message}"):
            _call(name, np.array(scores), np.array(labels, bool))

    def test_error_report_refuses_record_ids_of_another_length(self):
        with pytest.raises(ValueError, match=r"^error_report requires one record id "
                                             r"per score; got 2 ids for 3 scores"):
            error_report([0.9, 0.1, 0.4], [True, False, True], ["a", "b"])
