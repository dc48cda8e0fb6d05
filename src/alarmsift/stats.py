"""Evaluation statistics: AUC, confusion/clinical metrics, stratified fold
assignment, the DeLong paired-AUC test, bootstrap confidence intervals, and
per-alarm / error breakdowns.

Everything here is pure and deterministic; resampling routines take an
explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .records import AlarmType, Record, _checked_number, _checked_seed

Z_95 = 1.96
#: A record is predicted a true alarm when its p_true is at least this.
DECISION_THRESHOLD = 0.5
#: A misclassified record is a high-confidence error when the probability of
#: the class it was wrongly given exceeds this.
HIGH_CONFIDENCE = 0.8


# ---------------------------------------------------------------------------
# AUC (Mann-Whitney with midranks; ties between classes count 0.5)
# ---------------------------------------------------------------------------

def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based midranks along the last axis; tied values share the mean of
    their positions."""
    order = np.argsort(x, axis=-1, kind="mergesort")
    z = np.take_along_axis(x, order, axis=-1)
    n = x.shape[-1]
    pos = np.arange(n)
    # tie group of each sorted position: its first position and one past its last
    first = np.ones(x.shape, dtype=bool)
    first[..., 1:] = z[..., 1:] != z[..., :-1]
    last = np.ones(x.shape, dtype=bool)
    last[..., :-1] = first[..., 1:]
    starts = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
    ends = np.minimum.accumulate(np.where(last, pos + 1, n)[..., ::-1],
                                 axis=-1)[..., ::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, 0.5 * (starts + ends - 1) + 1.0, axis=-1)
    return ranks


def _scores_and_labels(scores, labels, caller: str, both_classes: bool = False):
    """The one check on score vectors: float64 ``scores`` and bool ``labels``.

    Raises ValueError naming ``caller`` unless the scores are a 1-D vector
    with one finite score per label, and, with ``both_classes``, unless the
    labels hold both classes.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(f"{caller} requires one score per label in a 1-D vector; "
                         f"got shapes {scores.shape} and {labels.shape}")
    if not np.isfinite(scores).all():
        raise ValueError(f"{caller} requires finite scores; got NaN or inf")
    if both_classes and (labels.all() or not labels.any()):
        raise ValueError(f"{caller} requires both classes present")
    return scores, labels


def _rank_auc(positive_rank_sum, m, n):
    """The AUC of ``m`` positives and ``n`` negatives whose pooled midranks
    sum to ``positive_rank_sum`` over the positives (Mann-Whitney U / mn).

    Midranks are half-integers, so their sum is exact in any order below
    2**53: every caller that sums the same ranks gets the same bits.
    """
    return (positive_rank_sum - m * (m + 1) / 2.0) / (m * n)


def _auc(scores: np.ndarray, labels: np.ndarray):
    """``auc`` of input that ``_scores_and_labels`` has already checked; of
    each row, for (R, N) scores and labels with both classes in every row.
    A row gives the bits of the same vector alone (see ``_rank_auc``).
    """
    m = labels.sum(axis=-1)
    n = labels.shape[-1] - m
    ranks = _midranks(scores)
    return _rank_auc(np.where(labels, ranks, 0.0).sum(axis=-1), m, n)


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties = 0.5).

    Scores must be finite, one per label, and both classes must be present;
    anything else raises ValueError.
    """
    return _auc(*_scores_and_labels(scores, labels, "auc", both_classes=True))


# ---------------------------------------------------------------------------
# Confusion counts and clinical metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Confusion:
    tp: int
    tn: int
    fp: int
    fn: int

    @classmethod
    def from_predictions(cls, p_true, labels) -> "Confusion":
        """Counts at ``p_true >= DECISION_THRESHOLD``; a NaN or inf score
        raises ValueError rather than counting as a negative prediction."""
        p, y = _scores_and_labels(p_true, labels, "Confusion.from_predictions")
        pred = p >= DECISION_THRESHOLD
        return cls(
            tp=int(np.sum(pred & y)),
            tn=int(np.sum(~pred & ~y)),
            fp=int(np.sum(pred & ~y)),
            fn=int(np.sum(~pred & y)),
        )

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """The seven clinical metrics; ``flagged`` names metrics whose
    denominator was zero (reported as 0 by convention)."""

    sensitivity: float
    specificity: float
    precision: float
    f1: float
    npv: float
    accuracy: float
    flagged: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "precision": self.precision,
            "f1": self.f1,
            "npv": self.npv,
            "accuracy": self.accuracy,
        }


def confusion_metrics(c: Confusion) -> MetricsReport:
    """Closed-form metrics from confusion counts alone."""
    flagged = []

    def ratio(num, den, name):
        if den == 0:
            flagged.append(name)
            return 0.0
        return num / den

    sens = ratio(c.tp, c.tp + c.fn, "sensitivity")
    spec = ratio(c.tn, c.tn + c.fp, "specificity")
    prec = ratio(c.tp, c.tp + c.fp, "precision")
    f1 = ratio(2.0 * prec * sens, prec + sens, "f1")
    npv = ratio(c.tn, c.tn + c.fn, "npv")
    acc = ratio(c.tp + c.tn, c.total, "accuracy")
    return MetricsReport(sens, spec, prec, f1, npv, acc, tuple(flagged))


# ---------------------------------------------------------------------------
# Stratified k-fold assignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldAssignment:
    fold_of: np.ndarray
    k: int

    def __post_init__(self):
        fold_of = np.ascontiguousarray(self.fold_of, dtype=np.int64)
        fold_of.setflags(write=False)
        object.__setattr__(self, "fold_of", fold_of)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def stratified_kfold(labels, k: int, seed: int) -> FoldAssignment:
    """Seeded shuffle within each class, then round-robin dealing to folds.

    Per-fold class counts differ by at most one.  Deterministic: the same
    (labels, k, seed) always produce the same assignment.  ValueError unless
    ``k`` is an integer >= 2 and ``seed`` an integer >= 0.
    """
    labels = np.asarray(labels, dtype=bool)
    k = _checked_number("k", k, "int")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    seed = _checked_seed(seed)
    for cls in (True, False):
        if int(np.sum(labels == cls)) < k:
            raise ValueError(f"class {cls} has fewer than k={k} members")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.size, dtype=np.int64)
    for cls in (True, False):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % k
    return FoldAssignment(fold_of=fold_of, k=k)


# ---------------------------------------------------------------------------
# DeLong paired test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelongResult:
    auc_a: float
    auc_b: float
    z: float
    p: float


def _structural_components(scores: np.ndarray, labels: np.ndarray):
    """The AUC, and the per-positive (V10) and per-negative (V01) placement
    components, from one midrank pass over the pooled scores.

    The AUC is ``_auc``'s, bit for bit: the same midranks, summed exactly.
    """
    pos, neg = scores[labels], scores[~labels]
    m, n = pos.size, neg.size
    tx = _midranks(pos)
    ty = _midranks(neg)
    tz = _midranks(np.concatenate([pos, neg]))
    v10 = (tz[:m] - tx) / n
    v01 = 1.0 - (tz[m:] - ty) / m
    return float(_rank_auc(tz[:m].sum(), m, n)), v10, v01


_SQRT_HALF = math.sqrt(0.5)


def _normal_cdf(x: float) -> float:
    """The standard normal CDF in Cephes' ``ndtr`` form, which
    ``scipy.special.ndtr`` also takes: ``erf`` near 0, ``erfc`` in the tails."""
    t = x * _SQRT_HALF
    if abs(t) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(t)
    tail = 0.5 * math.erfc(abs(t))
    return 1.0 - tail if t > 0 else tail


def delong_test(scores_a, scores_b, labels) -> DelongResult:
    """Paired test of AUC equality for two models scored on the same records.

    ``auc_a`` and ``auc_b`` are ``auc`` of each score vector, bit for bit.
    Uses the midrank structural-component estimator of the covariance of the
    paired AUCs; z carries the sign of auc_a - auc_b and p is two-sided
    normal.  Zero estimated variance (e.g. identical score vectors) yields
    z = 0, p = 1.
    """
    scores_a, labels = _scores_and_labels(scores_a, labels, "delong_test",
                                          both_classes=True)
    scores_b, _ = _scores_and_labels(scores_b, labels, "delong_test")
    m = int(labels.sum())
    n = labels.size - m
    auc_a, v10_a, v01_a = _structural_components(scores_a, labels)
    auc_b, v10_b, v01_b = _structural_components(scores_b, labels)
    s10 = np.cov(np.stack([v10_a, v10_b]), ddof=1) if m > 1 else np.zeros((2, 2))
    s01 = np.cov(np.stack([v01_a, v01_b]), ddof=1) if n > 1 else np.zeros((2, 2))
    var = (s10[0, 0] + s10[1, 1] - 2 * s10[0, 1]) / m \
        + (s01[0, 0] + s01[1, 1] - 2 * s01[0, 1]) / n
    if var <= 0 or not np.isfinite(var) or np.sqrt(var) < 1e-12:
        return DelongResult(auc_a, auc_b, 0.0, 1.0)
    z = (auc_a - auc_b) / np.sqrt(var)
    p = 2.0 * _normal_cdf(-abs(float(z)))
    return DelongResult(auc_a, auc_b, float(z), max(p, np.finfo(float).tiny))


# ---------------------------------------------------------------------------
# Bootstrap CI on the AUC difference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapCI:
    lower: float
    upper: float
    n_iter: int


#: Resamples scored together; bounds the index block to this many rows.
_BOOTSTRAP_BLOCK = 128


def bootstrap_auc_diff(scores_a, scores_b, labels, n_iter: int = 1000,
                       seed: int = 0) -> BootstrapCI:
    """Percentile 95% CI of AUC_a - AUC_b over ``n_iter`` paired record
    resamples.

    Records are drawn with replacement; a resample missing one class is
    redrawn.  Deterministic under ``seed``.  The input is checked once;
    ValueError unless ``n_iter`` is an integer >= 1 and ``seed`` an integer
    >= 0.
    """
    n_iter = _checked_number("n_iter", n_iter, "int")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    seed = _checked_seed(seed)
    scores_a, labels = _scores_and_labels(scores_a, labels, "bootstrap_auc_diff",
                                          both_classes=True)
    scores_b, _ = _scores_and_labels(scores_b, labels, "bootstrap_auc_diff")
    n = labels.size
    rng = np.random.default_rng(seed)
    diffs = np.empty(n_iter)
    # one draw per resample: Generator.integers buffers 32-bit draws within
    # a call, so drawing a block at once would change the stream
    for start in range(0, n_iter, _BOOTSTRAP_BLOCK):
        idx = np.empty((min(_BOOTSTRAP_BLOCK, n_iter - start), n), dtype=np.int64)
        for row in idx:
            while True:
                row[:] = rng.integers(0, n, size=n)
                if 0 < labels[row].sum() < n:
                    break
        y = labels[idx]
        diffs[start:start + len(idx)] = (_auc(scores_a[idx], y)
                                         - _auc(scores_b[idx], y))
    lo, hi = _percentiles(diffs, (2.5, 97.5))
    return BootstrapCI(lo, hi, n_iter)


def _percentiles(x: np.ndarray, percents) -> list[float]:
    """``np.percentile(x, percents)`` bit for bit (its default "linear"
    method) for finite 1-D ``x``, which is partitioned in place.

    numpy's own call runs ``np.unique``, which imports ``numpy.ma``.  Each
    percentile p sits at v = (n-1)*p/100, between the order statistics
    a = x[floor(v)] and b = x[floor(v) + 1], and is a + (b-a)*t, or
    b - (b-a)*(1-t) where t >= 0.5, with t = v - floor(v), as numpy's
    ``_lerp`` computes it.  At v >= n-1 both neighbours are the maximum,
    index -1, and t = v + 1.  ``x`` is partitioned at numpy's set of
    indices, so tied values (-0.0 and 0.0) land where numpy puts them.
    """
    last = x.size - 1
    points = []
    for p in percents:
        v = last * (p / 100)
        lo = math.floor(v) if v < last else -1
        points.append((v, lo, lo + 1 if lo >= 0 else -1))
    x.partition(sorted({0, -1, *(i for _, lo, hi in points for i in (lo, hi))}))
    out = []
    for v, lo, hi in points:
        a, b, t = float(x[lo]), float(x[hi]), v - lo
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


# ---------------------------------------------------------------------------
# Per-alarm and error reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerAlarmRow:
    alarm_type: AlarmType
    n: int
    auc: float | None  # None when only one class is present (flagged)
    accuracy: float
    single_class: bool


@dataclass(frozen=True)
class ErrorReport:
    fn_ids: tuple[str, ...]
    fp_ids: tuple[str, ...]
    high_confidence_ids: tuple[str, ...]


def per_alarm_report(p_true, records: list[Record]) -> list[PerAlarmRow]:
    """Per-alarm-type sample count, AUC, and accuracy at ``DECISION_THRESHOLD``.

    Types where every record shares one label report accuracy only; their
    AUC is None and the row is flagged single_class.  Anything but one
    finite score per record raises ValueError.
    """
    p, labels = _scores_and_labels(p_true, [r.label for r in records],
                                   "per_alarm_report")
    types = np.array([r.alarm_type for r in records], dtype=object)
    rows = []
    for atype in AlarmType:
        sel = types == atype
        if not sel.any():
            continue
        y, s = labels[sel], p[sel]
        acc = float(np.mean((s >= DECISION_THRESHOLD) == y))
        single = bool(y.all() or not y.any())
        rows.append(PerAlarmRow(
            alarm_type=atype,
            n=int(sel.sum()),
            auc=None if single else _auc(s, y),
            accuracy=acc,
            single_class=single,
        ))
    return rows


def error_report(p_true, labels, record_ids=None) -> ErrorReport:
    """Misclassification breakdown at ``DECISION_THRESHOLD``.

    FN = true alarms scored below it; FP = false alarms scored at or
    above.  A high-confidence error is any misclassified record whose
    winning-class probability exceeds ``HIGH_CONFIDENCE``.  A NaN or
    infinite probability, or a length that differs between ``p_true``,
    ``labels`` and ``record_ids``, raises ValueError.
    """
    p, y = _scores_and_labels(p_true, labels, "error_report")
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    ids = tuple(record_ids) if record_ids is not None else tuple(str(i) for i in range(p.size))
    if len(ids) != p.size:
        raise ValueError(f"error_report requires one record id per score; got "
                         f"{len(ids)} ids for {p.size} scores")
    pred = p >= DECISION_THRESHOLD
    fn = [ids[i] for i in range(p.size) if y[i] and not pred[i]]
    fp = [ids[i] for i in range(p.size) if not y[i] and pred[i]]
    confidence = np.maximum(p, 1.0 - p)
    high = [ids[i] for i in range(p.size)
            if pred[i] != y[i] and confidence[i] > HIGH_CONFIDENCE]
    return ErrorReport(tuple(fn), tuple(fp), tuple(high))


# ---------------------------------------------------------------------------
# Fold aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldSummary:
    mean: float
    std: float
    ci_lo: float
    ci_hi: float


def fold_summary(fold_aucs) -> FoldSummary:
    """Mean, std, and 95% interval (mean +/- 1.96 * std) over fold AUCs.

    The spread is the population std of the fold values, matching the
    published interval arithmetic this toolkit reproduces.  An empty list,
    anything but a 1-D list, or a NaN or inf value raises ValueError.
    """
    a = np.asarray(fold_aucs, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"fold_summary requires a non-empty 1-D list of fold "
                         f"AUCs; got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("fold_summary requires finite fold AUCs; got NaN or inf")
    mean = float(a.mean())
    std = float(a.std(ddof=0))
    return FoldSummary(mean, std, mean - Z_95 * std, mean + Z_95 * std)


# ---------------------------------------------------------------------------
# Report JSON schema (the harness emits documents in this shape)
# ---------------------------------------------------------------------------

REPORT_SCHEMA: dict = {
    "type": "object",
    "required": ["run_id", "config", "folds", "mean_auc", "std_auc", "ci95",
                 "pooled_auc", "confusion", "metrics", "per_alarm", "errors",
                 "delong", "bootstrap", "training"],
    "properties": {
        "run_id": {"type": "string"},
        "config": {"type": "object"},
        "folds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["fold", "auc"],
                "properties": {"fold": {"type": "integer"},
                               "auc": {"type": "number"}},
            },
        },
        "mean_auc": {"type": "number"},
        "std_auc": {"type": "number"},
        "ci95": {"type": "array", "items": {"type": "number"},
                 "minItems": 2, "maxItems": 2},
        "pooled_auc": {"type": ["number", "null"]},
        "confusion": {
            "type": "object",
            "required": ["tp", "tn", "fp", "fn"],
            "properties": {k: {"type": "integer"} for k in ("tp", "tn", "fp", "fn")},
        },
        "metrics": {
            "type": "object",
            "required": ["sensitivity", "specificity", "precision",
                         "f1", "npv", "accuracy"],
        },
        "per_alarm": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["type", "n", "auc", "accuracy"],
                "properties": {
                    "type": {"type": "string"},
                    "n": {"type": "integer"},
                    "auc": {"type": ["number", "null"]},
                    "accuracy": {"type": "number"},
                },
            },
        },
        "errors": {
            "type": "object",
            "required": ["fn", "fp", "high_confidence"],
            "properties": {
                "fn": {"type": "array", "items": {"type": "string"}},
                "fp": {"type": "array", "items": {"type": "string"}},
                "high_confidence": {"type": "array", "items": {"type": "string"}},
            },
        },
        "delong": {
            "type": ["object", "null"],
            "required": ["z", "p", "auc_a", "auc_b", "order"],
            "properties": {**{k: {"type": "number"} for k in ("z", "p", "auc_a", "auc_b")},
                           "order": {"type": "array", "items": {"type": "string"},
                                     "minItems": 2, "maxItems": 2}},
        },
        "bootstrap": {
            "type": ["object", "null"],
            "required": ["lo", "hi", "n_iter", "diff"],
            "properties": {"lo": {"type": "number"}, "hi": {"type": "number"},
                           "n_iter": {"type": "integer"}, "diff": {"type": "string"}},
        },
        "training": {  # one entry per fold of a trained network; empty otherwise
            "type": "array",
            "items": {
                "type": "object",
                "required": ["fold", "epochs", "best_epoch", "stop_reason",
                             "train_loss", "val_auc"],
                "properties": {
                    **{k: {"type": "integer"} for k in ("fold", "epochs", "best_epoch")},
                    "stop_reason": {"type": "string"},
                    **{k: {"type": "array", "items": {"type": "number"}}
                       for k in ("train_loss", "val_auc")},
                },
            },
        },
    },
}
