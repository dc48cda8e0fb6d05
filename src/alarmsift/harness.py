"""Experiment orchestration: the four experiment modes, stratified k-fold
evaluation, the one-parameter-at-a-time sweep, the ablation grids, and
report / plot-data emission.

Every run is reproducible from (data, config, seed): run ids are content
hashes, no wall-clock values are emitted, and re-emission of any report is
byte-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import features as feats
from .net import ModelConfig, predict, stack_sequences, train
from .records import (CHANNEL_ORDER, WINDOW_SECONDS, Channel, Record,
                      _checked_number, _store_number_fields, load_dataset,
                      tail_window, write_csv, write_json)
from .stats import (Confusion, FoldAssignment, auc, confusion_metrics,
                    bootstrap_auc_diff, delong_test, error_report,
                    fold_summary, per_alarm_report, stratified_kfold)
from .temporal import build_sequence, check_chunk_count

EXPERIMENTS = ("temporal", "static", "features", "per_alarm")

# Columns of each plot-data block, so a CSV carries its header even when the
# block has no rows (features and per_alarm runs have no training curve).
_FIGURE_COLUMNS = {
    "per_fold": ("fold", "auc"),
    "per_alarm": ("type", "n", "auc", "accuracy"),
    "error_breakdown": ("category", "count"),
    "training_curve": ("fold", "epoch", "train_loss", "val_auc"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    data_dir: str
    model: ModelConfig = ModelConfig()
    folds: int = 5
    seed: int = 42
    out_dir: str = "runs"
    window_s: float = WINDOW_SECONDS
    channels: tuple[str, ...] = tuple(c.value for c in CHANNEL_ORDER)
    val_fraction: float = 0.15  # inner early-stopping split within train folds
    compare_with: str | None = None

    def __post_init__(self):
        _store_number_fields(self)  # folds, seed, window_s, val_fraction
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")
        if self.compare_with is not None and self.compare_with not in EXPERIMENTS:
            raise ValueError(f"compare_with must be one of {EXPERIMENTS}")
        if self.compare_with == self.experiment:
            raise ValueError(f"compare_with must differ from experiment; both are "
                             f"{self.experiment!r}, and a model compared with "
                             f"itself gives no DeLong or bootstrap result")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        known = [c.value for c in Channel]
        unknown = [c for c in self.channels if c not in known]
        if unknown:
            raise ValueError(f"unknown channel names {unknown}; known: {known}")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"channels {list(self.channels)} name a channel twice")
        feature_runs = {"features", "per_alarm"} & {self.experiment, self.compare_with}
        if feature_runs and set(self.channels) != set(known):
            raise ValueError(f"channels must be all four of {known} for "
                             f"{' and '.join(sorted(feature_runs))}, which read every "
                             f"channel; got {list(self.channels)}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")

    def channel_subset(self) -> tuple[Channel, ...]:
        return tuple(Channel(c) for c in self.channels)

    def resolved_model(self, experiment: str | None = None) -> ModelConfig:
        """Model config of one run of ``experiment`` (default: this config's).

        The one rule for every run: ``static`` is one chunk and zero LSTM
        layers, any other experiment keeps ``model``'s.  The input shape is
        the data's: ``train`` reads the channel count from its input.
        """
        if (experiment or self.experiment) == "static":
            return replace(self.model, n_chunks=1, lstm_layers=0)
        return self.model

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "channels": list(self.channels)}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if "model" in d and isinstance(d["model"], dict):
            d["model"] = ModelConfig.from_dict(d["model"])
        if "channels" in d:
            d["channels"] = tuple(d["channels"])
        return cls(**d)


def run_id_for(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Splitting helpers
# ---------------------------------------------------------------------------

def stratified_split(labels, fractions, seed: int) -> list[np.ndarray]:
    """Disjoint index groups with per-class proportions ~= ``fractions``."""
    labels = np.asarray(labels, dtype=bool)
    fracs = np.asarray(fractions, dtype=np.float64)
    if abs(fracs.sum() - 1.0) > 1e-9 or (fracs <= 0).any():
        raise ValueError("fractions must be positive and sum to 1")
    rng = np.random.default_rng(seed)
    groups: list[list[np.ndarray]] = [[] for _ in fracs]
    for cls in (True, False):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        bounds = np.floor(np.cumsum(fracs) * idx.size + 0.5).astype(int)
        bounds[-1] = idx.size
        start = 0
        for gi, b in enumerate(bounds):
            groups[gi].append(idx[start:b])
            start = b
    return [np.sort(np.concatenate(g)) for g in groups]


def _assert_no_leakage(train_idx, eval_idx, ids):
    overlap = set(np.asarray(train_idx).tolist()) & set(np.asarray(eval_idx).tolist())
    if overlap:  # structurally impossible; guarded per the evaluation contract
        leaked = sorted(ids[i] for i in overlap)[:5]
        raise RuntimeError(f"fold leakage: train/eval share records {leaked}")


# ---------------------------------------------------------------------------
# Data preparation
# ---------------------------------------------------------------------------

def prepare_records(data_dir, window_s: float) -> list[Record]:
    """Every record under ``data_dir``, cut to its final ``window_s``.

    A record shorter than the window is refused by name.  A dataset has one
    sampling rate: CWT scales are in samples, so records at other rates
    would give scalograms of other time scales.  The first record whose
    ``fs`` differs from the first record's is refused, with both rates.
    """
    records = load_dataset(data_dir)
    if not records:
        raise ValueError(f"no records found under {data_dir}")
    first = records[0]
    for r in records:
        if r.fs != first.fs:
            raise ValueError(f"record {r.record_id} is sampled at {r.fs} Hz, but "
                             f"{first.record_id} at {first.fs} Hz; a dataset "
                             f"must have one sampling rate")
    return [tail_window(r, window_s) for r in records]


def build_sequences(records, n_chunks, channel_subset) -> np.ndarray:
    return stack_sequences(
        [build_sequence(r, n_chunks, channel_subset) for r in records])


def _beat_matrix(records) -> np.ndarray:
    ecgs = ((r.channel(Channel.ECG_II).astype(np.float64), r.fs) for r in records)
    return np.stack([feats.beat_features(ecg, feats.detect_beats(ecg, fs))
                     for ecg, fs in ecgs])


# ---------------------------------------------------------------------------
# Cross-validation: one fold loop for every experiment
# ---------------------------------------------------------------------------

class _CrossValidation(NamedTuple):
    oof: np.ndarray        # out-of-fold score of every record
    fold_aucs: list        # held-out AUC of each fold
    histories: list        # TrainHistory of each fold; empty for linear models


def _cross_validate(experiment: str, cfg: ExperimentConfig, x, records,
                    assignment: FoldAssignment) -> _CrossValidation:
    """k-fold CV of ``experiment`` on input ``x`` (row i is ``records[i]``).

    temporal / static: the sequence model, trained with an inner stratified
    early-stopping split.  features: one logistic model.  per_alarm: one per
    alarm type; a type whose training part lacks a class scores 0.5.
    """
    labels = np.array([r.label for r in records], dtype=bool)
    ids = [r.record_id for r in records]
    model_cfg = cfg.resolved_model(experiment)
    per_type = experiment == "per_alarm"  # else one group of every record
    groups = np.array([r.alarm_type if per_type else None for r in records],
                      dtype=object)
    oof = np.full(labels.size, np.nan)
    fold_aucs, histories = [], []
    for fold in range(assignment.k):
        tr, te = assignment.train_indices(fold), assignment.test_indices(fold)
        _assert_no_leakage(tr, te, ids)
        if experiment in ("temporal", "static"):
            fit_rel, stop_rel = stratified_split(
                labels[tr], [1.0 - cfg.val_fraction, cfg.val_fraction],
                cfg.seed + 101 * fold)
            params, history = train(x, labels, tr[fit_rel], tr[stop_rel],
                                    replace(model_cfg, seed=model_cfg.seed + fold))
            oof[te] = predict(x[te], params)
            histories.append(history)
        else:
            oof[te] = 0.5
            for group in set(groups[te]):
                tr_g, te_g = tr[groups[tr] == group], te[groups[te] == group]
                if not per_type or labels[tr_g].any() and not labels[tr_g].all():
                    model = feats.linear_classifier_fit(x[tr_g], labels[tr_g],
                                                        seed=cfg.seed + fold)
                    oof[te_g] = feats.linear_classifier_predict(model, x[te_g])
        fold_aucs.append(auc(oof[te], labels[te]))
    return _CrossValidation(oof, fold_aucs, histories)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> Path:
    """Execute one experiment config; returns the run directory.

    Per fold: train on the other k-1 folds (with an inner early-stopping
    split for the sequence models), score the held-out fold.  Emits
    report.json, predictions.csv, and training_curves.csv.
    """
    records = prepare_records(cfg.data_dir, cfg.window_s)
    labels = np.array([r.label for r in records], dtype=bool)
    assignment = stratified_kfold(labels, cfg.folds, cfg.seed)

    # built on first use and shared, so features and per_alarm extract once
    record_features = functools.cache(
        lambda: np.stack([feats.extract_features(r).values for r in records]))

    def model_input(experiment) -> np.ndarray:
        if experiment in ("temporal", "static"):
            return build_sequences(records, cfg.resolved_model(experiment).n_chunks,
                                   cfg.channel_subset())
        if experiment == "features":
            return record_features()
        return np.hstack([record_features(), _beat_matrix(records)])  # per_alarm

    # each input is a temporary, freed before the next one is built
    oof, fold_aucs, histories = _cross_validate(
        cfg.experiment, cfg, model_input(cfg.experiment), records, assignment)
    delong_blob = bootstrap_blob = None
    if cfg.compare_with is not None:
        base_oof = _cross_validate(cfg.compare_with, cfg, model_input(cfg.compare_with),
                                   records, assignment).oof
        # baseline first so the z statistic is negative when the main model wins
        dl = delong_test(base_oof, oof, labels)
        ci = bootstrap_auc_diff(oof, base_oof, labels, seed=cfg.seed)
        delong_blob = {"z": dl.z, "p": dl.p,
                       "auc_a": dl.auc_a, "auc_b": dl.auc_b,
                       "order": [cfg.compare_with, cfg.experiment]}
        bootstrap_blob = {"lo": ci.lower, "hi": ci.upper, "n_iter": ci.n_iter,
                          "diff": f"{cfg.experiment} - {cfg.compare_with}"}

    summary = fold_summary(fold_aucs)
    confusion = Confusion.from_predictions(oof, labels)
    metrics = confusion_metrics(confusion)
    pooled = auc(oof, labels)
    per_alarm = per_alarm_report(oof, records)
    errors = error_report(oof, labels, [r.record_id for r in records])

    report = {
        "run_id": run_id_for(cfg),
        "config": cfg.to_dict(),
        "folds": [{"fold": f, "auc": fold_aucs[f]} for f in range(cfg.folds)],
        "mean_auc": summary.mean,
        "std_auc": summary.std,
        "ci95": [summary.ci_lo, summary.ci_hi],
        "pooled_auc": pooled,
        "confusion": {"tp": confusion.tp, "tn": confusion.tn,
                      "fp": confusion.fp, "fn": confusion.fn},
        "metrics": {**metrics.as_dict(), "auc": pooled},
        "per_alarm": [{"type": row.alarm_type.value, "n": row.n,
                       "auc": row.auc, "accuracy": row.accuracy}
                      for row in per_alarm],
        "errors": {"fn": list(errors.fn_ids), "fp": list(errors.fp_ids),
                   "high_confidence": list(errors.high_confidence_ids)},
        "delong": delong_blob,
        "bootstrap": bootstrap_blob,
        "training": [
            {"fold": f, "epochs": h.epochs_run, "best_epoch": h.best_epoch,
             "stop_reason": h.stop_reason, "train_loss": h.train_loss,
             "val_auc": h.val_auc}
            for f, h in enumerate(histories)
        ],
    }

    run_dir = Path(cfg.out_dir) / f"{cfg.experiment}-{report['run_id']}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "report.json", report)
    write_csv(run_dir / "predictions.csv",
              ["record_id", "alarm_type", "label", "fold", "p_true"],
              ([r.record_id, r.alarm_type.value, int(r.label),
                int(assignment.fold_of[i]), oof[i]]
               for i, r in enumerate(records)))
    write_csv(run_dir / "training_curves.csv", _FIGURE_COLUMNS["training_curve"],
              (row.values() for row in _training_curve(report["training"])))
    return run_dir


def _training_curve(training) -> list[dict]:
    """One row per (fold, epoch) of a report's ``training`` block."""
    return [dict(zip(_FIGURE_COLUMNS["training_curve"], (blob["fold"], e, tl, va)))
            for blob in training
            for e, (tl, va) in enumerate(zip(blob["train_loss"], blob["val_auc"]), 1)]


# ---------------------------------------------------------------------------
# Holdout training (`alarmsift train`; the sweep trains on the same split)
# ---------------------------------------------------------------------------

_HOLDOUT_FRACTIONS = (0.70, 0.15, 0.15)


def holdout_run(x, labels, model_cfg: ModelConfig, split_seed: int):
    """Single stratified 70/15/15 train/val/test run.

    Returns (params, history, val_auc_at_best, test_auc).
    """
    tr, va, te = stratified_split(labels, _HOLDOUT_FRACTIONS, split_seed)
    params, history = train(x, labels, tr, va, model_cfg)
    best_val = max(history.val_auc)
    test_auc = auc(predict(x[te], params), labels[te])
    return params, history, best_val, test_auc


# ---------------------------------------------------------------------------
# Hyperparameter sweep (one parameter at a time)
# ---------------------------------------------------------------------------

# ModelConfig fields a sweep sets itself: the seed per repeat, and the chunk
# count, which the one tensor that every run trains on fixes.
_SWEEP_FIXED = ("seed", "n_chunks")


@dataclass(frozen=True)
class SweepSpec:
    axes: dict = field(default_factory=lambda: {
        "lstm_hidden": (64, 128, 256, 512),
        "dropout": (0.2, 0.3, 0.4, 0.5),
        "learning_rate": (1e-2, 1e-3, 1e-4, 1e-5),
    })
    repeats: int = 4

    def __post_init__(self):
        _store_number_fields(self)  # repeats
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        tunable = [f.name for f in dataclasses.fields(ModelConfig)
                   if f.name not in _SWEEP_FIXED]
        for axis, values in self.axes.items():
            if axis not in tunable:
                raise ValueError(f"sweep axis {axis!r} is not a ModelConfig field "
                                 f"a sweep can vary; those are {tunable}")
            if len(values) == 0:
                raise ValueError(f"sweep axis {axis!r} has no values")

    @property
    def total_runs(self) -> int:
        return sum(len(v) for v in self.axes.values()) * self.repeats


@dataclass
class SweepResult:
    rows: list[dict]       # one per axis: parameter, values, winner, val_auc
    runs: list[dict]       # every executed run

    @property
    def runs_executed(self) -> int:
        return len(self.runs)


def sweep(spec: SweepSpec, base: ExperimentConfig) -> SweepResult:
    """For each axis, vary only that parameter (others at their defaults),
    train ``repeats`` times per value on the fixed 70/15/15 split of
    ``holdout_run``, and pick the winner by mean validation AUC.  The test
    part of the split is never scored.  Every run's config is built, and so
    checked, before the first record is read."""
    model_base = base.resolved_model()
    configs = {axis: [[replace(model_base, **{axis: value}, seed=model_base.seed + r)
                       for r in range(spec.repeats)] for value in values]
               for axis, values in spec.axes.items()}
    records = prepare_records(base.data_dir, base.window_s)
    labels = np.array([r.label for r in records], dtype=bool)
    x = build_sequences(records, model_base.n_chunks, base.channel_subset())
    tr, va, _ = stratified_split(labels, _HOLDOUT_FRACTIONS, base.seed)

    runs, rows = [], []
    for axis, values in spec.axes.items():
        means = []
        for value, value_cfgs in zip(values, configs[axis]):
            aucs = []
            for r, cfg_run in enumerate(value_cfgs):
                _, history = train(x, labels, tr, va, cfg_run)
                best_val = max(history.val_auc)
                aucs.append(best_val)
                runs.append({"parameter": axis, "value": value, "repeat": r,
                             "val_auc": best_val})
            means.append(float(np.mean(aucs)))
        win = int(np.argmax(means))
        rows.append({"parameter": axis, "values": list(values),
                     "winner": values[win], "val_auc": means[win]})
    return SweepResult(rows=rows, runs=runs)


def write_sweep(result: SweepResult, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "sweep.json", {"rows": result.rows, "runs": result.runs,
                                        "runs_executed": result.runs_executed})
    write_csv(out_dir / "sweep.csv",
              ["parameter", "values_tested", "winner", "val_auc"],
              ([row["parameter"], " ".join(str(v) for v in row["values"]),
                row["winner"], row["val_auc"]] for row in result.rows))
    return out_dir


# ---------------------------------------------------------------------------
# Ablation grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationSpec:
    chunk_grid: tuple[int, ...] = (1, 2, 3, 6)
    channel_grid: tuple[int, ...] = (1, 2, 4)  # prefixes of the configured channels
    folds: int = 3

    def __post_init__(self):
        _store_number_fields(self)  # folds
        for name in ("chunk_grid", "channel_grid"):
            grid = getattr(self, name)
            if isinstance(grid, (str, bytes)) or not hasattr(grid, "__iter__"):
                raise ValueError(f"{name} must be a sequence of integers, got {grid!r}")
            object.__setattr__(self, name, tuple(
                _checked_number(f"{name} entry", v, "int") for v in grid))
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if any(n < 1 for n in self.chunk_grid):
            raise ValueError(f"chunk_grid: chunk counts must be >= 1, "
                             f"got {self.chunk_grid}")
        if any(not 1 <= c <= len(CHANNEL_ORDER) for c in self.channel_grid):
            raise ValueError(f"channel_grid: channel counts must lie in "
                             f"1..{len(CHANNEL_ORDER)}, got {self.channel_grid}")


@dataclass
class AblationResult:
    chunk_rows: list[dict]
    channel_rows: list[dict]


def ablate(spec: AblationSpec, base: ExperimentConfig) -> AblationResult:
    """``spec.folds``-fold CV per condition: chunk grid at all of
    ``base.channels``, channel grid at ``base.model.n_chunks``.  The chunks=1
    condition is the static (zero LSTM layers) model, and ``channels=c``
    uses the first ``c`` of ``base.channels``.

    Every chunk count is checked against the record length, and every
    channel count against ``base.channels``, before the first transform.
    ``prepare_records`` gives every record the same length, so the first
    record stands for all.
    Conditions naming the same model, (n_chunks, n_channels), are trained
    once.  Each chunk count's tensor is built once, over the widest channel
    prefix its conditions use, and freed before the next one is built.  A
    condition takes a channel slice of it; every (chunk, channel) scalogram
    is normalised on its own, so the slice equals a tensor built narrower.
    """
    subset = base.channel_subset()
    too_wide = [c for c in spec.channel_grid if c > len(subset)]
    if too_wide:
        raise ValueError(f"channel counts {too_wide} exceed the {len(subset)} "
                         f"configured channels {base.channels}")
    records = prepare_records(base.data_dir, base.window_s)
    conditions = ([(f"chunks={n}", n, len(subset)) for n in spec.chunk_grid]
                  + [(f"channels={c}", base.model.n_chunks, c)
                     for c in spec.channel_grid])
    channel_counts = {}  # chunk count -> its distinct channel counts, in grid order
    for _, n_chunks, n_channels in conditions:
        channel_counts.setdefault(n_chunks, {})[n_channels] = None
    for n_chunks in channel_counts:
        check_chunk_count(records[0], n_chunks)
    assignment = stratified_kfold([r.label for r in records], spec.folds, base.seed)

    fold_aucs = {}
    for n_chunks, widths in channel_counts.items():
        x = build_sequences(records, n_chunks, subset[:max(widths)])
        cfg = replace(base, model=replace(base.model, n_chunks=n_chunks))
        for n_channels in widths:
            fold_aucs[n_chunks, n_channels] = _cross_validate(
                "static" if n_chunks == 1 else "temporal", cfg,
                x[:, :, :n_channels], records, assignment).fold_aucs
        del x  # nothing else holds the tensor, so this frees it

    rows = []
    for name, n_chunks, n_channels in conditions:
        aucs = fold_aucs[n_chunks, n_channels]
        s = fold_summary(aucs)
        rows.append({"condition": name, "mean_auc": s.mean, "std_auc": s.std,
                     "fold_aucs": list(map(float, aucs))})
    n_chunk_rows = len(spec.chunk_grid)
    return AblationResult(chunk_rows=rows[:n_chunk_rows],
                          channel_rows=rows[n_chunk_rows:])


def write_ablation(result: AblationResult, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "ablation.json",
               {"chunks": result.chunk_rows, "channels": result.channel_rows})
    for name, rows in (("ablation_chunks.csv", result.chunk_rows),
                       ("ablation_channels.csv", result.channel_rows)):
        write_csv(out_dir / name, ["condition", "mean_auc", "std_auc"],
                  ([row["condition"], row["mean_auc"], row["std_auc"]]
                   for row in rows))
    return out_dir


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------

def _check_format(fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")


def emit_report(run_dir, fmt: str = "csv") -> list[Path]:
    """Emit per-figure plot data from a completed run directory.

    csv: one file per figure (fold bars, per-alarm bars, error breakdown,
    training curve).  json: a single figures.json with the same blocks.
    Emission is deterministic and byte-identical across calls.  Any other
    format raises ValueError before anything is written.
    """
    _check_format(fmt)
    run_dir = Path(run_dir)
    report_path = run_dir / "report.json"
    if not report_path.is_file():
        raise FileNotFoundError(f"incomplete run directory: {report_path} missing")
    report = json.loads(report_path.read_text())
    out = run_dir / "figures"
    out.mkdir(exist_ok=True)
    written: list[Path] = []

    blocks = {
        "per_fold": [{"fold": f["fold"], "auc": f["auc"]} for f in report["folds"]],
        "per_alarm": report["per_alarm"],
        "error_breakdown": [
            {"category": "false_negative", "count": len(report["errors"]["fn"])},
            {"category": "false_positive", "count": len(report["errors"]["fp"])},
            {"category": "high_confidence", "count": len(report["errors"]["high_confidence"])},
        ],
        "training_curve": _training_curve(report.get("training", [])),
    }

    if fmt == "json":
        path = out / "figures.json"
        write_json(path, blocks)
        return [path]
    for name, rows in blocks.items():
        path = out / f"{name}.csv"
        columns = _FIGURE_COLUMNS[name]
        write_csv(path, columns, ([row[k] for k in columns] for row in rows))
        written.append(path)
    return written


def emit_comparison(parent_dir, fmt: str = "csv") -> Path:
    """Experiment-comparison table over every run directory under
    ``parent_dir``, as comparison.csv or comparison.json.  Any other format
    raises ValueError before anything is written."""
    _check_format(fmt)
    parent = Path(parent_dir)
    rows = []
    for report_path in sorted(parent.glob("*/report.json")):
        report = json.loads(report_path.read_text())
        rows.append({"experiment": report["config"]["experiment"],
                     "run_id": report["run_id"],
                     "mean_auc": report["mean_auc"],
                     "std_auc": report["std_auc"]})
    if not rows:
        raise FileNotFoundError(f"no completed runs under {parent}")
    if fmt == "json":
        path = parent / "comparison.json"
        write_json(path, rows)
        return path
    path = parent / "comparison.csv"
    write_csv(path, ["experiment", "run_id", "mean_auc", "std_auc"],
              (row.values() for row in rows))
    return path
