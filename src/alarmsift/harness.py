"""Experiment orchestration: the four experiment modes, stratified k-fold
evaluation, the one-parameter-at-a-time sweep, the ablation grids, and
report / plot-data emission.

Every run is reproducible from (data, config, seed): run ids are content
hashes, no wall-clock values are emitted, and re-emission of any report is
byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import features as feats
from .net import ModelConfig, stack_sequences, train
from .net import _predict as predict  # scores x[rows] in place, no copy
from .records import (CHANNEL_ORDER, AlarmType, Channel, Record,
                      _checked_number, _checked_seed, _checked_sequence,
                      _store_number_fields, load_dataset, tail_window,
                      write_csv, write_json)
from .stats import (Confusion, FoldAssignment, auc, confusion_metrics,
                    bootstrap_auc_diff, delong_test, error_report,
                    fold_summary, per_alarm_report, stratified_kfold)
from .scalogram import _kernel_spectra
from .temporal import build_sequence, check_chunk_count

EXPERIMENTS = ("temporal", "static", "features", "per_alarm")
_SEQUENCE_EXPERIMENTS = ("temporal", "static")  # the rest read a feature matrix


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    data_dir: str
    model: ModelConfig = ModelConfig()
    folds: int = 5
    seed: int = 42
    out_dir: str = "runs"
    channels: tuple[Channel, ...] = CHANNEL_ORDER  # members or their names
    val_fraction: float = 0.15  # inner early-stopping split within train folds
    compare_with: str | None = None

    def __post_init__(self):
        _store_number_fields(self)  # folds, seed, val_fraction
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
        if not isinstance(self.model, ModelConfig):
            raise ValueError(f"model must be a ModelConfig, got {self.model!r}")
        channels = _checked_sequence("channels", self.channels, "channel names")
        known = [c.value for c in Channel]
        unknown = [c for c in channels if not isinstance(c, Channel) and c not in known]
        if unknown:
            raise ValueError(f"unknown channel names {unknown}; known: {known}")
        object.__setattr__(self, "channels", tuple(map(Channel, channels)))
        names = [c.value for c in self.channels]
        if not self.channels:
            raise ValueError("channels must name at least one channel")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"channels {names} name a channel twice")
        feature_runs = {"features", "per_alarm"} & {self.experiment, self.compare_with}
        if feature_runs and set(self.channels) != set(Channel):
            raise ValueError(f"channels must be all four of {known} for "
                             f"{' and '.join(sorted(feature_runs))}, which read every "
                             f"channel; got {names}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")

    def resolved_model(self) -> ModelConfig:
        """Model config of this config's experiment.

        The one rule for every run: ``static`` is one chunk and zero LSTM
        layers, any other experiment keeps ``model``'s.  The input shape is
        the data's: ``train`` reads the channel count from its input.
        """
        if self.experiment == "static":
            return replace(self.model, n_chunks=1, lstm_layers=0)
        return self.model

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self),
                "channels": [c.value for c in self.channels]}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a ``to_dict`` mapping; ``model`` is a mapping of
        ``ModelConfig`` fields, and anything else is refused by name."""
        if not isinstance(d, Mapping):
            raise ValueError(f"an experiment config must be a mapping, got {d!r}")
        d = dict(d)
        if "model" in d:
            if not isinstance(d["model"], Mapping):
                raise ValueError(f"model must be a mapping of ModelConfig fields, "
                                 f"got {d['model']!r}")
            d["model"] = ModelConfig(**d["model"])
        return cls(**d)


def run_id_for(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Splitting helpers
# ---------------------------------------------------------------------------

def stratified_split(labels, fractions, seed: int) -> list[np.ndarray]:
    """Disjoint index groups with per-class proportions ~= ``fractions``.

    ValueError unless ``fractions`` are finite, positive and sum to 1 and
    ``seed`` is an integer >= 0.
    """
    labels = np.asarray(labels, dtype=bool)
    fracs = np.asarray(fractions, dtype=np.float64)
    if (not np.isfinite(fracs).all() or abs(fracs.sum() - 1.0) > 1e-9
            or (fracs <= 0).any()):
        raise ValueError(f"fractions must be finite, positive and sum to 1, "
                         f"got {fracs.tolist()}")
    rng = np.random.default_rng(_checked_seed(seed))
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

def prepare_records(data_dir) -> list[Record]:
    """Every record under ``data_dir``, cut to its final ``WINDOW_SECONDS``.

    A record shorter than the window is refused by name, and so are two
    record directories that share a header ``record_id`` (by
    ``load_dataset``, naming both).  A dataset has one sampling rate: CWT
    scales are in samples, so records at other rates would give scalograms
    of other time scales.  The first record whose ``fs`` differs from the
    first record's is refused, with both rates.  Each returned record holds
    only its window's samples: a longer record's window is a copy
    (``tail_window``), so the rest of its file is freed on return.
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
    return [tail_window(r) for r in records]


@dataclass(frozen=True)
class _LazySequences:
    """The records' sequences, each built only as ``stack_sequences`` reads
    it; sized, so the tensor is allocated before the first is built."""

    records: list
    n_chunks: int
    channels: tuple

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return (build_sequence(r, self.n_chunks, self.channels) for r in self.records)


def build_sequences(records, n_chunks, channels) -> np.ndarray:
    """The (N, n_chunks, C, 64, 64) float32 tensor of ``records``, the one
    form of model input, filled in place by ``stack_sequences``: one
    record's float32 sequence is alive beside it at a time.  The cached
    kernel spectra of its chunk length are dropped once it is filled: the
    next tensor of a run has another chunk length, so another FFT length."""
    x = stack_sequences(_LazySequences(records, n_chunks, channels))
    _kernel_spectra.cache_clear()
    return x


def _beat_matrix(records) -> np.ndarray:
    ecgs = ((r.channel(Channel.ECG_II).astype(np.float64), r.fs) for r in records)
    return np.stack([feats.beat_features(ecg, feats.detect_beats(ecg, fs), fs)
                     for ecg, fs in ecgs])


# ---------------------------------------------------------------------------
# Cross-validation: one fold loop for every experiment
# ---------------------------------------------------------------------------

class _CrossValidation(NamedTuple):
    oof: np.ndarray        # out-of-fold score of every record
    fold_aucs: list        # held-out AUC of each fold
    histories: list        # TrainHistory of each fold; empty for linear models


class _RecordInfo(NamedTuple):
    """What a run keeps of a record once its inputs are built: the fields
    its fold loop and reports read, without the samples."""

    record_id: str
    alarm_type: AlarmType
    label: bool


def _check_both_classes(labels, parts: dict, what: str) -> None:
    """Refuse ``parts`` (name -> record indices) if one lacks a class,
    naming ``what`` and every part's (true, false) counts."""
    counts = {name: (int(labels[idx].sum()), int((~labels[idx]).sum()))
              for name, idx in parts.items()}
    if not all(n_true and n_false for n_true, n_false in counts.values()):
        listed = [f"{c} to {name}" for name, c in counts.items()]
        raise ValueError(f"{what} gives (true, false) counts {', '.join(listed[:-1])} "
                         f"and {listed[-1]}; each part needs both classes")


def _early_stopping_splits(cfg: ExperimentConfig, labels,
                           assignment: FoldAssignment) -> list[tuple]:
    """Each fold's inner (fit, stop) split of its training records, drawn
    by ``stratified_split`` from ``cfg.seed + 101 * fold`` at
    ``cfg.val_fraction``.  A part that lacks a class is refused, naming the
    fold, the model, ``val_fraction`` and both parts' class counts.
    """
    splits = []
    for fold in range(assignment.k):
        tr = assignment.train_indices(fold)
        fit_rel, stop_rel = stratified_split(
            labels[tr], [1.0 - cfg.val_fraction, cfg.val_fraction], cfg.seed + 101 * fold)
        fit, stop = tr[fit_rel], tr[stop_rel]
        _check_both_classes(
            labels, {"fit on": fit, "stop on": stop},
            f"fold {fold} of {cfg.experiment}, n_chunks "
            f"{cfg.resolved_model().n_chunks} and {len(cfg.channels)} channels: "
            f"the early-stopping split at val_fraction {cfg.val_fraction}")
        splits.append((fit, stop))
    return splits


def _cross_validate(cfg: ExperimentConfig, x, infos, assignment: FoldAssignment,
                    splits) -> _CrossValidation:
    """k-fold CV of ``cfg.experiment`` on input ``x``; row i is the record
    whose ``record_id``, ``alarm_type`` and ``label`` are ``infos[i]``'s (a
    ``_RecordInfo`` or a ``Record``).

    temporal / static: the sequence model, trained on each fold's
    ``splits`` entry from ``_early_stopping_splits``, fitting on the first
    part and stopping early on the second (``splits`` is None for the
    linear models).  features: one logistic model per fold.
    per_alarm: one per alarm type and fold; a type whose training part lacks
    a class scores 0.5.  The logistic models of all folds are fitted in one
    ``linear_classifier_fit`` call.
    """
    labels = np.array([r.label for r in infos], dtype=bool)
    ids = [r.record_id for r in infos]
    model_cfg = cfg.resolved_model()
    sequence_model = cfg.experiment in _SEQUENCE_EXPERIMENTS
    per_type = cfg.experiment == "per_alarm"  # else one group of every record
    groups = np.array([r.alarm_type if per_type else None for r in infos],
                      dtype=object)
    # AlarmType order: a set of members would follow their name hashes,
    # which change with PYTHONHASHSEED
    group_order = list(AlarmType) if per_type else [None]
    oof = np.full(labels.size, np.nan)
    test_folds, histories, problems, problem_tests = [], [], [], []
    for fold in range(assignment.k):
        tr, te = assignment.train_indices(fold), assignment.test_indices(fold)
        _assert_no_leakage(tr, te, ids)
        test_folds.append(te)
        if sequence_model:
            params, history = train(x, labels, *splits[fold],
                                    replace(model_cfg, seed=model_cfg.seed + fold))
            oof[te] = predict(x, te, params)
            histories.append(history)
            continue
        oof[te] = 0.5
        for group in group_order:
            tr_g, te_g = tr[groups[tr] == group], te[groups[te] == group]
            if te_g.size and (not per_type
                              or labels[tr_g].any() and not labels[tr_g].all()):
                problems.append((x[tr_g], labels[tr_g], cfg.seed + fold))
                problem_tests.append(te_g)
    if not sequence_model:
        for model, te_g in zip(feats.linear_classifier_fit(problems), problem_tests):
            oof[te_g] = feats.linear_classifier_predict(model, x[te_g])
    fold_aucs = [auc(oof[te], labels[te]) for te in test_folds]
    return _CrossValidation(oof, fold_aucs, histories)


def _cross_validate_each(cfgs) -> tuple[list[_RecordInfo], FoldAssignment,
                                         list[_CrossValidation]]:
    """``_cross_validate`` of every config in ``cfgs``, in order, on the
    records under their ``data_dir``, split into their ``folds`` at their
    ``seed`` (the configs share all three): the one place a model input is
    built, and the one holder of the records' samples.  Returns each
    record's ``_RecordInfo``, the fold assignment and the configs' results.

    Configs that name the same model (experiment, resolved model and
    channels) are cross-validated once.  Before any input is built, every
    chunk count is checked against the record length (``prepare_records``
    gives every record the same length, so the first record stands for
    all), and every sequence model's early-stopping splits are drawn and
    checked.
    Feature inputs are built first, each record's features extracted at
    most once (per_alarm adds the beat columns); then each chunk count's
    tensor, one at a time, in the order its first config comes.  A tensor
    is built once, over the widest channel tuple of its configs, and freed
    before the next is built.  The configs that share a chunk count name
    prefixes of one channel tuple (a run's two models name the same one,
    and ablation cells name prefixes of ``base.channels``), and each takes
    its prefix of the tensor; every (chunk, channel) scalogram is
    normalised on its own, so the slice equals a tensor built narrower.
    Once the last input is built, the records are dropped: their samples
    are freed before the models that read it are fitted.
    """
    records = prepare_records(cfgs[0].data_dir)
    infos = [_RecordInfo(r.record_id, r.alarm_type, r.label) for r in records]
    labels = np.array([r.label for r in infos], dtype=bool)
    assignment = stratified_kfold(labels, cfgs[0].folds, cfgs[0].seed)
    models = [(cfg.experiment, cfg.resolved_model(), cfg.channels) for cfg in cfgs]
    inputs = {}  # chunk count or feature experiment -> {model: its first config}
    for model, cfg in zip(models, cfgs):
        sequence_model = cfg.experiment in _SEQUENCE_EXPERIMENTS
        key = cfg.resolved_model().n_chunks if sequence_model else cfg.experiment
        inputs.setdefault(key, {}).setdefault(model, cfg)
    for key in inputs:
        if not isinstance(key, str):
            check_chunk_count(records[0], key)
    splits = {model: _early_stopping_splits(cfg, labels, assignment)
              for readers in inputs.values() for model, cfg in readers.items()
              if cfg.experiment in _SEQUENCE_EXPERIMENTS}

    order = sorted(inputs, key=lambda key: not isinstance(key, str))  # features first
    results, record_features = {}, None
    for key in order:
        readers = inputs[key]
        if isinstance(key, str):  # features or per_alarm
            if record_features is None:
                record_features = np.stack([feats.extract_features(r) for r in records])
            x = record_features if key == "features" else np.hstack(
                [record_features, _beat_matrix(records)])
        else:
            widest = max((cfg.channels for cfg in readers.values()), key=len)
            x = build_sequences(records, key, widest)
        if key == order[-1]:
            del records  # the last input is built: free every record's samples
        for model, cfg in readers.items():
            cfg_x = x if isinstance(key, str) else x[:, :, :len(cfg.channels)]
            results[model] = _cross_validate(cfg, cfg_x, infos, assignment,
                                             splits.get(model))
        del x  # nothing else holds a tensor: freed before the next is built
    return infos, assignment, [results[model] for model in models]


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> Path:
    """Execute one experiment config; returns the run directory.

    Per fold: train on the other k-1 folds (with an inner early-stopping
    split for the sequence models), score the held-out fold.  Writes
    report.json and predictions.csv; ``emit_report`` writes the plot data.
    """
    cfgs = [cfg]
    if cfg.compare_with is not None:
        cfgs.append(replace(cfg, experiment=cfg.compare_with, compare_with=None))
    infos, assignment, results = _cross_validate_each(cfgs)
    (oof, fold_aucs, histories), *baseline = results
    labels = np.array([r.label for r in infos], dtype=bool)
    delong_blob = bootstrap_blob = None
    if baseline:
        base_oof = baseline[0].oof
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
    per_alarm = per_alarm_report(oof, infos)
    errors = error_report(oof, labels, [r.record_id for r in infos])

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
               for i, r in enumerate(infos)))
    return run_dir


# ---------------------------------------------------------------------------
# Hyperparameter sweep (one parameter at a time)
# ---------------------------------------------------------------------------

# ModelConfig fields a sweep sets itself: the seed per repeat, and the chunk
# count, which the one tensor that every run trains on fixes.
_SWEEP_FIXED = ("seed", "n_chunks")
_SWEEP_FRACTIONS = (0.70, 0.15, 0.15)  # train / val / an unscored test part


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
        if not isinstance(self.axes, Mapping):
            raise ValueError(f"axes must be a mapping of ModelConfig field names "
                             f"to values, got {self.axes!r}")
        tunable = [f.name for f in dataclasses.fields(ModelConfig)
                   if f.name not in _SWEEP_FIXED]
        axes = {}
        for axis, values in self.axes.items():
            if axis not in tunable:
                raise ValueError(f"sweep axis {axis!r} is not a ModelConfig field "
                                 f"a sweep can vary; those are {tunable}")
            axes[axis] = _checked_sequence(f"sweep axis {axis!r}", values, "values")
            if not axes[axis]:
                raise ValueError(f"sweep axis {axis!r} has no values")
        object.__setattr__(self, "axes", axes)

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
    train ``repeats`` times per value on one fixed 70/15/15 split drawn from
    the experiment ``seed``, and pick the winner by mean validation AUC.
    The test part of the split is never scored.  Every run's config is
    built, and so checked, before the first record is read; the split is
    drawn and checked before any input is built: a train or validation
    part that lacks a class is refused, naming the fractions and both
    parts' class counts.  The records are dropped once the one tensor that
    every run trains on is built."""
    model_base = base.resolved_model()
    configs = {axis: [[replace(model_base, **{axis: value}, seed=model_base.seed + r)
                       for r in range(spec.repeats)] for value in values]
               for axis, values in spec.axes.items()}
    records = prepare_records(base.data_dir)
    labels = np.array([r.label for r in records], dtype=bool)
    tr, va, _ = stratified_split(labels, _SWEEP_FRACTIONS, base.seed)
    _check_both_classes(labels, {"train on": tr, "validate on": va},
                        f"the sweep split of {labels.size} records at fractions "
                        f"{_SWEEP_FRACTIONS}")
    x = build_sequences(records, model_base.n_chunks, base.channels)
    del records  # every run trains on x: free the records' samples

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
            grid = _checked_sequence(name, getattr(self, name), "integers")
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

    Every channel count is checked against ``base.channels`` before the
    first record is read.  Each condition is one config of
    ``_cross_validate_each`` at ``spec.folds`` folds, so every chunk count
    is checked before the first transform, conditions naming the same model
    are trained once, each chunk count's tensor is built once, and the
    records' samples are freed once the last tensor is built.
    """
    too_wide = [c for c in spec.channel_grid if c > len(base.channels)]
    if too_wide:
        raise ValueError(f"channel counts {too_wide} exceed the {len(base.channels)} "
                         f"configured channels {tuple(c.value for c in base.channels)}")
    conditions = ([(f"chunks={n}", n, len(base.channels)) for n in spec.chunk_grid]
                  + [(f"channels={c}", base.model.n_chunks, c)
                     for c in spec.channel_grid])
    cfgs = [replace(base, experiment="static" if n_chunks == 1 else "temporal",
                    model=replace(base.model, n_chunks=n_chunks),
                    channels=base.channels[:n_channels], folds=spec.folds,
                    compare_with=None)
            for _, n_chunks, n_channels in conditions]
    _, _, results = _cross_validate_each(cfgs)

    rows = []
    for (name, _, _), cv in zip(conditions, results):
        s = fold_summary(cv.fold_aucs)
        rows.append({"condition": name, "mean_auc": s.mean, "std_auc": s.std,
                     "fold_aucs": list(map(float, cv.fold_aucs))})
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

def emit_report(run_dir) -> list[Path]:
    """Write the plot data of a completed run directory, one CSV per figure
    in its ``figures/``: fold bars, per-alarm bars, error breakdown and
    training curve (one row per fold and epoch).  Every CSV has its header,
    even with no rows, and re-emission is byte-identical.
    """
    run_dir = Path(run_dir)
    report_path = run_dir / "report.json"
    if not report_path.is_file():
        raise FileNotFoundError(f"incomplete run directory: {report_path} missing")
    report = json.loads(report_path.read_text())
    out = run_dir / "figures"
    out.mkdir(exist_ok=True)
    errors = report["errors"]
    figures = {
        "per_fold": (("fold", "auc"), ([f["fold"], f["auc"]] for f in report["folds"])),
        "per_alarm": (("type", "n", "auc", "accuracy"),
                      ([row["type"], row["n"], row["auc"], row["accuracy"]]
                       for row in report["per_alarm"])),
        "error_breakdown": (("category", "count"), [
            ["false_negative", len(errors["fn"])],
            ["false_positive", len(errors["fp"])],
            ["high_confidence", len(errors["high_confidence"])]]),
        "training_curve": (("fold", "epoch", "train_loss", "val_auc"), (
            [blob["fold"], epoch, loss, val_auc]
            for blob in report["training"]
            for epoch, (loss, val_auc) in enumerate(
                zip(blob["train_loss"], blob["val_auc"]), 1))),
    }
    written = []
    for name, (columns, rows) in figures.items():
        written.append(out / f"{name}.csv")
        write_csv(written[-1], columns, rows)
    return written


def emit_comparison(parent_dir) -> Path:
    """comparison.csv, the experiment-comparison table over every run
    directory under ``parent_dir``: one row per run."""
    parent = Path(parent_dir)
    rows = []
    for report_path in sorted(parent.glob("*/report.json")):
        report = json.loads(report_path.read_text())
        rows.append([report["config"]["experiment"], report["run_id"],
                     report["mean_auc"], report["std_auc"]])
    if not rows:
        raise FileNotFoundError(f"no completed runs under {parent}")
    path = parent / "comparison.csv"
    write_csv(path, ["experiment", "run_id", "mean_auc", "std_auc"], rows)
    return path
