"""Span tracing around the public functions of each alarmsift layer.

Spans are recorded at the boundary between a caller and a layer: a
function is wrapped under the name its *calling* module looks it up by
(``alarmsift.temporal.cwt``, ``alarmsift.harness.train``), so a layer's
calls into itself stay untraced -- the 2000 ``auc`` calls inside
``bootstrap_auc_diff`` resolve through ``alarmsift.stats`` and never reach a
wrapper.  The library source is not modified; the wrappers are installed
for the lifetime of one ``instrument`` block in one worker process.

Spans are kept in memory and written out once, when the worker ends.
"""

from __future__ import annotations

import functools
import hashlib
import time
import types
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = ("records", "scalogram", "temporal", "net", "features", "stats",
          "harness")
TAIL_MIN_BEYOND = 10  # a tail percentile needs at least this many calls above it
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    name: str            # "<module>.<function>", e.g. "scalogram.cwt"
    start: float         # perf_counter seconds
    end: float
    parent: int          # index of the enclosing span, -1 at the root
    digest: str | None   # content hash of the input, for unique_ratio
    counts: dict         # work done, e.g. {"records": 48}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


def _cwt_key(signal, scales, params, fs=None, *_, **__):
    values = getattr(scales, "values", scales)  # a ScaleGrid or raw scales
    return _sha(np.asarray(signal, dtype=np.float64),
                np.asarray(values, dtype=np.float64), params, fs)


def _record_key(record, *_, **__):
    return _sha(record.samples, record.fs, [c.value for c in record.channels])


def _n_records(out, *_, **__):
    return {"records": len(out)}


def _train_work(out, sequences, labels, train_idx, *_, **__):
    epochs = out[1].epochs_run
    return {"epochs": epochs, "samples": epochs * len(train_idx)}


class Tracer:
    """In-memory span recorder.  ``wrap`` returns a traced stand-in."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, key=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            digest = key(*args, **kwargs) if key is not None else None
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, 0.0, 0.0, parent, digest, {}))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx].start, self.spans[idx].end = start, end
            if count is not None:
                self.spans[idx].counts = count(out, *args, **kwargs)
            return out
        return traced

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def instrument(tracer: Tracer, alarmsift):
    """Wrap each layer's public functions in the namespace of its caller.

    ``harness`` reaches the features layer through its module alias
    ``feats``; that alias is replaced by a copy of the module whose four
    entry points are wrapped, so ``alarmsift.features`` itself is untouched.
    """
    harness, temporal, features = (alarmsift.harness, alarmsift.temporal,
                                   alarmsift.features)
    feats_proxy = types.ModuleType(features.__name__)
    feats_proxy.__dict__.update(vars(features))
    sites = [
        (temporal, "cwt", "scalogram.cwt", _cwt_key, None),
        (temporal, "to_scalogram", "scalogram.to_scalogram", None, None),
        (harness, "load_dataset", "records.load_dataset", None, _n_records),
        (harness, "build_sequence", "temporal.build_sequence", None, None),
        (harness, "stack_sequences", "net.stack_sequences", None, None),
        (harness, "train", "net.train", None, _train_work),
        (harness, "predict", "net.predict", None, _n_records),
        (harness, "auc", "stats.auc", None, None),
        (harness, "delong_test", "stats.delong_test", None, None),
        (harness, "bootstrap_auc_diff", "stats.bootstrap_auc_diff", None, None),
        (feats_proxy, "extract_features", "features.extract_features",
         _record_key, None),
        (feats_proxy, "detect_beats", "features.detect_beats", None, None),
        (feats_proxy, "beat_features", "features.beat_features", None, None),
        (feats_proxy, "linear_classifier_fit", "features.linear_classifier_fit",
         None, None),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in sites
             if mod is not feats_proxy]
    saved.append((harness, "feats", harness.feats))
    try:
        for mod, attr, name, key, count in sites:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), key, count))
        harness.feats = feats_proxy
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def entry_points(tracer: Tracer, alarmsift) -> dict:
    """Traced stand-ins for the calls the benchmark itself makes."""
    return {
        "synth_dataset": tracer.wrap("records.synth_dataset",
                                     alarmsift.synth_dataset, count=_n_records),
        "write_dataset": tracer.wrap("records.write_dataset",
                                     alarmsift.write_dataset),
        "run_experiment": tracer.wrap("harness.run_experiment",
                                      alarmsift.run_experiment),
        "ablate": tracer.wrap("harness.ablate", alarmsift.ablate),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans
# ---------------------------------------------------------------------------

# (metric name, unit).  Every traced run reports all of them: 0 for a
# function the workload never calls.  ``trace.overhead_frac`` compares the
# traced and untraced calls and is filled in by run.py.  Beside each
# ``tail_ms``, span_metrics also returns the percentile level it was taken
# at as ``tail_pct``; that is context for the reader, not a metric.
PER_LAYER = (
    ("records.synth_dataset.ms_per_record", "ms"),
    ("records.write_dataset.self_s", "s"),
    ("records.load_dataset.self_s", "s"),
    ("scalogram.cwt.self_s", "s"),
    ("scalogram.cwt.calls", "count"),
    ("scalogram.cwt.p50_ms", "ms"),
    ("scalogram.cwt.tail_ms", "ms"),
    ("scalogram.cwt.unique_ratio", "ratio"),
    ("scalogram.to_scalogram.self_s", "s"),
    ("temporal.build_sequence.self_s", "s"),
    ("temporal.build_sequence.calls", "count"),
    ("temporal.build_sequence.p50_ms", "ms"),
    ("temporal.build_sequence.tail_ms", "ms"),
    ("net.train.self_s", "s"),
    ("net.train.epochs", "count"),
    ("net.train.samples_per_s", "samples/s"),
    ("net.predict.self_s", "s"),
    ("net.predict.records_per_s", "records/s"),
    ("net.stack_sequences.self_s", "s"),
    ("features.extract_features.self_s", "s"),
    ("features.extract_features.calls", "count"),
    ("features.extract_features.p50_ms", "ms"),
    ("features.extract_features.tail_ms", "ms"),
    ("features.extract_features.unique_ratio", "ratio"),
    ("features.detect_beats.self_s", "s"),
    ("features.beat_features.self_s", "s"),
    ("features.linear_classifier_fit.self_s", "s"),
    ("stats.delong_test.self_s", "s"),
    ("stats.bootstrap_auc_diff.self_s", "s"),
    ("stats.auc.calls", "count"),
    ("stats.auc.self_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.ablate.self_s", "s"),
    *((f"{layer}.self_share", "ratio") for layer in LAYERS),
    ("trace.overhead_frac", "ratio"),
)


def tail(durations) -> tuple[float, float]:
    """(level, value) of the highest percentile in TAIL_LEVELS with at least
    TAIL_MIN_BEYOND calls above it; the median when no level qualifies."""
    n = len(durations)
    if n == 0:
        return 0.0, 0.0
    level = next((p for p in TAIL_LEVELS
                  if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND), 50.0)
    return level, float(np.percentile(durations, level))


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced workload call, from its spans.

    Self time is a span's duration minus that of its direct children;
    children never overlap, because the worker is single-threaded.
    ``<layer>.self_share`` divides a layer's self time inside the workload
    call (``harness.run_experiment`` or ``harness.ablate``) by that call's
    duration.
    """
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    out: dict[str, float] = {}
    for name, idx in by_name.items():
        d = [spans[i].end - spans[i].start for i in idx]
        out[f"{name}.self_s"] = float(sum(self_s[i] for i in idx))
        out[f"{name}.calls"] = float(len(idx))
        out[f"{name}.p50_ms"] = 1e3 * float(np.median(d))
        level, value = tail(d)
        out[f"{name}.tail_ms"], out[f"{name}.tail_pct"] = 1e3 * value, level
        out[f"{name}.unique_ratio"] = len({spans[i].digest for i in idx}) / len(idx)

    def work(name, unit):
        return sum(spans[i].counts.get(unit, 0) for i in by_name.get(name, ()))

    def self_of(name):
        return out.get(f"{name}.self_s", 0.0)

    out["records.synth_dataset.ms_per_record"] = 1e3 * _rate(
        self_of("records.synth_dataset"), work("records.synth_dataset", "records"))
    out["net.train.epochs"] = float(work("net.train", "epochs"))
    out["net.train.samples_per_s"] = _rate(work("net.train", "samples"),
                                           self_of("net.train"))
    out["net.predict.records_per_s"] = _rate(work("net.predict", "records"),
                                             self_of("net.predict"))

    roots = [i for i, s in enumerate(spans)
             if s.name in ("harness.run_experiment", "harness.ablate")]
    call_s = sum(spans[i].end - spans[i].start for i in roots)
    inside = set(roots)
    for i, s in enumerate(spans):  # parents precede their children
        if s.parent in inside:
            inside.add(i)
    for layer in LAYERS:
        layer_self = sum(self_s[i] for i in inside
                         if spans[i].name.split(".")[0] == layer)
        out[f"{layer}.self_share"] = layer_self / call_s if call_s else 0.0
    names = [n for n, _ in PER_LAYER if n != "trace.overhead_frac"]
    names += [n.replace(".tail_ms", ".tail_pct") for n in names
              if n.endswith(".tail_ms")]
    return {name: out.get(name, 0.0) for name in names}


def _rate(amount: float, per: float) -> float:
    return amount / per if per > 0 else 0.0
