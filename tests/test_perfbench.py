"""The benchmark's span tracer still fits the library's call signatures.

``perfbench/tracing.py`` wraps library functions by name and hashes some of
their arguments by position, so a signature change in the library can break
traced benchmark runs without failing anything else.  These tests run the
sequence-building path on one short record, and one small experiment, under
``instrument``.  ``perfbench/worker.py`` builds each workload's
``ModelConfig`` from its ``model`` overrides, so a removed field would break
the benchmark alone; one test checks them.  They only read ``perfbench/``.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

import alarmsift
from alarmsift import harness
from alarmsift.harness import ExperimentConfig, run_experiment
from alarmsift.net import ModelConfig
from alarmsift.records import SynthSpec, synth_dataset, write_dataset
from conftest import make_record

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_workload_model_overrides_are_model_config_fields(monkeypatch):
    workloads = _load(monkeypatch, "worker").WORKLOADS
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    for name, spec in workloads.items():
        unknown = sorted(spec["model"].keys() - fields)
        assert not unknown, f"{name}: {unknown} are not ModelConfig fields"


def test_build_sequences_traced(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    records = [make_record(n=1000)]
    subset = records[0].channels[:2]
    untraced = harness.build_sequences(records, 2, subset)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, alarmsift):
        traced = harness.build_sequences(records, 2, subset)
    names = [span.name for span in tracer.spans]
    assert names.count("scalogram.cwt") == 4  # 2 chunks x 2 channels
    assert names.count("scalogram.to_scalogram") == 4
    assert names.count("temporal.build_sequence") == 1
    assert names.count("net.stack_sequences") == 1
    assert traced.dtype == untraced.dtype == np.float32
    assert np.array_equal(traced, untraced)
    # a float32 chunk still gets a content digest, so unique_ratio is computable
    digests = [span.digest for span in tracer.spans if span.name == "scalogram.cwt"]
    assert all(digests) and len(set(digests)) == 4


def test_run_experiment_traced_per_layer(monkeypatch, tmp_path):
    """Every call the fold loop makes into another layer reaches the
    tracer's wrapper; a function bound at import time would blank its row."""
    tracing = _load(monkeypatch, "tracing")
    write_dataset(synth_dataset(SynthSpec(n=12, true_ratio=0.5), seed=42),
                  tmp_path / "data")
    model = ModelConfig(embed_dim=8, lstm_hidden=4, head_hidden=6, dropout=0.0,
                        max_epochs=1, batch_size=8)
    cfg = ExperimentConfig(experiment="temporal", data_dir=str(tmp_path / "data"),
                           model=model, folds=2, out_dir=str(tmp_path / "runs"),
                           val_fraction=0.25, compare_with="features")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, alarmsift):
        run_experiment(cfg)
    names = [span.name for span in tracer.spans]
    counts = {name: names.count(name) for name in (
        "net.train", "net.predict", "features.linear_classifier_fit", "stats.auc")}
    # one linear_classifier_fit call fits the logistic models of both folds
    assert counts == {"net.train": 2, "net.predict": 2,
                      "features.linear_classifier_fit": 1, "stats.auc": 5}


def test_per_alarm_cross_validation_fits_in_one_call(monkeypatch, tmp_path):
    """cv_features's pairing: each cross-validation, per_alarm's one model
    per alarm type and fold included, is one traced fit."""
    tracing = _load(monkeypatch, "tracing")
    write_dataset(synth_dataset(SynthSpec(n=24, true_ratio=0.5), seed=42),
                  tmp_path / "data")
    cfg = ExperimentConfig(experiment="per_alarm", data_dir=str(tmp_path / "data"),
                           folds=3, out_dir=str(tmp_path / "runs"),
                           compare_with="features")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, alarmsift):
        run_experiment(cfg)
    names = [span.name for span in tracer.spans]
    counts = {name: names.count(name) for name in (
        "features.linear_classifier_fit", "stats.bootstrap_auc_diff",
        "stats.delong_test", "stats.auc")}
    assert counts == {"features.linear_classifier_fit": 2,
                      "stats.bootstrap_auc_diff": 1, "stats.delong_test": 1,
                      "stats.auc": 7}
