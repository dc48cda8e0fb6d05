import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alarmsift.harness
import alarmsift.temporal
from alarmsift.harness import (AblationSpec, ExperimentConfig, SweepSpec,
                               ablate, emit_comparison, emit_report,
                               prepare_records, run_experiment, run_id_for,
                               stratified_split, sweep, write_ablation,
                               write_sweep)
from alarmsift.net import ModelConfig
from alarmsift.records import (CHANNEL_ORDER, Channel, SynthSpec,
                               synth_dataset, write_dataset)
from alarmsift.scalogram import _kernel_spectra
from alarmsift.stats import REPORT_SCHEMA

TINY_MODEL = dict(embed_dim=8, lstm_hidden=4, head_hidden=6, dropout=0.0,
                  max_epochs=2, batch_size=8, seed=42)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    write_dataset(synth_dataset(SynthSpec(n=20, true_ratio=0.5), seed=42), root)
    return root


def tiny_config(data_dir, out_dir, experiment="temporal", **overrides):
    model = ModelConfig(**{**TINY_MODEL, **overrides.pop("model", {})})
    return ExperimentConfig(experiment=experiment, data_dir=str(data_dir),
                            model=model, folds=2, seed=42,
                            out_dir=str(out_dir), val_fraction=0.25,
                            **overrides)


class TestStratifiedSplit:
    def test_partition_and_ratios(self):
        labels = np.arange(200) % 3 == 0
        groups = stratified_split(labels, [0.7, 0.15, 0.15], seed=1)
        assert sorted(np.concatenate(groups).tolist()) == list(range(200))
        sizes = [g.size for g in groups]
        assert sizes == [140, 30, 30]
        for g in groups:  # both classes in every part
            part = labels[g]
            assert part.any() and not part.all()

    def test_deterministic(self):
        labels = np.random.default_rng(0).random(50) < 0.4
        a = stratified_split(labels, [0.5, 0.5], seed=3)
        b = stratified_split(labels, [0.5, 0.5], seed=3)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga, gb)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            stratified_split([True, False], [0.5, 0.4], seed=0)

    @pytest.mark.parametrize("fractions, seed, message", [
        ([math.nan, math.nan], 0, "fractions must be finite, positive and sum to 1, "
                                  "got [nan, nan]"),
        ([0.5, math.nan], 0, "fractions must be finite"),
        ([math.inf, 0.5], 0, "fractions must be finite"),
        ([0.5, 0.5], None, "seed must be an integer, got None"),
        ([0.5, 0.5], True, "seed must be an integer, got True"),
        ([0.5, 0.5], 2.5, "seed must be an integer, got 2.5"),
        ([0.5, 0.5], "3", "seed must be an integer, got '3'"),
        ([0.5, 0.5], -1, "seed must be >= 0, got -1"),
    ])
    def test_malformed_input_refused_by_name(self, fractions, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            stratified_split(np.arange(20) % 2 == 0, fractions, seed)

    def test_numpy_integer_seed_gives_the_int_split(self):
        labels = np.random.default_rng(0).random(50) < 0.4
        for ga, gb in zip(stratified_split(labels, [0.7, 0.3], seed=np.int64(5)),
                          stratified_split(labels, [0.7, 0.3], seed=5)):
            np.testing.assert_array_equal(ga, gb)


class TestRunExperiment:
    def test_temporal_report_structure(self, data_dir, tmp_path):
        cfg = tiny_config(data_dir, tmp_path)
        run_dir = run_experiment(cfg)
        report = json.loads((run_dir / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert len(report["folds"]) == 2
        assert report["confusion"]["tp"] + report["confusion"]["fn"] == 10
        # the training curve is plot data, which ``emit_report`` writes
        assert sorted(p.name for p in run_dir.iterdir()) == ["predictions.csv",
                                                              "report.json"]

    def test_deterministic_report(self, data_dir, tmp_path):
        cfg1 = tiny_config(data_dir, tmp_path / "a")
        cfg2 = tiny_config(data_dir, tmp_path / "b")
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        a = json.loads((r1 / "report.json").read_text())
        b = json.loads((r2 / "report.json").read_text())
        a["config"].pop("out_dir"), b["config"].pop("out_dir")
        a.pop("run_id"), b.pop("run_id")
        assert a == b

    def test_no_leakage_between_train_and_eval(self, data_dir, tmp_path):
        import csv

        cfg = tiny_config(data_dir, tmp_path)
        run_dir = run_experiment(cfg)
        with open(run_dir / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        # every record appears exactly once with exactly one fold
        ids = [r["record_id"] for r in rows]
        assert len(ids) == len(set(ids)) == 20
        folds = {r["record_id"]: r["fold"] for r in rows}
        assert set(folds.values()) == {"0", "1"}

    def test_chunk_count_refused_by_record_before_any_cwt(self, data_dir, tmp_path,
                                                          monkeypatch):
        real_cwt, calls = alarmsift.temporal.cwt, []

        def counting_cwt(*args, **kwargs):
            calls.append(1)
            return real_cwt(*args, **kwargs)

        monkeypatch.setattr(alarmsift.temporal, "cwt", counting_cwt)
        cfg = tiny_config(data_dir, tmp_path, model={"n_chunks": 7})
        with pytest.raises(ValueError, match=r"^record \S+: 15000 samples not "
                                             r"divisible by chunk count 7$"):
            run_experiment(cfg)
        assert calls == []

    @pytest.mark.parametrize("experiment", ["features", "static"])
    def test_compared_chunk_count_refused_before_any_work(
            self, data_dir, tmp_path, monkeypatch, experiment):
        """A chunk count that fails the compared temporal model is refused
        before the main model extracts a feature, trains or transforms."""
        calls = []
        for module, name in ((alarmsift.harness.feats, "extract_features"),
                             (alarmsift.harness, "train"),
                             (alarmsift.temporal, "cwt")):
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        cfg = tiny_config(data_dir, tmp_path, experiment=experiment,
                          compare_with="temporal", model={"n_chunks": 7})
        with pytest.raises(ValueError, match=r"^record \S+: 15000 samples not "
                                             r"divisible by chunk count 7$"):
            run_experiment(cfg)
        assert calls == []

    @pytest.mark.parametrize("n_chunks, chunk_counts", [(6, (6, 1)), (1, (1,))])
    def test_temporal_against_static_builds_each_input_once(
            self, data_dir, tmp_path, monkeypatch, n_chunks, chunk_counts):
        """Each record is transformed once per chunk count: twice when the
        temporal model has 6 chunks, once when both models read 1 chunk.
        Each side trains once per fold, the main model first."""
        real_build, real_train = alarmsift.harness.build_sequence, alarmsift.harness.train
        built, trained = [], []

        def spy_build(record, n, *args, **kwargs):
            built.append((record.record_id, n))
            return real_build(record, n, *args, **kwargs)

        def spy_train(x, labels, fit_idx, stop_idx, model_cfg):
            trained.append((x.shape[1], model_cfg.lstm_layers > 0))
            return real_train(x, labels, fit_idx, stop_idx, model_cfg)

        monkeypatch.setattr(alarmsift.harness, "build_sequence", spy_build)
        monkeypatch.setattr(alarmsift.harness, "train", spy_train)
        cfg = tiny_config(data_dir, tmp_path, compare_with="static",
                          model={"max_epochs": 1, "n_chunks": n_chunks})
        report = json.loads((run_experiment(cfg) / "report.json").read_text())
        ids = sorted({record_id for record_id, _ in built})
        assert len(ids) == 20
        assert sorted(built) == sorted((i, n) for i in ids for n in chunk_counts)
        assert trained == [(n_chunks, True)] * 2 + [(1, False)] * 2
        assert report["delong"]["order"] == ["static", "temporal"]

    def test_features_mode(self, data_dir, tmp_path):
        cfg = tiny_config(data_dir, tmp_path, experiment="features")
        report = json.loads((run_experiment(cfg) / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["training"] == []

    def test_per_alarm_mode(self, data_dir, tmp_path):
        cfg = tiny_config(data_dir, tmp_path, experiment="per_alarm")
        report = json.loads((run_experiment(cfg) / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_static_mode_single_chunk_no_lstm(self, data_dir, tmp_path):
        cfg = tiny_config(data_dir, tmp_path, experiment="static")
        model = cfg.resolved_model()
        assert model.n_chunks == 1 and model.lstm_layers == 0
        report = json.loads((run_experiment(cfg) / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_comparison_fills_delong_and_bootstrap(self, data_dir, tmp_path):
        cfg = tiny_config(data_dir, tmp_path, compare_with="features")
        report = json.loads((run_experiment(cfg) / "report.json").read_text())
        assert report["delong"] is not None and "z" in report["delong"]
        assert report["bootstrap"] is not None
        assert report["delong"]["order"] == ["features", "temporal"]

    def test_delong_reports_the_pooled_auc(self, tmp_path):
        """DeLong's AUC of the main model is the report's pooled AUC, bit for
        bit: one Mann-Whitney definition, not a second one from V10."""
        write_dataset(synth_dataset(SynthSpec(n=56), seed=1), tmp_path / "data")
        cfg = ExperimentConfig("per_alarm", str(tmp_path / "data"), folds=5,
                               out_dir=str(tmp_path / "out"), compare_with="features")
        report = json.loads((run_experiment(cfg) / "report.json").read_text())
        assert report["delong"]["auc_b"] == report["pooled_auc"]

    def test_report_blocks_are_the_schema(self, data_dir, tmp_path):
        """A features-only and a temporal-vs-features report carry exactly
        the schema's top-level blocks, each one required; the comparison
        blocks and each fold's training entry carry exactly their required
        keys."""
        def required(*path):
            node = REPORT_SCHEMA
            for key in path:
                node = node["properties"][key]
            return set(node.get("items", node)["required"])

        top = set(REPORT_SCHEMA["properties"])
        assert set(REPORT_SCHEMA["required"]) == top
        for cfg in (tiny_config(data_dir, tmp_path / "f", experiment="features"),
                    tiny_config(data_dir, tmp_path / "t", compare_with="features")):
            report = json.loads((run_experiment(cfg) / "report.json").read_text())
            jsonschema.validate(report, REPORT_SCHEMA)
            assert set(report) == top
        assert set(report["delong"]) == required("delong")
        assert set(report["bootstrap"]) == required("bootstrap")
        assert len(report["training"]) == 2
        for entry in report["training"]:
            assert set(entry) == required("training")

    def test_features_extracted_once_per_record(self, data_dir, tmp_path,
                                                monkeypatch):
        """per_alarm compared with features shares one feature matrix: each
        record's features and beats are computed once per run."""
        feats = alarmsift.harness.feats
        calls = {"extract_features": [], "detect_beats": []}
        for name, seen in calls.items():
            real = getattr(feats, name)

            def spy(*args, _real=real, _seen=seen, **kwargs):
                _seen.append(1)
                return _real(*args, **kwargs)
            monkeypatch.setattr(feats, name, spy)
        cfg = tiny_config(data_dir, tmp_path, experiment="per_alarm",
                          compare_with="features")
        run_experiment(cfg)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "extract_features": 20, "detect_beats": 20}

    def test_short_record_refused_by_name(self, tmp_path):
        """A record shorter than the window fails in prepare_records with its
        id, not later as a chunk-divisibility error."""
        records = synth_dataset(SynthSpec(n=4, duration_s=20.0), seed=1)
        write_dataset(records, tmp_path / "short")
        cfg = tiny_config(tmp_path / "short", tmp_path / "out")
        with pytest.raises(ValueError, match=rf"record {records[0].record_id} "
                                             r"has 5000 samples, shorter than "
                                             r"the 15000-sample window"):
            run_experiment(cfg)

    def test_mixed_sampling_rates_refused_by_name(self, tmp_path):
        """The first record whose rate differs from the first record's is
        named with both rates."""
        records = synth_dataset(SynthSpec(n=3), seed=1)
        records += synth_dataset(SynthSpec(n=2, fs=500.0), seed=2)[1:]
        records = [replace(r, record_id=f"r{i}") for i, r in enumerate(records)]
        write_dataset(records, tmp_path / "mixed")
        cfg = tiny_config(tmp_path / "mixed", tmp_path / "out")
        with pytest.raises(ValueError, match=r"record r3 is sampled at 500.0 Hz, "
                                             r"but r0 at 250.0 Hz"):
            run_experiment(cfg)

    def test_record_id_in_two_directories_refused_before_any_input(
            self, tmp_path, monkeypatch):
        """A copied record directory is refused with its id and both
        directories before any feature or scalogram is computed, so no
        report lists that id twice."""
        data = tmp_path / "data"
        write_dataset(synth_dataset(SynthSpec(n=6), seed=1), data)
        shutil.copytree(data / "synth-0000", data / "synth-0000-copy")
        calls = []
        monkeypatch.setattr(alarmsift.harness, "build_sequence",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(alarmsift.harness.feats, "extract_features",
                            lambda *args: calls.append(args))
        message = re.escape(f"record id 'synth-0000' is in both "
                            f"{data / 'synth-0000'} and {data / 'synth-0000-copy'}")
        with pytest.raises(ValueError, match=message):
            prepare_records(data)
        with pytest.raises(ValueError, match=message):
            run_experiment(tiny_config(data, tmp_path / "out", compare_with="features"))
        assert calls == []

    def test_invalid_experiment_rejected(self, data_dir):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="er-visit", data_dir=str(data_dir))

    @pytest.mark.parametrize("experiment", ["temporal", "static", "features",
                                            "per_alarm"])
    def test_compare_with_itself_rejected(self, data_dir, experiment):
        with pytest.raises(ValueError, match=rf"compare_with must differ from "
                                             rf"experiment; both are '{experiment}'"):
            ExperimentConfig(experiment=experiment, data_dir=str(data_dir),
                             compare_with=experiment)

    @pytest.mark.parametrize("overrides, message", [
        ({"channels": ("ECG_II", "ECG_II")},
         r"channels \['ECG_II', 'ECG_II'\] name a channel twice"),
        ({"channels": ()}, r"^channels must name at least one channel$"),
        ({"channels": ("ECG_II", "FOO")}, r"unknown channel names \['FOO'\]"),
        ({"channels": (Channel.ECG_II, 1)}, r"^unknown channel names \[1\]; known: "),
        ({"val_fraction": 0.0}, r"val_fraction must lie in \(0, 1\), got 0.0"),
        ({"val_fraction": 1.5}, r"val_fraction must lie in \(0, 1\), got 1.5"),
    ], ids=["duplicate-channel", "no-channel", "unknown-channel", "member-and-unknown",
            "val-fraction-0", "val-fraction-1.5"])
    def test_malformed_config_refused_by_name(self, data_dir, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(experiment="temporal", data_dir=str(data_dir),
                             **overrides)

    @pytest.mark.parametrize("experiment, compare_with", [
        ("features", None), ("per_alarm", None), ("temporal", "features"),
        ("static", "per_alarm"), ("per_alarm", "features")])
    def test_feature_runs_refuse_a_channel_subset(self, experiment, compare_with):
        """Feature extraction reads all four channels, so a subset would be
        reported but not used; all four in any order are admitted."""
        with pytest.raises(ValueError, match=r"^channels must be all four of \[.*\] "
                                             r"for .*, which read every channel; "
                                             r"got \['ECG_II', 'PLETH'\]$"):
            ExperimentConfig(experiment, "d", channels=("ECG_II", "PLETH"),
                             compare_with=compare_with)
        shuffled = ("RESP", "PLETH", "ECG_V", "ECG_II")
        cfg = ExperimentConfig(experiment, "d", channels=shuffled,
                               compare_with=compare_with)
        assert cfg.channels == tuple(map(Channel, shuffled))

    @pytest.mark.parametrize("experiment, compare_with", [
        ("temporal", None), ("static", None), ("temporal", "static")])
    def test_scalogram_runs_keep_channel_subsets(self, experiment, compare_with):
        cfg = ExperimentConfig(experiment, "d", channels=("ECG_II",),
                               compare_with=compare_with)
        assert cfg.channels == (Channel.ECG_II,)


# Values a JSON or Python spec may put in a number field.
ANY_VALUE = st.one_of(st.booleans(), st.integers(-3, 8), st.integers(),
                      st.floats(allow_nan=True, allow_infinity=True),
                      st.text(max_size=2), st.none())


class TestSamplesFreed:
    """A run holds the records' samples until its last input is built, and
    the kernel spectra while a tensor is built: from the first training on
    the last-built tensor, no loaded record's samples and no cached
    spectra are alive."""

    @staticmethod
    def watch(monkeypatch, n_tensors) -> tuple[list, list]:
        """Spy on loading, tensor builds and training.  Returns a weakref to
        every loaded record's and every window's samples, and the list of
        (live sample arrays, cached spectra) seen at each ``train`` call
        after the ``n_tensors``-th tensor is built."""
        harness = alarmsift.harness
        real = {name: getattr(harness, name)
                for name in ("load_dataset", "prepare_records", "stack_sequences",
                             "train")}
        refs, built, seen = [], [], []

        def loader(name):
            def spy(*args):
                records = real[name](*args)
                refs.extend(weakref.ref(r.samples) for r in records)
                return records
            return spy

        def spy_stack(sequences):
            built.append(len(sequences))
            return real["stack_sequences"](sequences)

        def spy_train(*args, **kwargs):
            if len(built) == n_tensors:
                seen.append((sum(ref() is not None for ref in refs),
                             _kernel_spectra.cache_info().currsize))
            return real["train"](*args, **kwargs)

        for name in ("load_dataset", "prepare_records"):
            monkeypatch.setattr(harness, name, loader(name))
        monkeypatch.setattr(harness, "stack_sequences", spy_stack)
        monkeypatch.setattr(harness, "train", spy_train)
        return refs, seen

    def test_run_experiment_frees_samples_before_training(self, data_dir, tmp_path,
                                                          monkeypatch):
        refs, seen = self.watch(monkeypatch, n_tensors=1)
        cfg = tiny_config(data_dir, tmp_path, compare_with="features",
                          model={"max_epochs": 1})
        run_experiment(cfg)
        assert len(refs) == 2 * 20
        assert seen == [(0, 0)] * 2  # one training per fold

    def test_ablate_frees_samples_once_the_last_tensor_is_built(
            self, data_dir, tmp_path, monkeypatch):
        refs, seen = self.watch(monkeypatch, n_tensors=2)
        spec = AblationSpec(chunk_grid=(1, 6), channel_grid=(1,), folds=2)
        ablate(spec, tiny_config(data_dir, tmp_path, model={"max_epochs": 1}))
        assert len(refs) == 2 * 20
        assert seen == [(0, 0)] * 4  # chunks=6 and channels=1, 2 folds each

    def test_sweep_frees_samples_before_training(self, data_dir, tmp_path,
                                                 monkeypatch):
        refs, seen = self.watch(monkeypatch, n_tensors=1)
        spec = SweepSpec(axes={"dropout": (0.0, 0.2)}, repeats=1)
        sweep(spec, tiny_config(data_dir, tmp_path, model={"max_epochs": 1}))
        assert len(refs) == 2 * 20
        assert seen == [(0, 0)] * 2


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class TestSpecFields:
    """Number fields of the experiment and ablation specs are refused by
    name in the constructor, so before any record is loaded, and stored as
    plain ``int`` or ``float``."""

    @given(field=st.sampled_from(["folds", "seed"]), value=ANY_VALUE)
    @settings(max_examples=300, deadline=None)
    def test_experiment_number_fields(self, field, value):
        valid = {"folds": is_int(value) and value >= 2,
                 "seed": is_int(value) and value >= 0}[field]
        try:
            cfg = ExperimentConfig("temporal", "data", **{field: value})
        except ValueError as err:
            assert not valid and str(err).startswith(field), str(err)
        else:
            assert valid
            assert type(getattr(cfg, field)) is int

    @pytest.mark.parametrize("overrides, message", [
        ({"folds": 2.5}, r"^folds must be an integer, got 2.5$"),
        ({"seed": 1.5}, r"^seed must be an integer, got 1.5$"),
    ], ids=["folds-2.5", "seed-1.5"])
    def test_experiment_refused_before_any_record_is_read(
            self, data_dir, tmp_path, monkeypatch, overrides, message):
        calls = []
        monkeypatch.setattr(alarmsift.harness, "load_dataset",
                            lambda *args: calls.append(args))
        blob = {**tiny_config(data_dir, tmp_path, experiment="features").to_dict(),
                **overrides}
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentConfig.from_dict(blob))
        assert calls == []

    @pytest.mark.parametrize("spec, message", [
        ({"folds": 2.5}, r"^folds must be an integer, got 2.5$"),
        ({"chunk_grid": (1.5,)}, r"^chunk_grid entry must be an integer, got 1.5$"),
        ({"channel_grid": (True,)}, r"^channel_grid entry must be an integer, got True$"),
        ({"chunk_grid": 6}, r"^chunk_grid must be a sequence of integers, got 6$"),
    ], ids=["folds-2.5", "chunk-1.5", "channel-True", "grid-not-a-sequence"])
    def test_ablation_refused_by_name(self, spec, message):
        with pytest.raises(ValueError, match=message):
            AblationSpec(**spec)

    def test_equal_configs_share_one_run_id(self):
        """``1`` and ``1.0`` compare equal, so they write one JSON and one id."""
        ints = ExperimentConfig("temporal", "d",
                                model=ModelConfig(learning_rate=1, dropout=0))
        floats = ExperimentConfig("temporal", "d",
                                  model=ModelConfig(learning_rate=1.0, dropout=0.0))
        assert ints == floats
        assert json.dumps(ints.to_dict()) == json.dumps(floats.to_dict())
        assert run_id_for(ints) == run_id_for(floats)

    def test_default_run_ids_unchanged(self):
        """Default configs' run ids are pinned: they move only when the
        config's JSON does."""
        assert run_id_for(ExperimentConfig("temporal", "data")) == "2034b2ddf9db"
        assert run_id_for(ExperimentConfig("features", "data", folds=3,
                                           compare_with="temporal")) == "f12512d97b29"

    @pytest.mark.parametrize("key, value", [("in_channels", 4), ("input_hw", 64)])
    def test_removed_model_keys_refused_by_name(self, key, value):
        """A config copied from an older report.json carries the input-shape
        keys ``ModelConfig`` no longer has; it is refused, naming the key."""
        blob = {"experiment": "temporal", "data_dir": "d",
                "model": {**dataclasses.asdict(ModelConfig()), key: value}}
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{key}'"):
            ExperimentConfig.from_dict(blob)

    def test_removed_window_key_refused_by_name(self):
        """A config copied from an older report.json carries ``window_s``;
        every run cuts the one 60 s window, so the key is refused by name."""
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'window_s'"):
            ExperimentConfig.from_dict({"experiment": "temporal", "data_dir": "d",
                                        "window_s": 60.0})

    @pytest.mark.parametrize("model", [5, None, "ModelConfig()", [8, 4],
                                       {"embed_dim": 8}])
    def test_model_that_is_not_a_model_config_refused(self, model):
        """A non-``ModelConfig`` model is refused on construction, naming the
        field, not after every record is loaded as an AttributeError."""
        with pytest.raises(ValueError, match=r"^model must be a ModelConfig, got "):
            ExperimentConfig("temporal", "d", model=model)

    @pytest.mark.parametrize("model", [5, None, "embed_dim", [8, 4]])
    def test_model_that_is_not_a_mapping_refused_from_dict(self, model):
        with pytest.raises(ValueError, match=rf"^model must be a mapping of ModelConfig "
                                             rf"fields, got {re.escape(repr(model))}$"):
            ExperimentConfig.from_dict({"experiment": "temporal", "data_dir": "d",
                                        "model": model})

    @pytest.mark.parametrize("blob", [[("experiment", "temporal")], "temporal", None])
    def test_config_that_is_not_a_mapping_refused_from_dict(self, blob):
        with pytest.raises(ValueError, match=rf"^an experiment config must be a "
                                             rf"mapping, got {re.escape(repr(blob))}$"):
            ExperimentConfig.from_dict(blob)

    @pytest.mark.parametrize("channels", ["ECG_II", b"ECG_II", 4, None])
    def test_channels_that_are_not_a_sequence_refused(self, channels):
        """A string would be split into characters and reported as unknown
        channel names ``['E', 'C', 'G', ...]``; it is refused as a whole."""
        message = (rf"^channels must be a sequence of channel names, "
                   rf"got {re.escape(repr(channels))}$")
        with pytest.raises(ValueError, match=message):
            ExperimentConfig("temporal", "d", channels=channels)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({"experiment": "temporal", "data_dir": "d",
                                        "channels": channels})

    def test_channel_members_and_names_give_one_config(self):
        """Channel members, their names, or a mix are one config with one
        run id, and its JSON writes the names."""
        names = ExperimentConfig("temporal", "d", channels=("ECG_II", "ECG_V"))
        for channels in (CHANNEL_ORDER[:2], ("ECG_II", Channel.ECG_V)):
            members = ExperimentConfig("temporal", "d", channels=channels)
            assert members == names and members.channels == CHANNEL_ORDER[:2]
            assert run_id_for(members) == run_id_for(names)
        assert names.to_dict()["channels"] == ["ECG_II", "ECG_V"]

    def test_channel_list_stored_as_a_tuple(self):
        cfg = ExperimentConfig.from_dict({"experiment": "temporal", "data_dir": "d",
                                          "channels": ["ECG_II", "PLETH"]})
        assert cfg.channels == (Channel.ECG_II, Channel.PLETH)
        assert cfg == ExperimentConfig("temporal", "d", channels=("ECG_II", "PLETH"))


class TestSweep:
    def test_counting_formula_48(self):
        assert SweepSpec().total_runs == 48
        assert SweepSpec(repeats=1).total_runs == 12

    @pytest.mark.parametrize("spec, message", [
        ({"repeats": 0}, r"repeats must be >= 1, got 0"),
        ({"repeats": 2.5}, r"^repeats must be an integer, got 2.5$"),
        ({"axes": {"dropout": ()}}, r"sweep axis 'dropout' has no values"),
        ({"axes": {"foo": (1, 2)}}, r"sweep axis 'foo' is not a ModelConfig field"),
        ({"axes": {"seed": (1, 2)}}, r"sweep axis 'seed' is not a ModelConfig field"),
        ({"axes": {"n_chunks": (1, 2)}}, r"sweep axis 'n_chunks' is not"),
        ({"axes": {"in_channels": (1, 2)}}, r"sweep axis 'in_channels' is not"),
        ({"axes": {"input_hw": (8, 16)}}, r"sweep axis 'input_hw' is not"),
        ({"axes": {"lstm_hidden": 64}},
         r"^sweep axis 'lstm_hidden' must be a sequence of values, got 64$"),
        ({"axes": {"dropout": "0.2"}},
         r"^sweep axis 'dropout' must be a sequence of values, got '0.2'$"),
        ({"axes": [("dropout", (0.2,))]}, r"^axes must be a mapping of ModelConfig"),
    ], ids=["repeats-0", "repeats-2.5", "empty-axis", "unknown-field", "seed", "n_chunks",
            "in_channels", "input_hw", "scalar-axis", "string-axis", "axes-not-a-mapping"])
    def test_malformed_spec_refused_by_name(self, spec, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(**spec)

    def test_axis_values_stored_as_tuples(self):
        spec = SweepSpec(axes={"lstm_hidden": [4, 8], "dropout": iter((0.0, 0.2))})
        assert spec.axes == {"lstm_hidden": (4, 8), "dropout": (0.0, 0.2)}
        assert spec.total_runs == 16

    def test_every_model_field_but_seed_and_chunks_is_tunable(self):
        """The data fixes the input shape, so a sweep sets only the seed per
        repeat and the chunk count of the one tensor every run trains on."""
        assert alarmsift.harness._SWEEP_FIXED == ("seed", "n_chunks")
        tunable = [f.name for f in dataclasses.fields(ModelConfig)
                   if f.name not in ("seed", "n_chunks")]
        with pytest.raises(ValueError, match=re.escape(f"those are {tunable}")):
            SweepSpec(axes={"seed": (1,)})

    def test_bad_axis_value_refused_before_any_record_is_read(
            self, data_dir, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(alarmsift.harness, "prepare_records",
                            lambda *args: calls.append(args))
        for axes, message in (
                ({"dropout": (0.2, 1.0)}, r"dropout must lie in \[0, 1\), got 1.0"),
                ({"learning_rate": (1e-3, float("nan"))},
                 r"learning_rate must be a finite real number, got nan")):
            with pytest.raises(ValueError, match=message):
                sweep(SweepSpec(axes=axes, repeats=1), tiny_config(data_dir, tmp_path))
        assert calls == []

    @pytest.mark.parametrize("value", [64.0, True])
    def test_non_integer_axis_value_refused_before_any_record_is_read(
            self, data_dir, tmp_path, monkeypatch, value):
        """A JSON sweep such as ``"lstm_hidden": [64.0]`` fails in the
        up-front config build, not inside ``train``."""
        calls = []
        monkeypatch.setattr(alarmsift.harness, "prepare_records",
                            lambda *args: calls.append(args))
        spec = SweepSpec(axes={"lstm_hidden": [value]}, repeats=1)
        with pytest.raises(ValueError, match=rf"^lstm_hidden must be an integer, "
                                             rf"got {value!r}$"):
            sweep(spec, tiny_config(data_dir, tmp_path))
        assert calls == []

    def test_split_without_both_classes_refused_before_any_input(self, tmp_path,
                                                                 monkeypatch):
        """On 10 records, 5 of each class, the 15% validation part gets no
        record: the split is refused by name before any tensor is built."""
        write_dataset(synth_dataset(SynthSpec(n=10), seed=7), tmp_path / "data")
        calls = []
        for name in ("build_sequence", "train"):
            def spy(*args, _real=getattr(alarmsift.harness, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(alarmsift.harness, name, spy)
        cfg = ExperimentConfig("temporal", str(tmp_path / "data"),
                               out_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError, match=re.escape(
                "the sweep split of 10 records at fractions (0.7, 0.15, 0.15) gives "
                "(true, false) counts (4, 4) to train on and (0, 0) to validate on; "
                "each part needs both classes")):
            sweep(SweepSpec(axes={"lstm_hidden": (4,)}, repeats=1), cfg)
        assert calls == []

    def test_tiny_sweep_executes_and_reports(self, data_dir, tmp_path):
        spec = SweepSpec(axes={"lstm_hidden": (4, 8), "dropout": (0.0, 0.2)},
                         repeats=2)
        cfg = tiny_config(data_dir, tmp_path, model={"max_epochs": 1})
        result = sweep(spec, cfg)
        assert result.runs_executed == spec.total_runs == 8
        assert [r["parameter"] for r in result.rows] == ["lstm_hidden", "dropout"]
        for row in result.rows:
            assert row["winner"] in row["values"]
        out = write_sweep(result, tmp_path / "sweep")
        assert (out / "sweep.csv").is_file()
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header == "parameter,values_tested,winner,val_auc"


class TestAblate:
    def test_grid_shape_and_static_equivalence(self, data_dir, tmp_path):
        spec = AblationSpec(chunk_grid=(1, 2), channel_grid=(1, 4), folds=2)
        cfg = tiny_config(data_dir, tmp_path)
        result = ablate(spec, cfg)
        assert [r["condition"] for r in result.chunk_rows] == ["chunks=1", "chunks=2"]
        assert [r["condition"] for r in result.channel_rows] == ["channels=1", "channels=4"]
        for row in result.chunk_rows + result.channel_rows:
            assert len(row["fold_aucs"]) == 2
            assert 0.0 <= row["mean_auc"] <= 1.0 and row["std_auc"] >= 0.0
        out = write_ablation(result, tmp_path / "abl")
        assert (out / "ablation_chunks.csv").is_file()
        assert (out / "ablation_channels.csv").is_file()

    def test_default_grids(self):
        spec = AblationSpec()
        assert spec.chunk_grid == (1, 2, 3, 6)
        assert spec.channel_grid == (1, 2, 4)
        assert spec.folds == 3

    @given(chunk_grid=st.lists(st.integers(-2, 12) | ANY_VALUE, max_size=4),
           channel_grid=st.lists(st.integers(-1, 6) | ANY_VALUE, max_size=4),
           folds=st.integers(-1, 6) | ANY_VALUE)
    @settings(max_examples=400, deadline=None)
    def test_spec_rejects_bad_grids_by_name(self, chunk_grid, channel_grid, folds):
        """Types are checked first (``folds``, then each grid's entries),
        then ranges; the first failing check names its field."""
        args = dict(chunk_grid=tuple(chunk_grid),
                    channel_grid=tuple(channel_grid), folds=folds)
        reasons = []
        if not is_int(folds):
            reasons.append("folds must be an integer")
        if not all(map(is_int, chunk_grid)):
            reasons.append("chunk_grid entry must be an integer")
        if not all(map(is_int, channel_grid)):
            reasons.append("channel_grid entry must be an integer")
        if not reasons:
            if folds < 2:
                reasons.append("folds")
            if any(n < 1 for n in chunk_grid):
                reasons.append("chunk_grid: chunk counts")
            if any(not 1 <= c <= len(CHANNEL_ORDER) for c in channel_grid):
                reasons.append("channel_grid: channel counts")
        if not reasons:
            spec = AblationSpec(**args)
            assert spec.chunk_grid == tuple(chunk_grid) and spec.folds == folds
            return
        with pytest.raises(ValueError) as err:
            AblationSpec(**args)
        assert str(err.value).startswith(reasons[0])

    def test_one_cwt_per_chunk_channel(self, data_dir, tmp_path, monkeypatch):
        """Each chunk count's tensor is built once, at its widest prefix:
        chunks=6 serves the chunk row and every channel row."""
        real_cwt, signals = alarmsift.temporal.cwt, []

        def counting_cwt(signal, *args, **kwargs):
            signals.append(np.asarray(signal, dtype=np.float64).tobytes())
            return real_cwt(signal, *args, **kwargs)

        monkeypatch.setattr(alarmsift.temporal, "cwt", counting_cwt)
        spec = AblationSpec(chunk_grid=(1, 6), channel_grid=(1, 2), folds=2)
        ablate(spec, tiny_config(data_dir, tmp_path, model={"max_epochs": 1}))
        distinct_pairs = 1 * 4 + 6 * 4  # (chunk, channel) pairs per record
        assert len(signals) == len(set(signals)) == 20 * distinct_pairs

    def test_honours_configured_channels(self, data_dir, tmp_path, monkeypatch):
        """Chunk rows use every configured channel and channel rows their
        prefixes, in the configured order, not prefixes of CHANNEL_ORDER."""
        real_build, real_train = alarmsift.harness.build_sequence, alarmsift.harness.train
        built, trained = set(), []

        def spy_build(record, n_chunks, channel_subset, *args, **kwargs):
            built.add((n_chunks, tuple(channel_subset)))
            return real_build(record, n_chunks, channel_subset, *args, **kwargs)

        def spy_train(x, labels, fit_idx, stop_idx, model_cfg):
            params, history = real_train(x, labels, fit_idx, stop_idx, model_cfg)
            trained.append((x.shape[2], params.tensors["conv1_w"].shape[1]))
            return params, history

        monkeypatch.setattr(alarmsift.harness, "build_sequence", spy_build)
        monkeypatch.setattr(alarmsift.harness, "train", spy_train)
        pair = (Channel.PLETH, Channel.ECG_II)
        cfg = tiny_config(data_dir, tmp_path, model={"max_epochs": 1},
                          channels=tuple(c.value for c in pair))
        spec = AblationSpec(chunk_grid=(1,), channel_grid=(1, 2), folds=2)
        result = ablate(spec, cfg)
        assert built == {(1, pair), (6, pair)}
        per_condition = [(2, 2), (1, 1), (2, 2)]  # one train call per fold
        assert trained == [shapes for shapes in per_condition for _ in range(2)]
        assert [r["condition"] for r in result.channel_rows] == ["channels=1", "channels=2"]

    def test_trains_each_distinct_condition_once(self, data_dir, tmp_path, monkeypatch):
        """chunks=6 and channels=4 name the same model: it is trained once,
        and both rows report its folds."""
        real_train, trained = alarmsift.harness.train, []

        def spy_train(x, labels, fit_idx, stop_idx, model_cfg):
            trained.append(x.shape[1:3])
            return real_train(x, labels, fit_idx, stop_idx, model_cfg)

        monkeypatch.setattr(alarmsift.harness, "train", spy_train)
        spec = AblationSpec(chunk_grid=(1, 6), channel_grid=(1, 4), folds=2)
        result = ablate(spec, tiny_config(data_dir, tmp_path, model={"max_epochs": 1}))
        assert trained == [(1, 4)] * 2 + [(6, 4)] * 2 + [(6, 1)] * 2
        full, same = result.chunk_rows[1], result.channel_rows[1]
        assert (full["condition"], same["condition"]) == ("chunks=6", "channels=4")
        assert {**full, "condition": None} == {**same, "condition": None}

    def test_channel_rows_run_at_configured_chunk_count(self, data_dir, tmp_path,
                                                         monkeypatch):
        """With ``n_chunks=3`` the channels=4 row is the chunks=3 model, and
        no 6-chunk tensor is built."""
        real_build, built = alarmsift.harness.build_sequence, set()

        def spy_build(record, n_chunks, *args, **kwargs):
            built.add(n_chunks)
            return real_build(record, n_chunks, *args, **kwargs)

        monkeypatch.setattr(alarmsift.harness, "build_sequence", spy_build)
        cfg = tiny_config(data_dir, tmp_path, model={"max_epochs": 1, "n_chunks": 3})
        result = ablate(AblationSpec(chunk_grid=(1, 3), channel_grid=(4,), folds=2), cfg)
        assert built == {1, 3}
        three, same = result.chunk_rows[1], result.channel_rows[0]
        assert (three["condition"], same["condition"]) == ("chunks=3", "channels=4")
        assert {**three, "condition": None} == {**same, "condition": None}

    def test_rejects_channel_count_above_configured(self, data_dir, tmp_path):
        cfg = tiny_config(data_dir, tmp_path, channels=("ECG_II", "ECG_V"))
        spec = AblationSpec(chunk_grid=(1,), channel_grid=(1, 4), folds=2)
        with pytest.raises(ValueError, match=r"channel counts \[4\]"):
            ablate(spec, cfg)

    def test_checks_chunk_counts_before_any_cwt(self, data_dir, tmp_path, monkeypatch):
        """A chunk count that does not divide the record length is refused,
        naming the record and the count, before any scalogram is computed."""
        real_cwt, calls = alarmsift.temporal.cwt, []

        def counting_cwt(*args, **kwargs):
            calls.append(1)
            return real_cwt(*args, **kwargs)

        monkeypatch.setattr(alarmsift.temporal, "cwt", counting_cwt)
        spec = AblationSpec(chunk_grid=(1, 7), channel_grid=(1,), folds=2)
        with pytest.raises(ValueError, match=r"record \S+: 15000 samples not "
                                             r"divisible by chunk count 7"):
            ablate(spec, tiny_config(data_dir, tmp_path))
        assert calls == []

    def test_chunks1_row_equals_static_run(self, data_dir, tmp_path):
        """The chunks=1 ablation cell is definitionally the static model."""
        cfg = tiny_config(data_dir, tmp_path)
        spec = AblationSpec(chunk_grid=(1,), channel_grid=(4,), folds=2)
        row = ablate(spec, cfg).chunk_rows[0]
        static_cfg = tiny_config(data_dir, tmp_path / "static",
                                 experiment="static")
        report = json.loads(
            (run_experiment(static_cfg) / "report.json").read_text())
        fold_aucs = [f["auc"] for f in report["folds"]]
        assert row["fold_aucs"] == fold_aucs
        assert row["mean_auc"] == report["mean_auc"]

    def test_early_stopping_splits_checked_before_any_input(self, tmp_path, monkeypatch):
        """On 14 records in 2 folds a class has 3 training records, which the
        default val_fraction 0.15 leaves out of the stop part: the split is
        refused by name before any tensor is built or model trained."""
        write_dataset(synth_dataset(SynthSpec(n=14), seed=7), tmp_path / "data")
        calls = []
        for name in ("build_sequence", "train"):
            def spy(*args, _real=getattr(alarmsift.harness, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(alarmsift.harness, name, spy)
        cfg = ExperimentConfig("temporal", str(tmp_path / "data"),
                               out_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError, match=re.escape(
                "fold 0 of static, n_chunks 1 and 4 channels: the early-stopping "
                "split at val_fraction 0.15 gives (true, false) counts (3, 3) to fit "
                "on and (0, 0) to stop on; each part needs both classes")):
            ablate(AblationSpec(folds=2), cfg)
        assert calls == []

    def test_chunk_rows_equal_run_experiment_folds(self, data_dir, tmp_path):
        """The chunks=6 and chunks=1 cells score the same folds as the
        temporal and static experiments on the same records, seed and model,
        so an ablation cell and a run's report can be compared directly."""
        cfg = tiny_config(data_dir, tmp_path, model={"max_epochs": 1})
        spec = AblationSpec(chunk_grid=(6, 1), channel_grid=(), folds=2)
        rows = {row["condition"]: row["fold_aucs"]
                for row in ablate(spec, cfg).chunk_rows}
        for condition, experiment in (("chunks=6", "temporal"), ("chunks=1", "static")):
            run_dir = run_experiment(replace(cfg, experiment=experiment))
            report = json.loads((run_dir / "report.json").read_text())
            assert rows[condition] == [f["auc"] for f in report["folds"]], condition


class TestEmitReport:
    def test_csv_per_figure(self, data_dir, tmp_path):
        run_dir = run_experiment(tiny_config(data_dir, tmp_path))
        paths = emit_report(run_dir)
        names = {p.name for p in paths}
        assert names == {"per_fold.csv", "per_alarm.csv",
                         "error_breakdown.csv", "training_curve.csv"}
        curve = (run_dir / "figures" / "training_curve.csv").read_text().splitlines()
        report = json.loads((run_dir / "report.json").read_text())
        epochs_total = sum(t["epochs"] for t in report["training"])
        assert len(curve) == 1 + epochs_total  # header + one row per epoch

    def test_empty_training_curve_keeps_header(self, data_dir, tmp_path):
        """A features run trains no network, yet its training-curve CSV still
        names the columns; the run directory has no second copy of it."""
        run_dir = run_experiment(tiny_config(data_dir, tmp_path, experiment="features"))
        emit_report(run_dir)
        header = b"fold,epoch,train_loss,val_auc\r\n"
        assert (run_dir / "figures" / "training_curve.csv").read_bytes() == header
        assert not (run_dir / "training_curves.csv").exists()

    def test_reemission_byte_identical(self, data_dir, tmp_path):
        run_dir = run_experiment(tiny_config(data_dir, tmp_path))
        first = {p.name: p.read_bytes() for p in emit_report(run_dir)}
        second = {p.name: p.read_bytes() for p in emit_report(run_dir)}
        assert first == second

    def test_incomplete_run_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="incomplete"):
            emit_report(tmp_path)

    def test_comparison_table(self, data_dir, tmp_path):
        run_experiment(tiny_config(data_dir, tmp_path))
        run_experiment(tiny_config(data_dir, tmp_path, experiment="features"))
        path = emit_comparison(tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,run_id,mean_auc,std_auc"
        assert len(lines) == 3


@pytest.mark.slow
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable CPUs for a 2-thread BLAS pool")
def test_run_bytes_follow_neither_blas_threads_nor_hash_seed(tmp_path):
    """A temporal run against the feature baseline at the benchmark's
    ``cv_temporal`` model sizes, and a features run, each followed by
    ``emit_report``, write the same bytes in every file, ``figures/``
    included, at 1 and 2 BLAS threads and under two ``PYTHONHASHSEED``s.
    The baseline's scores reach the first run's files only through their
    ranks, so the features run is the one whose ``predictions.csv`` holds
    the feature model's scores.  Each process has its own working
    directory and the same relative data and out dirs, so the run ids match."""
    records = synth_dataset(SynthSpec(n=24), seed=5)
    code = ("from alarmsift.harness import ExperimentConfig, emit_report, run_experiment; "
            "from alarmsift.net import ModelConfig; "
            "model = ModelConfig(embed_dim=32, lstm_hidden=32, head_hidden=32, "
            "max_epochs=6, patience=6); "
            "emit_report(run_experiment(ExperimentConfig('temporal', 'data', model, "
            "folds=3, out_dir='runs', compare_with='features'))); "
            "emit_report(run_experiment(ExperimentConfig('features', 'data', folds=3, "
            "out_dir='runs')))")
    outputs = []
    for threads, hash_seed in (("1", "1"), ("2", "2")):
        cwd = tmp_path / f"threads-{threads}"
        write_dataset(records, cwd / "data")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(alarmsift.harness.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True,
                       capture_output=True, timeout=600)
        outputs.append({p.relative_to(cwd).as_posix(): p.read_bytes()
                        for p in (cwd / "runs").rglob("*") if p.is_file()})
    assert outputs[0] == outputs[1]
    runs = {name.split("/")[1].split("-")[0] for name in outputs[0]}
    files = {name.split("/", 2)[2] for name in outputs[0]}
    assert runs == {"temporal", "features"} and len(outputs[0]) == 12
    assert files == {"report.json", "predictions.csv", "figures/per_fold.csv",
                     "figures/per_alarm.csv", "figures/error_breakdown.csv",
                     "figures/training_curve.csv"}
