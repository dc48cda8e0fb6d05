import json

import pytest

from alarmsift.cli import main
from alarmsift.records import load_dataset


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    rc = main(["synth", "--n", "14", "--true-ratio", "0.5", "--seed", "7",
               "--out", str(root)])
    assert rc == 0
    return root


TINY = {"experiment": "temporal", "data_dir": "", "folds": 2, "seed": 42,
        "val_fraction": 0.25,
        "model": {"embed_dim": 8, "lstm_hidden": 4, "head_hidden": 6,
                  "dropout": 0.0, "max_epochs": 1, "batch_size": 8, "seed": 42}}


def write_config(tmp_path, **overrides):
    blob = {**TINY, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    return path


class TestSynth:
    def test_writes_records(self, cli_data):
        records = load_dataset(cli_data)
        assert len(records) == 14
        assert sum(r.label for r in records) == 7

    def test_deterministic(self, tmp_path, capsys):
        for sub in ("a", "b"):
            main(["synth", "--n", "2", "--seed", "3", "--out",
                  str(tmp_path / sub)])
        a = (tmp_path / "a" / "synth-0000" / "signal.f32").read_bytes()
        b = (tmp_path / "b" / "synth-0000" / "signal.f32").read_bytes()
        assert a == b


class TestFeatures:
    def test_csv_export(self, cli_data, tmp_path):
        out = tmp_path / "features.csv"
        rc = main(["features", "--in", str(cli_data), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 15
        assert lines[0].split(",")[:3] == ["record_id", "alarm_type", "label"]


class TestRunAndReport:
    def test_run_then_report(self, cli_data, tmp_path, capsys):
        cfg = write_config(tmp_path, data_dir=str(cli_data),
                           out_dir=str(tmp_path / "runs"))
        rc = main(["run", "--config", str(cfg)])
        assert rc == 0
        run_dir = json.loads(capsys.readouterr().out)["run_dir"]
        rc = main(["report", "--out", run_dir, "--format", "csv"])
        assert rc == 0
        written = json.loads(capsys.readouterr().out)["written"]
        assert any(p.endswith("per_fold.csv") for p in written)

    def test_seed_override_changes_run_id(self, cli_data, tmp_path, capsys):
        cfg = write_config(tmp_path, data_dir=str(cli_data),
                           out_dir=str(tmp_path / "runs"))
        main(["run", "--config", str(cfg)])
        a = json.loads(capsys.readouterr().out)["run_dir"]
        main(["run", "--config", str(cfg), "--seed", "43"])
        b = json.loads(capsys.readouterr().out)["run_dir"]
        assert a != b


class TestSweepAblateCli:
    def test_sweep_counting(self, cli_data, tmp_path, capsys):
        cfg = write_config(
            tmp_path, data_dir=str(cli_data),
            sweep_spec={"axes": {"lstm_hidden": [4, 8]}, "repeats": 2})
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["runs_executed"] == 4

    def test_ablate_rows(self, cli_data, tmp_path, capsys):
        cfg = write_config(
            tmp_path, data_dir=str(cli_data),
            ablation_spec={"chunk_grid": [1, 2], "channel_grid": [1], "folds": 2})
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["chunk_rows"] == 2 and info["channel_rows"] == 1

    def test_sweep_split_drawn_from_experiment_seed(self, cli_data, tmp_path,
                                                    monkeypatch):
        """The sweep's 70/15/15 split follows the experiment ``seed``;
        ``model.seed`` only seeds the network."""
        from alarmsift import harness

        seeds = []
        real_split = harness.stratified_split

        def spy(labels, fractions, seed):
            seeds.append(seed)
            return real_split(labels, fractions, seed)

        monkeypatch.setattr(harness, "stratified_split", spy)
        cfg = write_config(tmp_path, data_dir=str(cli_data), seed=5,
                           sweep_spec={"axes": {"lstm_hidden": [4]}, "repeats": 1})
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
        assert rc == 0
        assert seeds == [5]


class TestErrorContract:
    def test_missing_data_dir_error_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data_dir=str(tmp_path / "nowhere"))
        rc = main(["run", "--config", str(cfg)])
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_usage_error_json(self, capsys):
        rc = main(["run"])  # --config missing
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"

    def test_compare_with_itself_error_json(self, cli_data, tmp_path, capsys):
        cfg = write_config(tmp_path, data_dir=str(cli_data), compare_with="temporal",
                           out_dir=str(tmp_path / "runs"))
        rc = main(["run", "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "compare_with must differ from experiment" in err["message"]
        assert not (tmp_path / "runs").exists()

    def test_train_subcommand_is_gone(self, cli_data, tmp_path, capsys):
        """Cross-validation (``run``) is the one way a model is trained and
        scored; there is no holdout ``train`` subcommand."""
        cfg = write_config(tmp_path, data_dir=str(cli_data))
        out = tmp_path / "run"
        rc = main(["train", "--data", str(cli_data), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"
        assert not out.exists()

    def test_bare_model_config_refused(self, cli_data, tmp_path, capsys):
        """``run`` takes an experiment config, not the ``model`` block on
        its own."""
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(TINY["model"]))
        out = tmp_path / "run"
        rc = main(["run", "--data", str(cli_data), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "ablate"])
    @pytest.mark.parametrize("blob", [[1, 2], "run", 5, None])
    def test_config_that_is_not_an_object_is_a_usage_error(self, tmp_path, capsys,
                                                           command, blob):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(blob))
        rc = main([command, "--config", str(path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "usage", "message": f"config {path} must hold a "
                                                    f"JSON object, got {blob!r}"}

    @pytest.mark.parametrize("command, key", [("sweep", "sweep_spec"),
                                              ("ablate", "ablation_spec")])
    @pytest.mark.parametrize("spec", [[1, 2], "grid", 4])
    def test_spec_that_is_not_an_object_is_a_usage_error(self, cli_data, tmp_path,
                                                         capsys, command, key, spec):
        path = write_config(tmp_path, data_dir=str(cli_data), **{key: spec})
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "usage", "message": f"{key} in config {path} must "
                                                    f"be a JSON object, got {spec!r}"}
        assert not out.exists()

    def test_bad_config_error_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["run", "--config", str(path)])
        assert rc != 0
        assert "message" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [("in_channels", 4), ("input_hw", 64)])
    def test_removed_model_key_error_json(self, cli_data, tmp_path, capsys, key, value):
        """A model block copied from an older report.json names an input-shape
        key ``ModelConfig`` no longer has; the run is refused by the key."""
        cfg = write_config(tmp_path, data_dir=str(cli_data),
                           model={**TINY["model"], key: value},
                           out_dir=str(tmp_path / "runs"))
        rc = main(["run", "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TypeError"
        assert f"unexpected keyword argument '{key}'" in err["message"]
        assert not (tmp_path / "runs").exists()
