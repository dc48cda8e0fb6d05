"""Command-line entry points.

Subcommands: synth, features, run, sweep, ablate, report.
On failure a machine-readable error JSON is printed to stderr and the exit
code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import features as feats
from .harness import (AblationSpec, ExperimentConfig, SweepSpec, ablate,
                      emit_comparison, emit_report, prepare_records,
                      run_experiment, sweep, write_ablation, write_sweep)
from .records import SynthSpec, synth_dataset, write_dataset


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through the JSON contract
        raise CliError(message)


def _load_json(path) -> dict:
    """The JSON object in config file ``path``; a usage error names the file
    when it cannot be read, or holds no JSON object at its top level or at
    its ``sweep_spec`` or ``ablation_spec`` key."""
    try:
        blob = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(blob, dict):
        raise CliError(f"config {path} must hold a JSON object, got {blob!r}")
    for key in ("sweep_spec", "ablation_spec"):
        if not isinstance(blob.get(key, {}), dict):
            raise CliError(f"{key} in config {path} must be a JSON object, "
                           f"got {blob[key]!r}")
    return blob


def _experiment_config(blob: dict, args) -> ExperimentConfig:
    """A parsed config file's experiment config, with the command line's overrides."""
    blob = {k: v for k, v in blob.items() if k not in ("sweep_spec", "ablation_spec")}
    if args.data:
        blob["data_dir"] = args.data
    if args.seed is not None:
        blob["seed"] = args.seed
    if args.out:
        blob["out_dir"] = args.out
    return ExperimentConfig.from_dict(blob)


def cmd_synth(args) -> None:
    spec = SynthSpec(n=args.n, true_ratio=args.true_ratio)
    records = synth_dataset(spec, args.seed)
    write_dataset(records, args.out)
    print(json.dumps({"written": len(records), "out": str(args.out)}))


def cmd_features(args) -> None:
    records = prepare_records(getattr(args, "in"))
    feats.export_features_csv(records, args.out)
    print(json.dumps({"records": len(records), "out": str(args.out)}))


def cmd_run(args) -> None:
    cfg = _experiment_config(_load_json(args.config), args)
    run_dir = run_experiment(cfg)
    print(json.dumps({"run_dir": str(run_dir)}))


def cmd_sweep(args) -> None:
    blob = _load_json(args.config)
    spec = SweepSpec(**blob.get("sweep_spec", {}))
    cfg = _experiment_config(blob, args)
    result = sweep(spec, cfg)
    out = write_sweep(result, args.out or cfg.out_dir)
    print(json.dumps({"out": str(out), "runs_executed": result.runs_executed}))


def cmd_ablate(args) -> None:
    blob = _load_json(args.config)
    spec = AblationSpec(**blob.get("ablation_spec", {}))
    cfg = _experiment_config(blob, args)
    result = ablate(spec, cfg)
    out = write_ablation(result, args.out or cfg.out_dir)
    print(json.dumps({"out": str(out),
                      "chunk_rows": len(result.chunk_rows),
                      "channel_rows": len(result.channel_rows)}))


def cmd_report(args) -> None:
    target = Path(args.out)
    if (target / "report.json").is_file():
        paths = emit_report(target)
    else:
        paths = [emit_comparison(target)]
    print(json.dumps({"written": [str(p) for p in paths]}))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alarmsift")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--true-ratio", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="export the 103-feature CSV")
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    for name, func in (("run", cmd_run), ("sweep", cmd_sweep), ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--data", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="emit per-figure plot data from a run")
    p.add_argument("--out", required=True,
                   help="run directory (or a parent of several runs)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except CliError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # contract: machine-readable error on stderr
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
