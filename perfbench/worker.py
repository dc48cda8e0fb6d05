"""One benchmark step in a fresh, single-threaded process.

run.py starts this script with the BLAS thread pools pinned to one thread,
the checkout root as working directory and the monotonic time of the spawn
on the command line.  The worker checks the pinned environment before numpy
is imported, and imports ``alarmsift`` from the checkout's ``src``, never
from an installed copy.  Then it does one of two steps:

``--setup``
    generate the workload's dataset from ``--seed`` and write it to
    DATA_DIR, the set-up a researcher pays before an experiment;
otherwise
    make the workload's one library call on DATA_DIR, as a researcher's
    process does, then check and hash its output.

Either step may be traced (``--spans``).  The result is one JSON object
written to ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Input sizes and library settings of each workload.  ``n`` is the number
# of generated 60 s, 4-channel records; ``model`` overrides ModelConfig.
WORKLOADS = {
    "cv_temporal": {
        "n": 28, "call": "run_experiment", "experiment": "temporal",
        "compare_with": "features", "folds": 3,
        "model": {"embed_dim": 32, "lstm_hidden": 32, "head_hidden": 32,
                  "max_epochs": 6, "patience": 6},
    },
    "ablate_grid": {
        "n": 12, "call": "ablate",
        "model": {"embed_dim": 8, "lstm_hidden": 8, "head_hidden": 8,
                  "max_epochs": 1, "patience": 1},
    },
    "cv_features": {
        "n": 56, "call": "run_experiment", "experiment": "per_alarm",
        "compare_with": "features", "folds": 5, "model": {},
    },
}

DATA_DIR = ".perfbench/work/data"   # relative, so report.json bytes do not
OUT_DIR = ".perfbench/work/runs"    # depend on where the checkout lives


def describe(name: str) -> str:
    w = WORKLOADS[name]
    if w["call"] == "ablate":
        what = "ablate(AblationSpec()): chunks 1/2/3/6 x channels 1/2/4, 3 folds"
    else:
        what = (f"run_experiment({w['experiment']} vs {w['compare_with']}, "
                f"{w['folds']} folds)")
    model = ", ".join(f"{k}={v}" for k, v in w["model"].items())
    return f"{w['n']} records x 60 s x 4 channels; {what}" + (
        f"; {model}" if model else "")


def _sha256_tree(root) -> str:
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_run_experiment(run_dir, ids, spec, required) -> tuple[int, list[str]]:
    """(failed records, problems) for one run_experiment output directory.

    A record fails if it is not scored exactly once with a finite score in
    [0, 1]; every record fails if a run-level check fails.
    """
    problems = []
    report = json.loads((run_dir / "report.json").read_text())
    missing = [k for k in required if k not in report]
    if missing:
        problems.append(f"report.json lacks required keys {missing}")
    if len(report.get("folds", ())) != spec["folds"]:
        problems.append("report.json has the wrong number of folds")
    delong, boot = report.get("delong") or {}, report.get("bootstrap") or {}
    if not _finite(delong.get("z"), delong.get("p")):
        problems.append(f"DeLong z/p not finite: {delong}")
    if not _finite(boot.get("lo"), boot.get("hi")):
        problems.append(f"bootstrap bounds not finite: {boot}")

    scores: dict[str, list[float]] = {}
    with open(run_dir / "predictions.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            scores.setdefault(row["record_id"], []).append(float(row["p_true"]))
    extra = sorted(set(scores) - set(ids))
    if extra:
        problems.append(f"predictions.csv scores unknown records {extra[:3]}")
    bad = [i for i in ids
           if len(scores.get(i, ())) != 1 or not 0.0 <= scores[i][0] <= 1.0]
    failed = len(ids) if problems else len(bad)
    if bad:
        problems.append(f"{len(bad)} records not scored exactly once in [0, 1]")
    return failed, problems


def check_ablation(result, spec) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): one operation per condition-fold."""
    rows = {"chunk": (result.chunk_rows, len(spec.chunk_grid)),
            "channel": (result.channel_rows, len(spec.channel_grid))}
    attempted = spec.folds * sum(want for _, want in rows.values())
    problems, failed = [], 0
    for kind, (got, want) in rows.items():
        if len(got) != want:
            problems.append(f"{len(got)} {kind} rows, expected {want}")
        for row in got:
            aucs = [a for a in row.get("fold_aucs", ()) if _finite(a)]
            failed += spec.folds - min(len(aucs), spec.folds)
    if problems:
        return attempted, attempted, problems
    if failed:
        problems.append(f"{failed} condition-folds lack a finite AUC")
    return attempted, failed, problems


def environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the trace's spans here (traced run)")
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args(argv)

    # Checked before numpy is imported: the BLAS pool is sized at import.
    pinned = {k: os.environ.get(k) for k in PINNED}
    flags = [f"{k}={v!r}, not '1'" for k, v in pinned.items() if v != "1"]

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import scipy
    import alarmsift
    if Path(alarmsift.__file__).resolve().parent != root / "src" / "alarmsift":
        raise SystemExit(f"alarmsift imported from {alarmsift.__file__}, "
                         f"not from {root / 'src'}")

    spec = WORKLOADS[args.workload]
    tracer = None
    calls = {name: getattr(alarmsift, name) for name in
             ("synth_dataset", "write_dataset", "run_experiment", "ablate")}
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        calls = tracing.entry_points(tracer, alarmsift)

    result = {"env": environment(np, scipy), "pinned": pinned, "flags": flags}
    if args.setup:
        records = calls["synth_dataset"](alarmsift.SynthSpec(n=spec["n"]),
                                         args.seed)
        calls["write_dataset"](records, DATA_DIR)
        result["setup_s"] = time.monotonic() - args.spawned
        result["dataset_sha256"] = _sha256_tree(DATA_DIR)
    else:
        result.update(run_call(spec, calls, alarmsift, tracer))
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracing.span_metrics(tracer.spans)
        Path(args.spans).write_text(json.dumps(tracer.to_json()) + "\n")
    Path(args.out).write_text(json.dumps(result) + "\n")
    return 0


def run_call(spec, calls, alarmsift, tracer) -> dict:
    """Make the workload's one library call, then check and hash its output."""
    ids = sorted(p.name for p in Path(DATA_DIR).iterdir()
                 if (p / "header.json").is_file())  # directory name = record id
    model = replace(alarmsift.ModelConfig(), **spec["model"])
    base = alarmsift.ExperimentConfig(
        experiment=spec.get("experiment", "temporal"), data_dir=DATA_DIR,
        model=model, folds=spec.get("folds", 5), out_dir=OUT_DIR,
        compare_with=spec.get("compare_with"))
    ablation = alarmsift.AblationSpec()
    scope = nullcontext()
    if tracer is not None:
        import tracing
        scope = tracing.instrument(tracer, alarmsift)

    with scope:
        t0, c0 = time.perf_counter(), time.process_time()
        if spec["call"] == "ablate":
            out = calls["ablate"](ablation, base)
        else:
            out = calls["run_experiment"](base)
        call_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0

    result = {"call_s": call_s, "call_cpu_s": cpu_s, "records": len(ids),
              "records_per_s": len(ids) / call_s}
    if spec["call"] == "ablate":
        attempted, failed, problems = check_ablation(out, ablation)
        out_file = alarmsift.harness.write_ablation(out, OUT_DIR) / "ablation.json"
    else:
        failed, problems = check_run_experiment(
            out, ids, spec, alarmsift.stats.REPORT_SCHEMA["required"])
        attempted = len(ids)
        out_file = out / "report.json"
        result["pooled_auc"] = json.loads(out_file.read_text()).get("pooled_auc")
    result.update(attempted=attempted, failed=failed, problems=problems,
                  output_file=out_file.name,
                  output_sha256=hashlib.sha256(out_file.read_bytes()).hexdigest())
    return result


if __name__ == "__main__":
    sys.exit(main())
