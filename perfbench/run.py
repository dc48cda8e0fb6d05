"""alarmsift benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload cv_temporal --seed 3 --seconds 25 --trace 0

Every step runs in a fresh worker process (perfbench/worker.py) with the
BLAS thread pools pinned to one thread.  A run first sets up SETUP_REPEATS
times: each set-up process generates the workload's dataset from
``--seed`` and writes it to the data directory (once with ``--trace 1``).
Then call processes follow one another, a closed loop with one caller: each
makes one ``run_experiment`` or ``ablate`` call on that directory, as a
researcher's process does, until the next call would end after
``--seconds``.  There is always at least one call, and with ``--trace 1`` at
least one untraced and one traced call, alternating.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of the traced calls (see tracing.py).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files, spans and a full record of the run go to ``.perfbench/`` in
the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from worker import DATA_DIR, OUT_DIR, PINNED, WORKLOADS, describe

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # per workload, all of its worker processes included

END_TO_END = (("records_per_s", "records/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def spawn(workload: str, seed: int, deadline: float, traced=False,
          setup=False, tag="") -> dict:
    """Run one worker process to completion and return its result."""
    out = WORK / f"step-{workload}.json"
    out.unlink(missing_ok=True)
    shutil.rmtree(ROOT / (DATA_DIR if setup else OUT_DIR), ignore_errors=True)
    env = dict(os.environ, TMPDIR=str(WORK / "tmp"))
    env.update({k: "1" for k in PINNED})
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(WORK / f"spans-{workload}-seed{seed}{tag}.json")]
    if setup:
        cmd.append("--setup")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the next step")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(started)], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded the time limit") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"{workload}: worker failed ({proc.returncode}):\n"
                         + proc.stderr[-2000:])
    result = json.loads(out.read_text())
    result["wall_s"] = time.monotonic() - started
    result["traced"] = traced
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """Set-ups, then calls on the last set-up's dataset until ``seconds``."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    setups = [spawn(workload, seed, deadline, traced=trace, setup=True,
                    tag="-setup")
              for _ in range(1 if trace else SETUP_REPEATS)]
    calls: list[dict] = []
    t0 = time.monotonic()
    while True:
        traced = trace and len(calls) % 2 == 1
        calls.append(spawn(workload, seed, deadline, traced, tag=f"-{len(calls)}"))
        if trace and {c["traced"] for c in calls} != {True, False}:
            continue
        if time.monotonic() - t0 + calls[-1]["wall_s"] > seconds:
            break
    shutil.rmtree(WORK / "work", ignore_errors=True)
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    return summarise(workload, seed, setups, calls, trace)


def _median(values) -> float:
    return float(statistics.median(values))


def summarise(workload, seed, setups, calls, trace) -> dict:
    plain = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    problems = sorted({p for c in calls for p in c["problems"]})
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    # Same seed, same code: every step must reproduce the same bytes.
    if len({s["dataset_sha256"] for s in setups}) > 1:
        problems.append("dataset_sha256 differs between set-ups of one seed")
        failed = attempted
    odd = [c for c in calls if c["output_sha256"] != calls[0]["output_sha256"]]
    if odd:
        problems.append("output_sha256 differs between calls of one seed")
        failed += sum(c["attempted"] - c["failed"] for c in odd)
    flags = sorted({f for step in setups + calls for f in step["flags"]})

    if trace:
        # synth_dataset and write_dataset run in the set-up process only
        metrics = {name: _median([c["layers"][name] for c in traced])
                   for name, _ in PER_LAYER if name != "trace.overhead_frac"}
        for name in metrics:
            if name.startswith(("records.synth_dataset.", "records.write_dataset.")):
                metrics[name] = setups[0]["layers"][name]
        metrics["trace.overhead_frac"] = 1.0 - (
            _median([c["records_per_s"] for c in traced])
            / _median([c["records_per_s"] for c in plain]))
        units = dict(PER_LAYER)
        tails = {k: traced[-1]["layers"][k] for k in traced[-1]["layers"]
                 if k.endswith((".tail_pct", ".calls"))}
    else:
        metrics = {
            "records_per_s": _median([c["records_per_s"] for c in plain]),
            "setup_s": _median([s["setup_s"] for s in setups]),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain]),
        }
        units = dict(END_TO_END)
        tails = {}
    last = calls[-1]
    return {
        "workload": workload, "seed": seed, "input": describe(workload),
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "problems": problems,
        "flags": flags, "env": last["env"], "pinned": last["pinned"],
        "dataset_sha256": setups[-1]["dataset_sha256"],
        "output_file": last["output_file"], "output_sha256": last["output_sha256"],
        "pooled_auc": last.get("pooled_auc"),
        "samples": {"calls": len(plain), "traced_calls": len(traced),
                    "setups": len(setups)},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "tails": tails,
        "setups": setups, "calls": calls,
    }


def reference_digests(summary) -> str:
    """Compare the run's digests with those recorded when the benchmark was
    defined; a difference means the generated inputs or the output bits
    changed, which the change responsible must state."""
    path = Path(__file__).with_name("digests.json")
    ref = json.loads(path.read_text()).get(summary["workload"], {}).get(
        str(summary["seed"])) if path.is_file() else None
    if ref is None:
        return "no reference digests for this seed"
    changed = [k for k in ("dataset_sha256", "output_sha256")
               if ref[k] != summary[k]]
    return ("match the reference" if not changed
            else "CHANGED from the reference: " + ", ".join(changed))


def report(summary) -> None:
    s = summary
    print(f"{s['workload']}  seed={s['seed']}  input: {s['input']}")
    n = s["samples"]
    for name, m in s["metrics"].items():
        line = f"  {name:40s} {m['value']:>14.6g} {m['unit']}"
        if name == "records_per_s":
            line += f"  (input: {WORKLOADS[s['workload']]['n']} records per call)"
        if name.endswith(".tail_ms"):
            fn = name[:-len(".tail_ms")]
            line += (f"  (p{s['tails'][fn + '.tail_pct']:g} of"
                     f" {s['tails'][fn + '.calls']:g} calls)")
        print(line)
    print(f"  {'failed_frac':40s} {s['failed'] / s['attempted']:>14.6g} ratio"
          f"  ({s['failed']} failed of {s['attempted']} attempted)")
    if s["workload"] == "cv_features" and s["pooled_auc"] is not None:
        print(f"  {'pooled_auc':40s} {s['pooled_auc']:>14.6g} AUC")
    print(f"  samples: {n['calls']} untraced calls, {n['traced_calls']} traced"
          f" calls, {n['setups']} set-ups; medians reported")
    print(f"  dataset sha256 {s['dataset_sha256']}")
    print(f"  {s['output_file']} sha256 {s['output_sha256']}")
    print(f"  digests {reference_digests(s)}")
    e = s["env"]
    pins = " ".join(f"{k}={v}" for k, v in s["pinned"].items())
    print(f"  env nproc={e['nproc']} usable={e['cpus_usable']} python={e['python']}"
          f" numpy={e['numpy']} scipy={e['scipy']} blas={e['blas']} {pins}")
    for flag in s["flags"]:
        print(f"  FLAGGED: {flag}")
        print(f"FLAGGED {s['workload']}: {flag}", file=sys.stderr)
    for problem in s["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)

    try:
        summaries = [measure(name, args.seed, args.seconds, bool(args.trace),
                             deadline) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    for s in summaries:
        (WORK / f"result-{s['workload']}-seed{s['seed']}-trace{args.trace}.json"
         ).write_text(json.dumps(s, indent=1) + "\n")
        report(s)

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
