"""Benchmark of liftchar's verify path, end to end and layer by layer.

    python3 perfbench/run.py --workload battery-small --seed 1 --seconds 45 --trace 0

Steps, each in its own process with single-threaded BLAS:
  1. perfbench/inputs.py writes the workload's seeded scenario files (untimed);
  2. with --trace 0, perfbench/probe.py, run SETUP_REPEATS times, times a
     fresh import of liftchar plus parse_scenario of every file (setup_s is
     the median);
  3. perfbench/loop.py verifies the files in a closed loop (--trace 0), or in
     one pass that runs each file untraced and then with spans recorded
     around the library's public functions (--trace 1).

The run stops starting new instances when its time limit nears; it then
reports the samples it has, with correct false.  The last line of stdout is
the result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  The line before it carries the details
(environment, tail percentile and sample count, fail ratio, sizes).  Full
results, scenario sizes and spans are kept under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spec import DEFAULT_SEED, HELDOUT_SEED, SETUP_REPEATS, THREAD_ENV, WORKLOADS, passes_for
from tracer import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LIMIT_S = 170.0  # a run never takes longer, whatever --seconds asks
RESERVE_S = 5.0  # kept back from the loop for writing results

E2E_UNITS = {"setup_s": "s", "instances_per_s": "1/s", "instance_p50_s": "s",
             "instance_tail_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(script: str, args: list[str], deadline: float) -> str:
    """Run a perfbench script to completion (killed at the deadline); its stdout."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over src/liftchar, identifying the code when there is no git checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "liftchar")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(loop: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": loop["numpy"],
        "blas": loop["blas"],
        "threads": THREAD_ENV,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, xs[k]


def load_benchmark() -> dict:
    """BENCHMARK.json, the one list of workloads and metrics, checked against
    what this benchmark can measure."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    problems = []
    workloads = {w["name"] for w in bench["workloads"]}
    if workloads != set(WORKLOADS):
        problems.append(f"workloads {sorted(workloads)} are not spec.py's {sorted(WORKLOADS)}")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != E2E_UNITS:
        problems.append(f"end_to_end {e2e} is not what run.py reports, {E2E_UNITS}")
    layer_units = {**metric_units(), "trace.overhead_pct": "%"}
    problems += [f"per_layer {m['name']} [{m['unit']}] is not a tracer metric"
                 for m in bench["per_layer"] if layer_units.get(m["name"]) != m["unit"]]
    if problems:
        raise BenchError("BENCHMARK.json does not match perfbench: " + "; ".join(problems))
    return bench


def untraced_rate(loop: dict) -> float:
    """Scenarios per second: the scenarios measured over the sum of their
    median latencies."""
    per_scenario = ([x for x in xs if x is not None] for xs in zip(*loop["latencies"]))
    medians = [statistics.median(xs) for xs in per_scenario if xs]
    return len(medians) / sum(medians)


def end_to_end(setup: list[float], loop: dict) -> tuple[dict, dict]:
    lat = [x for p in loop["latencies"] for x in p if x is not None]
    if not lat or not setup:
        raise BenchError(f"nothing was measured within the time limit: {loop['errors']}")
    pct, tail_s = tail(lat)
    values = {
        "setup_s": statistics.median(setup),
        "instances_per_s": untraced_rate(loop),
        "instance_p50_s": statistics.median(lat),
        "instance_tail_s": tail_s,
        "peak_rss_mb": loop["peak_rss_kb"] / 1024.0,
    }
    metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    detail = {"tail_percentile": pct, "samples": len(lat), "setup_runs": setup,
              "pass_s": loop["pass_s"]}
    return metrics, detail


def per_layer(bench: dict, workload: str, loop: dict,
              errors: list[str]) -> tuple[dict, dict]:
    pairs, untraced_s, traced_s = loop.get("paired_pass", (0, 0.0, 0.0))
    if "trace_metrics" not in loop or not pairs:
        raise BenchError(f"the traced pass did not run: {errors}")
    tm = loop["trace_metrics"]
    untraced, traced = pairs / untraced_s, pairs / traced_s
    overhead = 100.0 * (untraced - traced) / untraced
    metrics = {m["name"]: (tm.get(m["name"], 0.0), m["unit"]) for m in bench["per_layer"]}
    metrics["trace.overhead_pct"] = (overhead, "%")
    calls = loop["calls"]
    spec = WORKLOADS[workload]
    must_call = calls if spec.get("must_call_all_listed") else ()
    for fn in must_call:
        if not calls[fn]:
            errors.append(f"tracer: {fn} was never called on {workload}")
    for fn in spec.get("must_not_call", ()):
        if calls[fn]:
            errors.append(f"tracer: {fn} was called {calls[fn]} times on {workload}")
    detail = {"untraced_instances_per_s": untraced, "traced_instances_per_s": traced,
              "trace_overhead_pct": overhead, "calls": calls, "spans_file": loop["spans_file"]}
    return metrics, detail


def size_summary(sizes: list[dict]) -> dict:
    return {
        "words_max": max(s["words"] for s in sizes),
        "realized_side_max": max(s["realized_side_max"] for s in sizes),
        "defect_rank_max": max(max(s["defect_ranks"].values()) for s in sizes),
        "coeff_entries_total": sum(sum(s["coeff_entries"].values()) for s in sizes),
    }


def run(args) -> dict:
    # generous for the run's own length, so that a slower commit still
    # reports its figures instead of being cut off
    deadline = time.monotonic() + min(LIMIT_S, 30.0 + 3.0 * args.seconds)
    bench = load_benchmark()
    if not os.path.isfile(os.path.join(SRC, "liftchar", "cli.py")):
        raise BenchError(f"liftchar sources not found under {SRC}")
    spec = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    scen_dir = os.path.join(work, "scenarios")
    steps = {}
    t0 = time.monotonic()
    run_child("inputs.py", [args.workload, str(args.seed), scen_dir], deadline)
    steps["inputs"] = time.monotonic() - t0
    files = sorted(os.path.join(scen_dir, f) for f in os.listdir(scen_dir)
                   if f.startswith("scenario-"))
    with open(os.path.join(scen_dir, "sizes.json")) as fh:
        sizes = json.load(fh)

    # set-up probes go half before and half after the loop, so that they
    # sample the machine's speed over the whole run
    setup: list[float] = []
    probes = 0 if args.trace else SETUP_REPEATS // 2

    def probe():
        t0 = time.monotonic()
        for _ in range(probes):
            setup.append(json.loads(run_child("probe.py", files, deadline))["setup_s"])
        steps["setup"] = steps.get("setup", 0.0) + time.monotonic() - t0

    probe()
    # The traced run needs only its paired pass: the untraced passes feed the
    # end-to-end metrics, which it does not report.
    passes = 0 if args.trace else passes_for(args.seconds)
    out_path = os.path.join(work, f"loop-trace{args.trace}.json")
    # keep time for the probes after the loop, at twice what the first ones took
    budget = deadline - time.monotonic() - 2.0 * steps.get("setup", 0.0) - RESERVE_S
    t0 = time.monotonic()
    run_child("loop.py", [args.workload, scen_dir, str(passes), str(args.trace),
                          f"{budget:.3f}", out_path], deadline)
    steps["loop"] = time.monotonic() - t0
    probe()
    with open(out_path) as fh:
        loop = json.load(fh)

    errors = list(loop["errors"])
    if not os.path.abspath(loop["liftchar_file"]).startswith(SRC + os.sep):
        errors.append(f"measured liftchar is not this checkout's: {loop['liftchar_file']}")
    if args.trace:
        metrics, detail = per_layer(bench, args.workload, loop, errors)
    else:
        metrics, detail = end_to_end(setup, loop)
    result = {
        "correct": not errors and loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update({
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED, "passes": passes, "scenarios": loop["scenarios"],
        "groups": list(spec["groups"]), "fail_ratio": loop["failed"] / loop["attempted"],
        "errors": errors, "environment": environment(loop), "sizes": size_summary(sizes),
        "step_s": steps,
    })
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "detail": detail, "sizes": sizes}, fh, indent=1)
    return {"detail": detail, "result": result}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0,
                   help="sets the number of untraced passes, and the time limit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        out = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
