"""The measured process: a closed loop over a workload's scenario files.

    python perfbench/loop.py <workload> <scenario dir> <passes> <trace 0|1> <budget s> <result.json>

Each instance is the `verify` path run in-process on one scenario file:
parse_scenario, then run_battery and report_json for each of the workload's
check groups, the same work as `liftchar verify --check <group> --out`.
Instances run one after another, in `passes` passes over the files.  With
trace 1, a last pass runs each file untraced and then with the tracer
installed; traced reports must be byte-identical to the untraced ones.
No instance starts after <budget s> seconds: the run then stops and reports
what it has, with an error.  Results go to <result.json>.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import random
import resource
import sys
from importlib import resources
from time import perf_counter

import numpy as np

from spec import WORKLOADS
from tracer import LISTED, Tracer

from liftchar import cli


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def expected_check_counts(groups) -> dict[str, int]:
    """Checks per group on a two-level scenario, from the packaged example1."""
    scen = cli.parse_scenario(str(resources.files("liftchar").joinpath("data", "example1.json")))
    return {g: len(cli.run_battery(scen.first, scen.iterated, scen.degree, scen.tolerance, g))
            for g in groups}


def verify_instance(path: str, groups) -> tuple[list[str], int]:
    """Reports (one per group) and the number of failed checks."""
    # Calls go through the module so that the tracer's bindings are used.
    scen = cli.parse_scenario(path)
    texts, failed = [], 0
    for g in groups:
        reports: list = []
        checks = cli.run_battery(scen.first, scen.iterated, scen.degree, scen.tolerance, g,
                                 reports)
        failed += sum(not c.passed for c in checks)
        texts.append(json.dumps(cli.report_json(scen.id, scen.degree, checks, reports),
                                indent=2, sort_keys=True) + "\n")
    return texts, failed


class Loop:
    def __init__(self, files, groups, stop_at: float):
        self.files, self.groups, self.stop_at = files, groups, stop_at
        self.per_instance = sum(expected_check_counts(groups).values())
        self.attempted = self.failed = 0
        self.stopped = False
        self.errors: list[str] = []
        self.reports: dict[str, list[str]] = {}

    def instance(self, i: int, tracer: Tracer | None = None) -> float:
        """Verify file i once; its latency."""
        path = self.files[i]
        name = os.path.basename(path)
        if tracer is not None:
            tracer.scenario = name
        t0 = perf_counter()
        try:
            texts, failed = verify_instance(path, self.groups)
        except Exception as exc:  # a raising scenario fails all its checks
            texts, failed = None, self.per_instance
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        latency = perf_counter() - t0
        self.attempted += self.per_instance
        self.failed += failed
        if texts is not None and texts != self.reports.setdefault(name, texts):
            kind = "traced" if tracer is not None else "repeated"
            self.errors.append(f"{name}: {kind} report differs from the first untraced one")
        return latency

    def out_of_time(self) -> bool:
        if not self.stopped and perf_counter() > self.stop_at:
            self.stopped = True
            self.errors.append(f"time budget spent after {self.attempted // self.per_instance} "
                               "instances; the rest did not run")
        return self.stopped

    def run_pass(self, order: list[int]) -> list[float | None]:
        """Verify the files in the given order; latencies in file order, None
        for files left out when the time budget ran out."""
        latencies: list[float | None] = [None] * len(self.files)
        for i in order:
            if self.out_of_time():
                break
            latencies[i] = self.instance(i)
        return latencies

    def traced_pass(self, tracer: Tracer) -> tuple[int, float, float]:
        """Each file untraced, then traced right after it, so that the machine's
        speed drift cancels in the overhead; (pairs, summed untraced latency,
        summed traced latency)."""
        pairs, untraced, traced = 0, 0.0, 0.0
        for i in range(len(self.files)):
            if self.out_of_time():
                break
            pairs += 1
            untraced += self.instance(i)
            tracer.install()
            try:
                traced += self.instance(i, tracer)
            finally:
                tracer.uninstall()
        return pairs, untraced, traced


def worked_examples_ok() -> bool:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["worked-examples"]) == 0


def main(argv: list[str]) -> int:
    workload, scen_dir, passes, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    stop_at, out_path = perf_counter() + float(argv[4]), argv[5]
    spec = WORKLOADS[workload]
    files = sorted(glob.glob(os.path.join(scen_dir, "scenario-*.json")))
    result: dict = {
        "numpy": np.__version__,
        "blas": blas_info(),
        "liftchar_file": cli.__file__,
        "scenarios": len(files),
        "errors": [],
    }
    if not worked_examples_ok():
        result["errors"].append("worked-examples: closed-form symbols do not match")

    loop = Loop(files, spec["groups"], stop_at)
    samples, pass_s = [], []
    for k in range(passes):
        # A fixed order per pass, shuffled so that periodic interference from
        # the machine does not keep landing on the same scenario.
        order = list(range(len(files)))
        random.Random(k).shuffle(order)
        t0 = perf_counter()
        samples.append(loop.run_pass(order))
        if loop.stopped:
            break
        pass_s.append(perf_counter() - t0)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["latencies"] = samples
    result["pass_s"] = pass_s

    if trace:
        tracer = Tracer()
        try:
            result["paired_pass"] = loop.traced_pass(tracer)
        except RuntimeError as exc:  # from Tracer.install
            result["errors"].append(f"tracer coverage: {exc}")
        else:
            result["trace_metrics"] = tracer.metrics()
            spans_path = os.path.join(os.path.dirname(out_path), "spans.jsonl")
            tracer.write_jsonl(spans_path)
            result["spans_file"] = spans_path
            result["calls"] = {f"{m}.{f}": tracer.calls[f"{m}.{f}"]
                               for m, fs in LISTED.items() for f in fs}

    result["attempted"], result["failed"] = loop.attempted, loop.failed
    result["errors"] += loop.errors
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
