"""The benchmark's tracer coverage gate, run on one scenario.

perfbench/run.py fails a traced battery-small run when `Tracer.install`
finds an unwrapped reference or when a function in `tracer.LISTED` is never
called.  This test runs the same gate on one d=2 two-level scenario, so that
deleting, renaming or bypassing a listed function fails tier-1 too.  It
imports perfbench/tracer.py as the benchmark does and changes nothing there.
"""

import importlib
import json
import os
import sys

import numpy as np
import pytest

from liftchar import cli
from liftchar.cli import mat_to_json
from liftchar.gen import random_iterated_lifting

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture
def tracer_module(monkeypatch):
    """perfbench/tracer.py, imported with perfbench on the path, as its scripts run."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("spec", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("tracer")
    for name in ("spec", "tracer"):
        sys.modules.pop(name, None)


def test_every_listed_function_is_traced_and_called(tmp_path, tracer_module):
    it = random_iterated_lifting(np.random.default_rng([1, 3]), 2, (2, 1, 2))
    first, second = it.first, it.second
    doc = {"schema": 1, "id": "traced", "d": 2, "degree": 3,
           **{key: [mat_to_json(m) for m in ops] for key, ops in (
               ("C", first.C.ops), ("A", first.A.ops), ("B", first.B),
               ("Aprime", second.A.ops), ("Bprime", second.B))}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))

    tracer = tracer_module.Tracer()
    tracer.install()  # raises if any liftchar module keeps an unwrapped listed function
    try:
        # as perfbench/loop.py runs one instance, through the module's bindings
        scen = cli.parse_scenario(str(path))
        for group in tracer_module.ALL_GROUPS:
            reports: list = []
            checks = cli.run_battery(scen.first, scen.iterated, scen.degree, scen.tolerance,
                                     group, reports)
            cli.report_json(scen.id, scen.degree, checks, reports)
            assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    finally:
        tracer.uninstall()
    listed = [f"{mod}.{fn}" for mod, fns in tracer_module.LISTED.items() for fn in fns]
    assert [name for name in listed if not tracer.calls[name]] == []
    assert not hasattr(cli.run_battery, "__wrapped__")  # uninstall put the originals back
