"""Spans around liftchar's public functions, recorded from outside the library.

The tracer replaces every module-level binding of each listed function with
a wrapper that records one span per call: name, start, end, parent span and
scenario id.  `cli` and `charfact` import most of these functions by name,
so each binding in each liftchar module is patched, and `install` refuses to
proceed if any module still holds the unwrapped original.

Spans stay in memory; `metrics` derives the per-layer numbers from them and
`write_jsonl` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from spec import ALL_GROUPS

LISTED = {
    "numlin": ("psd_root_range", "operator_norm", "pinv", "unitarity_residual"),
    "rowcon": ("defect", "star_defect"),
    "ncfock": ("product", "coeff_diff", "realize", "realized_norm", "intertwining_residual",
               "add", "block_diag_op"),
    "lifting": ("defect_unitary", "star_defect_unitary", "julia_halmos", "krylov_span",
                "iterate_liftings"),
    "charfact": ("row_char_fn", "lifting_char_fn", "resolvent_identity_residual",
                 "verify_factorization", "verify_minimal_product", "minimal_part"),
    "cli": ("parse_scenario", "run_battery", "report_json"),
}

def _coeff_entries(result) -> int:
    return sum(m.size for m in result.op.coeffs.values())


# name -> (computed stat, unit, how it accumulates, value from (args, result))
SIZES = {
    "ncfock.product": ("pairs", "count", "sum",
                       lambda a, r: len(a[0].coeffs) * len(a[1].coeffs)),
    # complex128 bytes of the dense realization, largest single call
    "ncfock.realize": ("bytes", "bytes", "max",
                       lambda a, r: 16 * len(a[0].basis) ** 2 * a[0].dom.dim * a[0].cod.dim),
    "ncfock.realized_norm": ("side_max", "count", "max",
                             lambda a, r: len(a[0].basis) * max(a[0].dom.dim, a[0].cod.dim)),
    "charfact.row_char_fn": ("coeff_entries", "count", "sum", lambda a, r: _coeff_entries(r)),
    "charfact.lifting_char_fn": ("coeff_entries", "count", "sum",
                                 lambda a, r: _coeff_entries(r)),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric `metrics` can produce, with its unit: calls,
    self_s and total_s of each span name, and the computed sizes."""
    units = {}
    for mod, funcs in LISTED.items():
        for fn in funcs:
            name = f"{mod}.{fn}"
            labels = [f"{name}.{g}" for g in ALL_GROUPS] if name == "cli.run_battery" else [name]
            for label in labels:
                units.update({f"{label}.calls": "count", f"{label}.self_s": "s",
                              f"{label}.total_s": "s"})
    units.update({f"{name}.{stat}": unit for name, (stat, unit, _, _) in SIZES.items()})
    return units


def _battery_group(args, kwargs) -> str:
    return kwargs.get("which", args[4] if len(args) > 4 else "all")


def _references(mod):
    """(where, object) for each module attribute, and one level inside module-level
    containers, classes and partials: the places a call could bypass the patch."""
    for attr, value in vars(mod).items():
        where = f"{mod.__name__}.{attr}"
        yield where, value
        if isinstance(value, dict):
            inner = value.items()
        elif isinstance(value, (list, tuple, set, frozenset)):
            inner = enumerate(value)
        elif isinstance(value, type) and value.__module__ == mod.__name__:
            inner = ((k, getattr(v, "__func__", v)) for k, v in vars(value).items())
        elif isinstance(value, functools.partial):
            inner = [("func", value.func)]
        else:
            continue
        for key, item in inner:
            yield f"{where}[{key!r}]", item


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, scenario]
        self.stack: list[int] = []
        self.scenario: str | None = None
        self.sizes: dict[str, float] = defaultdict(int)
        self.calls: Counter[str] = Counter()  # per listed function, all groups together
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        size = SIZES.get(name)
        battery = name == "cli.run_battery"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            label = f"{name}.{_battery_group(args, kwargs)}" if battery else name
            span = [label, perf_counter(), 0.0, stack[-1] if stack else -1, self.scenario]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                stat, _, how, value = size
                key = f"{name}.{stat}"
                v = value(args, result)
                self.sizes[key] = self.sizes[key] + v if how == "sum" else max(self.sizes[key], v)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every liftchar binding of every listed function; verify coverage."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "liftchar" or n.startswith("liftchar."))]
        originals = {}
        for mod_name, funcs in LISTED.items():
            mod = sys.modules[f"liftchar.{mod_name}"]
            for fn_name in funcs:
                orig = getattr(mod, fn_name)
                originals[id(orig)] = (orig, self._wrap(f"{mod_name}.{fn_name}", orig))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        leaks = [where for mod in modules for where, value in _references(mod)
                 if id(value) in originals and originals[id(value)][0] is value]
        if leaks:
            self.uninstall()
            raise RuntimeError(f"unwrapped references remain: {leaks}")

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """calls, self_s, total_s per span name, plus the computed sizes."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of this name: no double counting
                out[f"{name}.total_s"] += end - start
        out.update(self.sizes)
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, scen) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "scenario": scen}) + "\n")
