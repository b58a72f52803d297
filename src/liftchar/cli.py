"""Scenario-driven verification commands.

Subcommands: verify, random-suite, charfn, worked-examples.  Scenario files
and reports are JSON with complex scalars as [re, im] pairs; schemas are
documented in docs/formats.md and versioned with a "schema" field.
Reports are written atomically and contain no timing data, so identical
inputs and seeds produce byte-identical output; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import __version__
from .charfact import (
    CharFn,
    lifting_char_fn,
    resolvent_identity_residual,
    row_char_fn,
    verify_factorization,
    verify_minimal_product,
)
from .errors import LiftcharError, ParseError, ValidationError
from .gen import random_iterated_lifting
from .lifting import (
    IteratedLifting,
    Lifting,
    defect_unitary,
    extract_gamma,
    iterate_liftings,
    julia_halmos,
    lifting_from_blocks,
    make_lifting,
    star_defect_unitary,
)
from .ncfock import intertwining_residual, realized_norm
from .numlin import SubOperator, as_complex, operator_norm
from .rowcon import RowContraction, defect, star_defect, word_to_str

SIGMA_TOL = 1e-10
NORM_SLACK = 5e-10
INTERTWINE_TOL = 1e-14
CHECK_NAMES = ("all", "factorization", "minimal", "resolvent", "sigmas")


# ---------------------------------------------------------------------------
# JSON (de)serialization of complex matrices

def mat_to_json(m: np.ndarray) -> list:
    m = np.atleast_2d(as_complex(m))
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def mat_from_json(data, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: malformed matrix ({exc})") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError(f"{what}: expected rows of [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParseError(f"{what}: entries must be finite")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def tuple_from_json(data, d: int, what: str) -> tuple[np.ndarray, ...]:
    if not isinstance(data, list) or len(data) != d:
        raise ParseError(f"{what}: expected a list of {d} matrices")
    return tuple(mat_from_json(m, f"{what}[{i}]") for i, m in enumerate(data))


def write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# scenarios

@dataclass
class Scenario:
    """A parsed verification scenario: one or two lifting levels."""

    id: str
    d: int
    degree: int
    tolerance: float
    first: Lifting
    second: Lifting | None = None
    iterated: IteratedLifting | None = None
    seed: int | None = None
    derivations: dict[str, float] = field(default_factory=dict)


def _row_contraction(data, d: int, what: str) -> RowContraction:
    try:
        return RowContraction(tuple_from_json(data, d, what))
    except LiftcharError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ValidationError(f"{what}: {exc}") from None


def _build_level(c: RowContraction, a: RowContraction, raw: dict, b_key: str, g_key: str,
                 tol: float) -> tuple[Lifting, float]:
    has_b, has_g = b_key in raw, g_key in raw
    if has_b == has_g:
        raise ValidationError(f"exactly one of {b_key!r} or {g_key!r} must be given")
    if has_b:
        b = tuple_from_json(raw[b_key], c.d, b_key)
        for i, m in enumerate(b):
            if m.shape != (a.dim, c.dim):
                raise ValidationError(
                    f"{b_key}[{i}]: shape {m.shape}, expected {(a.dim, c.dim)}")
        try:
            lift = lifting_from_blocks(c, a, b, tol)
        except LiftcharError as exc:
            raise ValidationError(f"{b_key}: {exc}") from None
        _, resid = extract_gamma(c, a, b)
        return lift, resid
    g = mat_from_json(raw[g_key], g_key)
    dom, cod = star_defect(a).space, defect(c).space
    if g.shape != (cod.dim, dom.dim):
        raise ValidationError(f"{g_key}: shape {g.shape}, expected {(cod.dim, dom.dim)}")
    gamma = SubOperator(dom, cod, g)
    if gamma.norm > 1 + 1e-10:
        raise ValidationError(f"{g_key} not contractive (norm {gamma.norm:.6f})")
    return make_lifting(c, a, gamma), 0.0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _float_or_inf(x) -> float:
    """float(x), with a JSON integer too large for a float read as inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def parse_scenario(path: str) -> Scenario:
    """Read and validate a scenario file; derived quantities get residuals recorded."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    if raw.get("schema") != 1:
        raise ParseError(f"{path}: unsupported schema {raw.get('schema')!r}")
    for key in ("d", "C", "A"):
        if key not in raw:
            raise ParseError(f"{path}: missing field {key!r}")
    d = raw["d"]
    if not _is_int(d) or not 1 <= d <= 9:
        raise ParseError(f"{path}: d must be an integer in 1..9")
    degree = raw.get("degree", 6)
    if not _is_int(degree) or degree < 0:
        raise ParseError(f"{path}: degree must be an integer >= 0")
    tol = raw.get("tolerance", 1e-8)
    if not (_is_int(tol) or isinstance(tol, float)) or not 0 < _float_or_inf(tol) < math.inf:
        raise ParseError(f"{path}: tolerance must be a finite number > 0")
    scen_id = raw.get("id", os.path.splitext(os.path.basename(path))[0])

    c = _row_contraction(raw["C"], d, "C")
    a = _row_contraction(raw["A"], d, "A")
    first, r1 = _build_level(c, a, raw, "B", "gamma", tol)
    derivations = {"gamma_residual": r1}

    second = iterated = None
    if "Aprime" in raw:
        a2 = _row_contraction(raw["Aprime"], d, "Aprime")
        second, r2 = _build_level(first.E, a2, raw, "Bprime", "gammaprime", tol)
        derivations["gammaprime_residual"] = r2
        try:
            iterated = iterate_liftings(first, second)
        except LiftcharError as exc:
            raise ValidationError(f"iterated lifting: {exc}") from None
    elif "Bprime" in raw or "gammaprime" in raw:
        raise ValidationError("Bprime/gammaprime given without Aprime")
    return Scenario(scen_id, d, degree, tol, first, second, iterated,
                    raw.get("seed"), derivations)


# ---------------------------------------------------------------------------
# checks

@dataclass
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _charfn_checks(name: str, fn: CharFn) -> list[CheckResult]:
    return [
        CheckResult(f"charfn-crosscheck[{name}]", fn.crosscheck_residual, 1e-10),
        CheckResult(f"charfn-norm[{name}]", max(0.0, realized_norm(fn.op) - 1.0), NORM_SLACK),
        CheckResult(f"charfn-intertwine[{name}]", intertwining_residual(fn.op), INTERTWINE_TOL),
    ]


def _sigma_checks(name: str, lift: Lifting) -> list[CheckResult]:
    s = defect_unitary(lift)
    st = star_defect_unitary(lift)
    return [
        CheckResult(f"sigma-defining[{name}]", s.defining_residual, SIGMA_TOL),
        CheckResult(f"sigma-unitary[{name}]", s.unitary_residual, SIGMA_TOL),
        CheckResult(f"sigma-star-defining[{name}]", st.defining_residual, SIGMA_TOL),
        CheckResult(f"sigma-star-unitary[{name}]", st.unitary_residual, SIGMA_TOL),
    ]


def run_battery(first: Lifting, iterated: IteratedLifting | None, degree: int, tol: float,
                which: str = "all", reports: list | None = None) -> list[CheckResult]:
    """The named identity checks on one scenario (or generated instance).

    When a list is passed as `reports`, the full factorization reports
    (with their recorded factors and bases) are appended to it.
    """
    res: list[CheckResult] = []
    want = lambda k: which in ("all", k)

    if want("sigmas"):
        res += _sigma_checks("E|C,A", first)
        res.append(CheckResult("julia-unitary[gamma]",
                               julia_halmos(first.gamma).residual, SIGMA_TOL))
        res += _charfn_checks("M_A", row_char_fn(first.A, degree))
        res += _charfn_checks("M_CE", lifting_char_fn(first, degree))
    if want("resolvent"):
        res.append(CheckResult("resolvent-identity[A]",
                               resolvent_identity_residual(first.A, degree), tol))
    if iterated is not None:
        second = iterated.second
        if want("sigmas"):
            res += _sigma_checks("Eprime|E,Aprime", second)
            res += _sigma_checks("Eprime|C,Ahat", iterated.as_c_lifting)
            res.append(CheckResult("julia-unitary[delta]",
                                   julia_halmos(iterated.delta).residual, SIGMA_TOL))
            res += _charfn_checks("M_Aprime", row_char_fn(second.A, degree))
            res += _charfn_checks("M_EEprime", lifting_char_fn(second, degree))
            res += _charfn_checks("M_CEprime", lifting_char_fn(iterated.as_c_lifting, degree))
        if want("resolvent"):
            res.append(CheckResult("resolvent-identity[Aprime]",
                                   resolvent_identity_residual(second.A, degree), tol))
            res.append(CheckResult("resolvent-identity[Ahat]",
                                   resolvent_identity_residual(iterated.a_hat, degree), tol))
        if want("factorization"):
            rep = verify_factorization(iterated, degree, tol)
            if reports is not None:
                reports.append(rep)
            res.append(CheckResult("factorization", rep.residual, tol))
            for col, r in rep.residual_columns.items():
                res.append(CheckResult(f"factorization[{col}]", r, tol))
            res.append(CheckResult("factorization-leak", rep.checks["projection_leak"], tol))
        if want("minimal"):
            rep = verify_minimal_product(iterated.first, iterated.second, degree, tol)
            if reports is not None:
                reports.append(rep)
            res.append(CheckResult("minimal-product", rep.residual, tol))
            res.append(CheckResult("minimal-tilde-is-minimal",
                                   rep.checks["tilde_minimal"], 0.5))
            res.append(CheckResult("minimal-sigma-unitary",
                                   rep.checks["sigma_unitary"], SIGMA_TOL))
    elif which in ("factorization", "minimal"):
        raise ValidationError(f"--check {which} needs a two-level scenario (Aprime present)")
    return res


def render_report(scen_id: str, degree: int, checks: list[CheckResult]) -> str:
    lines = [f"scenario: {scen_id}", f"degree: {degree}"]
    width = max((len(c.name) for c in checks), default=10) + 2
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(f"{c.name:<{width}}residual={c.residual:.3e}  tol={c.tol:.1e}  {status}")
    ok = all(c.passed for c in checks)
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def identity_report_dict(rep) -> dict:
    """Serialize one verified identity with its factors and recorded bases."""
    return {
        "name": rep.name,
        "residual": f"{rep.residual:.3e}",
        "tolerance": f"{rep.tolerance:.1e}",
        "degree": rep.degree,
        "pass": rep.passed,
        "column_residuals": {k: f"{v:.3e}" for k, v in rep.residual_columns.items()},
        "checks": {k: f"{v:.3e}" for k, v in rep.checks.items()},
        "factors": {k: mat_to_json(v) for k, v in rep.factors.items()},
        "bases": {k: mat_to_json(v) for k, v in rep.bases.items()},
    }


def report_json(scen_id: str, degree: int, checks: list[CheckResult],
                reports: list | None = None) -> dict:
    doc = {
        "schema": 1,
        "scenario": scen_id,
        "degree": degree,
        "environment": {"liftchar": __version__, "numpy": np.__version__},
        "checks": [
            {"name": c.name, "residual": f"{c.residual:.3e}", "tol": f"{c.tol:.1e}",
             "pass": c.passed}
            for c in checks
        ],
        "pass": all(c.passed for c in checks),
    }
    if reports:
        doc["identities"] = [identity_report_dict(r) for r in reports]
    return doc


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    t0 = time.monotonic()
    reports: list = []
    try:
        scen = parse_scenario(args.scenario)
        degree = args.degree if args.degree is not None else scen.degree
        tol = args.tol if args.tol is not None else scen.tolerance
        checks = run_battery(scen.first, scen.iterated, degree, tol, args.check, reports)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_report(scen.id, degree, checks))
    if args.out:
        write_atomic(args.out, json.dumps(report_json(scen.id, degree, checks, reports),
                                          indent=2, sort_keys=True) + "\n")
    print(f"wall time: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return 0 if all(c.passed for c in checks) else 1


def _suite_one(seed: int, base: int, d_max: int, dim_max: int, degree: int, tol: float):
    rng = np.random.default_rng([base, seed])
    d = int(rng.integers(1, d_max + 1))
    dims = tuple(int(rng.integers(1, dim_max + 1)) for _ in range(3))
    it = random_iterated_lifting(rng, d, dims)
    checks = run_battery(it.first, it, degree, tol, "all")
    return seed, d, dims, checks


def cmd_random_suite(args) -> int:
    t0 = time.monotonic()
    raw_threads = os.environ.get("LIFTCHAR_THREADS", "1")
    try:
        threads = max(1, int(raw_threads))
    except ValueError:
        raise ValidationError(f"LIFTCHAR_THREADS must be an integer, got {raw_threads!r}") from None
    seeds = list(range(args.seeds))
    work = lambda s: _suite_one(s, args.seed_base, args.d_max, args.dim_max,
                                args.degree, args.tol)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, seeds))
    else:
        results = [work(s) for s in seeds]
    results.sort(key=lambda r: r[0])

    summary: dict[str, tuple[float, float]] = {}
    failing: list[int] = []
    for seed, _, _, checks in results:
        if not all(c.passed for c in checks):
            failing.append(seed)
        for c in checks:
            base_name = c.name.split("[")[0]
            worst, tl = summary.get(base_name, (0.0, c.tol))
            summary[base_name] = (max(worst, c.residual), min(tl, c.tol))

    lines = [f"random suite: seeds={args.seeds} seed-base={args.seed_base} "
             f"d-max={args.d_max} dim-max={args.dim_max} degree={args.degree} tol={args.tol:.1e}"]
    width = max(len(k) for k in summary) + 2
    for name in sorted(summary):
        worst, tl = summary[name]
        status = "pass" if worst <= tl else "FAIL"
        lines.append(f"{name:<{width}}max-residual={worst:.3e}  tol={tl:.1e}  {status}")
    ok = not failing
    if failing:
        lines.append(f"failing seeds: {failing} (replay with --seed-base {args.seed_base})")
    lines.append(f"overall: {'PASS' if ok else 'FAIL'} ({args.seeds} seeds)")
    sys.stdout.write("\n".join(lines) + "\n")

    if args.out:
        doc = {
            "schema": 1,
            "suite": {"seeds": args.seeds, "seed_base": args.seed_base, "d_max": args.d_max,
                      "dim_max": args.dim_max, "degree": args.degree, "tol": f"{args.tol:.1e}"},
            "environment": {"liftchar": __version__, "numpy": np.__version__},
            "per_seed": [
                {"seed": seed, "d": d, "dims": list(dims),
                 "checks": [{"name": c.name, "residual": f"{c.residual:.3e}",
                             "tol": f"{c.tol:.1e}", "pass": c.passed} for c in checks],
                 "pass": all(c.passed for c in checks)}
                for seed, d, dims, checks in results
            ],
            "summary": {k: {"max_residual": f"{v[0]:.3e}", "tol": f"{v[1]:.1e}"}
                        for k, v in sorted(summary.items())},
            "pass": ok,
        }
        write_atomic(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wall time: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return 0 if ok else 1


def _charfn_dump(name: str, fn: CharFn, d: int) -> dict:
    words = sorted(fn.op.coeffs, key=lambda w: (len(w), w))
    return {
        "name": name,
        "dom_basis": mat_to_json(fn.op.dom.basis),
        "cod_basis": mat_to_json(fn.op.cod.basis),
        "coefficients": [{"word": word_to_str(w, d), "matrix": mat_to_json(fn.op.coeff(w))}
                         for w in words],
    }


def cmd_charfn(args) -> int:
    try:
        scen = parse_scenario(args.scenario)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    degree = args.degree if args.degree is not None else scen.degree
    funcs = [("M_A", row_char_fn(scen.first.A, degree)),
             ("M_CE", lifting_char_fn(scen.first, degree))]
    if scen.iterated is not None:
        funcs += [("M_Aprime", row_char_fn(scen.second.A, degree)),
                  ("M_EEprime", lifting_char_fn(scen.second, degree)),
                  ("M_CEprime", lifting_char_fn(scen.iterated.as_c_lifting, degree))]
    doc = {
        "schema": 1,
        "scenario": scen.id,
        "degree": degree,
        "functions": [_charfn_dump(n, f, scen.d) for n, f in funcs],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _packaged_scenario(name: str) -> str:
    return str(resources.files("liftchar").joinpath("data", name))


def _expected_symbols(which: str) -> dict[str, dict[tuple, np.ndarray]]:
    s2, s3 = 1 / np.sqrt(2), 1 / np.sqrt(3)
    if which == "example1":
        return {"M_CEprime": {(): np.array([[s3, 0, 0]]), (1,): np.array([[0, s3, s3]])}}
    return {
        "M_CE": {(): np.array([[s2, 0]]), (1,): np.array([[0, s2]])},
        "M_EEprime": {(): np.array([[0, 0, 0], [0, 1, 0]]),
                      (1,): np.array([[0, 0, 1], [0, 0, 0]])},
        "M_CEprime": {(): np.array([[0.0, 0, 0]]), (1,): np.array([[0, s2, s2]])},
    }


def symbol_matches(fn: CharFn, expected: dict[tuple, np.ndarray], tol: float = 1e-10) -> float:
    """Max deviation of the ambient symbol from the expected word -> matrix table."""
    amb = fn.ambient_symbol()
    words = set(amb) | set(expected)
    resid = 0.0
    for w in words:
        got = amb.get(w)
        want = expected.get(w)
        if got is None:
            got = np.zeros_like(want)
        if want is None:
            want = np.zeros_like(got)
        resid = max(resid, operator_norm(got - want))
    return resid


def cmd_worked_examples(args) -> int:
    overall_ok = True
    for name in ("example1", "example2"):
        path = _packaged_scenario(f"{name}.json")
        scen = parse_scenario(path)
        checks = run_battery(scen.first, scen.iterated, scen.degree, scen.tolerance, "all")
        for fn_name, expected in _expected_symbols(name).items():
            if fn_name == "M_CE":
                fn = lifting_char_fn(scen.first, scen.degree)
            elif fn_name == "M_EEprime":
                fn = lifting_char_fn(scen.second, scen.degree)
            else:
                fn = lifting_char_fn(scen.iterated.as_c_lifting, scen.degree)
            checks.append(CheckResult(f"symbol[{fn_name}]",
                                      symbol_matches(fn, expected), 1e-10))
        if name == "example2":
            rep = verify_minimal_product(scen.iterated.first, scen.iterated.second,
                                         scen.degree, scen.tolerance)
            checks.append(CheckResult("minimal-symbol-product", rep.residual, 1e-10))
        sys.stdout.write(render_report(name, scen.degree, checks))
        overall_ok = overall_ok and all(c.passed for c in checks)
    return 0 if overall_ok else 1


# ---------------------------------------------------------------------------

def _int_at_least(least: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


def _positive_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="liftchar",
                                description="verify characteristic-function identities "
                                            "of contractive liftings at finite truncation")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verifiers on a scenario file")
    v.add_argument("scenario")
    v.add_argument("--degree", type=_int_at_least(0), default=None)
    v.add_argument("--tol", type=_positive_tol, default=None)
    v.add_argument("--check", choices=CHECK_NAMES, default="all")
    v.add_argument("--out", default=None, help="also write a JSON report here")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("random-suite", help="randomized verification sweep")
    r.add_argument("--seeds", type=_int_at_least(1), default=10)
    r.add_argument("--seed-base", type=_int_at_least(0), default=0)
    r.add_argument("--d-max", type=_int_at_least(1), default=2)
    r.add_argument("--dim-max", type=_int_at_least(1), default=2)
    r.add_argument("--degree", type=_int_at_least(0), default=5)
    r.add_argument("--tol", type=_positive_tol, default=1e-8)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_random_suite)

    c = sub.add_parser("charfn", help="dump characteristic-function coefficients")
    c.add_argument("scenario")
    c.add_argument("--degree", type=_int_at_least(0), default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_charfn)

    e = sub.add_parser("worked-examples",
                       help="reproduce the two shipped worked examples")
    e.set_defaults(func=cmd_worked_examples)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LiftcharError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
