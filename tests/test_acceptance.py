"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Tolerances are pinned to the stated values; populations are seeded and
deterministic.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from liftchar.charfact import (
    _cascade,
    lifting_char_fn,
    minimal_part,
    resolvent_identity_residual,
    row_char_fn,
    synthesize_lifting,
    verify_factorization,
    verify_minimal_product,
)
from liftchar.cli import _packaged_scenario, parse_scenario, run_battery, symbol_matches
from liftchar.gen import (
    random_iterated_lifting,
    random_row_contraction,
    random_synthesis_data,
)
from liftchar.ncfock import block_diag_op, const_op, fock_basis, identity_op, product
from liftchar.numlin import DefectData
from liftchar.rowcon import RowContraction

S2 = 1 / np.sqrt(2)
S3 = 1 / np.sqrt(3)
POP_SEED = 20260809


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def population():
    """The shared randomized population: 100 iterated liftings, d <= 2, dims <= 2."""
    out = []
    for i in range(100):
        rng = np.random.default_rng([POP_SEED, i])
        d = int(rng.integers(1, 3))
        dims = tuple(int(rng.integers(1, 3)) for _ in range(3))
        out.append(random_iterated_lifting(rng, d, dims))
    return out


def test_criterion_1_example1_reproduction():
    t0 = time.monotonic()
    scen = parse_scenario(_packaged_scenario("example1.json"))
    fn = lifting_char_fn(scen.iterated.as_c_lifting, 2)
    sym_resid = symbol_matches(fn, {(): np.array([[S3, 0, 0]]),
                                    (1,): np.array([[0, S3, S3]])})
    rep = verify_factorization(scen.iterated, 2, 1e-10)
    elapsed = time.monotonic() - t0
    ok = sym_resid < 1e-10 and rep.residual < 1e-10 and rep.passed and elapsed < 1.0
    announce(1, ok, f"symbol dev {sym_resid:.2e}, factorization residual "
                    f"{rep.residual:.2e}, {elapsed:.2f}s")


def test_criterion_2_example2_reproduction():
    t0 = time.monotonic()
    scen = parse_scenario(_packaged_scenario("example2.json"))
    it = scen.iterated
    dev = max(
        symbol_matches(lifting_char_fn(it.first, 2),
                       {(): np.array([[S2, 0]]), (1,): np.array([[0, S2]])}),
        symbol_matches(lifting_char_fn(it.second, 2),
                       {(): np.array([[0, 0, 0], [0, 1, 0]]),
                        (1,): np.array([[0, 0, 1], [0, 0, 0]])}),
        symbol_matches(lifting_char_fn(it.as_c_lifting, 2),
                       {(): np.array([[0.0, 0, 0]]), (1,): np.array([[0, S2, S2]])}),
    )
    mp = minimal_part(it.first, it.second)
    dev = max(dev, symbol_matches(lifting_char_fn(mp.tilde_lifting, 2),
                                  {(1,): np.array([[0.0, 1.0]])}))
    # the splitting unitary inverse is the recorded basis change: its first
    # column is the second orbit vector exactly; the complement column agrees
    # up to the orientation phase of the complement basis
    p = np.array([[1, 0, 0], [0, S2, -S2], [0, S2, S2]])
    amb = mp.sigma.op.domain.basis @ mp.sigma.op.matrix.conj().T
    sigma_dev = float(np.linalg.norm(amb[:, 0] - p[:, 1]))
    sigma_phase = abs(abs(np.vdot(amb[:, 1], p[:, 2])) - 1)
    rep = verify_minimal_product(it.first, it.second, 2, 1e-10)
    elapsed = time.monotonic() - t0
    ok = (dev < 1e-10 and sigma_dev < 1e-10 and sigma_phase < 1e-10
          and rep.residual < 1e-10 and rep.passed and elapsed < 1.0)
    announce(2, ok, f"symbol dev {dev:.2e}, splitting dev {sigma_dev:.2e}, "
                    f"product residual {rep.residual:.2e}, {elapsed:.2f}s")


def test_criterion_3_resolvent_identity_suite():
    t0 = time.monotonic()
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng([POP_SEED + 1, i])
        d = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        a = random_row_contraction(rng, d, dim)
        worst = max(worst, resolvent_identity_residual(a, 5))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    announce(3, ok, f"200 instances (d<=3, dim<=3), worst residual {worst:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_4_factorization_suite(population):
    t0 = time.monotonic()
    worst = worst_cols = 0.0
    for it in population:
        rep = verify_factorization(it, 5, 1e-8)
        worst = max(worst, rep.residual)
        worst_cols = max(worst_cols, *rep.residual_columns.values())
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and worst_cols < 1e-8 and elapsed < 120.0
    announce(4, ok, f"100 iterated liftings, worst residual {worst:.2e}, "
                    f"worst column restriction {worst_cols:.2e}, {elapsed:.1f}s")


def test_criterion_5_minimal_product_suite(population):
    worst = 0.0
    all_minimal = True
    for it in population:
        rep = verify_minimal_product(it.first, it.second, 5, 1e-8)
        worst = max(worst, rep.residual)
        all_minimal = all_minimal and rep.checks["tilde_minimal"] == 0.0
    ok = worst < 1e-8 and all_minimal
    announce(5, ok, f"100 instances, worst residual {worst:.2e}, "
                    f"all minimal parts certified minimal: {all_minimal}")


def test_criterion_6_structural_invariants(population):
    worst: dict[str, float] = {}
    ok = True
    for it in population:
        for c in run_battery(it.first, it, 5, 1e-8, "sigmas"):
            base = c.name.split("[")[0]
            worst[base] = max(worst.get(base, 0.0), c.residual)
            ok = ok and c.passed
    detail = ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items()))
    announce(6, ok, detail)


def test_criterion_7_synthesis_round_trip():
    worst = 0.0
    ok = True
    for i in range(50):
        rng = np.random.default_rng([POP_SEED + 2, i])
        d = int(rng.integers(1, 3))
        dims = tuple(int(rng.integers(1, 3)) for _ in range(3))
        data = random_synthesis_data(rng, d, dims)
        _, rep = synthesize_lifting(*data, 4, 1e-8)
        worst = max(worst, rep.residual)
        ok = ok and rep.passed
    # the worked-example data reconstructs its lifting and symbol
    c = RowContraction((np.array([[0.5]], dtype=complex),))
    z = RowContraction((np.zeros((1, 1), dtype=complex),))
    lam = np.array([[S3, S3]])
    ep, rep = synthesize_lifting(c, z, z, lam, np.eye(2), 3, 1e-10)
    recon = float(np.linalg.norm(np.hstack(ep.B) - np.array([[0.5], [0.5]])))
    # the prescribed operator [D_{*lam}, lam] (I (+) (M_A (+) I) u (I (+) M_A'))
    basis = fock_basis(1, 3)
    m_z = row_char_fn(z, 3).op
    symbol = product(const_op(basis, np.hstack([DefectData.of(lam.conj().T).D, lam])),
                     block_diag_op(basis, identity_op(basis, 1),
                                   _cascade(basis, m_z, np.eye(2), m_z)))
    sym_dev = max(np.linalg.norm(symbol.coeff(()) - np.array([[S3, 0, 0]])),
                  np.linalg.norm(symbol.coeff((1,)) - np.array([[0, S3, S3]])))
    ok = ok and recon < 1e-10 and sym_dev < 1e-10 and rep.passed
    announce(7, ok, f"50 data sets, worst residual {worst:.2e}; worked-example "
                    f"reconstruction dev {recon:.2e}, symbol dev {sym_dev:.2e}")


def test_criterion_8_determinism(tmp_path):
    outs = []
    reports = []
    for k in range(2):
        out_file = tmp_path / f"suite-{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "liftchar", "random-suite", "--seeds", "10",
             "--out", str(out_file)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(proc.stdout)
        reports.append(out_file.read_bytes())
    ok = outs[0] == outs[1] and reports[0] == reports[1]
    announce(8, ok, f"two runs of `random-suite --seeds 10`: stdout "
                    f"{'identical' if outs[0] == outs[1] else 'differ'}, report files "
                    f"{'identical' if reports[0] == reports[1] else 'differ'}")
