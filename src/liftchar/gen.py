"""Seeded random instances for the verification suites.

Row contractions are drawn as G / (||row of G|| + eta) with eta in
[0.05, 0.5], so strict contractivity holds with a margin and every defect
has full rank; degenerate cases are exercised by the shipped worked
examples instead.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .lifting import Lifting, IteratedLifting, is_minimal_lifting, iterate_liftings, make_lifting
from .numlin import SubOperator, Subspace, operator_norm
from .rowcon import RowContraction, _row_blocks, defect, star_defect

MAX_TRIES = 50            # draws of a minimal iterated lifting before giving up
MAX_SYNTHESIS_TRIES = 200  # draws of well-conditioned synthesis data before giving up


def _cgauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_row_contraction(rng: np.random.Generator, d: int, dim: int) -> RowContraction:
    g = _cgauss(rng, dim, d * dim)
    eta = rng.uniform(0.05, 0.5)
    g = g / (operator_norm(g) + eta)
    return RowContraction(_row_blocks(g, d))


def random_contraction_between(rng: np.random.Generator, dom: Subspace, cod: Subspace) -> SubOperator:
    g = _cgauss(rng, cod.dim, dom.dim)
    eta = rng.uniform(0.05, 0.5)
    nrm = operator_norm(g)
    if nrm > 0:
        g = g / (nrm + eta)
    return SubOperator(dom, cod, g)


def random_lifting(rng: np.random.Generator, c: RowContraction, a: RowContraction) -> Lifting:
    gamma = random_contraction_between(rng, star_defect(a).space, defect(c).space)
    return make_lifting(c, a, gamma)


def random_iterated_lifting(rng: np.random.Generator, d: int,
                            dims: tuple[int, int, int]) -> IteratedLifting:
    """A two-step lifting with both levels minimal (resampled deterministically)."""
    nc, na, nap = dims
    for _ in range(MAX_TRIES):
        c = random_row_contraction(rng, d, nc)
        a = random_row_contraction(rng, d, na)
        a2 = random_row_contraction(rng, d, nap)
        first = random_lifting(rng, c, a)
        second = random_lifting(rng, first.E, a2)
        if is_minimal_lifting(first) and is_minimal_lifting(second):
            return iterate_liftings(first, second)
    raise ValidationError(f"could not draw a minimal iterated lifting in {MAX_TRIES} tries; "
                          "relax dims")


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    dphase = np.diag(r).copy()
    dphase[np.abs(dphase) < 1e-300] = 1.0
    return q * (dphase / np.abs(dphase))


def random_synthesis_data(rng: np.random.Generator, d: int, dims: tuple[int, int, int]):
    """Input data (c, a, a2, lam, u) for the synthesis construction, with margins.

    The abstract spaces get the generic dimensions dim F = rank of the
    column defect of a, dim F_* = rank of the star defect of a2, which a
    strict corner block of u keeps consistent.
    """
    nc, na, nap = dims
    for _ in range(MAX_SYNTHESIS_TRIES):
        c = random_row_contraction(rng, d, nc)
        a = random_row_contraction(rng, d, na)
        a2 = random_row_contraction(rng, d, nap)
        k_c = defect(c).rank
        k_a = defect(a).rank
        k_sa = star_defect(a).rank
        k_sa2 = star_defect(a2).rank
        f_dim, f_star = k_a, k_sa2
        u = random_unitary(rng, k_a + f_star)
        lam = _cgauss(rng, k_c, k_sa + f_star)
        lam = lam / (operator_norm(lam) + max(rng.uniform(0.05, 0.5), 0.05))
        ust = u.conj().T
        p_blk = ust[:f_dim, :k_a]
        s_blk = ust[f_dim:, k_a:]
        r_blk = ust[f_dim:, :k_a]
        if p_blk.size and np.linalg.svd(p_blk, compute_uv=False)[-1] < 1e-2:
            continue
        if s_blk.size and np.linalg.svd(s_blk, compute_uv=False)[-1] < 1e-2:
            continue
        if r_blk.size and operator_norm(r_blk) > 1 - 1e-3:
            continue
        return c, a, a2, lam, u
    raise ValidationError(
        f"could not draw well-conditioned synthesis data in {MAX_SYNTHESIS_TRIES} tries")
