"""Contractive liftings of row contractions and their defect-space unitaries.

A lifting of C by A is the block lower-triangular row contraction
E_i = [[C_i, 0], [B_i, A_i]]; it is contractive exactly when the coupling
factors as row(B)* = D_C gamma D_{*,A} for a contraction gamma from the
star-defect space of A to the column-defect space of C.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numlin
from .errors import DimMismatch, Mismatch, NotContraction, ResidualTooLarge
from .numlin import (
    Subspace,
    SubOperator,
    as_complex,
    block_shuffle,
    direct_sum,
    operator_norm,
    pinv,
    polar_unitary,
    unitarity_residual,
)
from .rowcon import DefectData, RowContraction, all_words, defect, star_defect

log = logging.getLogger(__name__)

LIFT_TOL = 1e-10


@dataclass(frozen=True)
class Lifting:
    """A contractive lifting E = [[C, 0], [B, A]] with its coupling contraction."""

    C: RowContraction
    A: RowContraction
    B: tuple[np.ndarray, ...]
    gamma: SubOperator  # star-defect space of A -> column-defect space of C
    E: RowContraction

    @property
    def d(self) -> int:
        return self.C.d

    @cached_property
    def dC(self) -> DefectData:
        return defect(self.C)

    @cached_property
    def dA(self) -> DefectData:
        return defect(self.A)

    @cached_property
    def dstarA(self) -> DefectData:
        return star_defect(self.A)

    @cached_property
    def dstarC(self) -> DefectData:
        return star_defect(self.C)

    @cached_property
    def dE(self) -> DefectData:
        return defect(self.E)

    @cached_property
    def dstarE(self) -> DefectData:
        return star_defect(self.E)

    @property
    def b_row(self) -> np.ndarray:
        """row(B): H_C^d -> H_A."""
        return np.hstack(self.B)

    @cached_property
    def gamma_ambient(self) -> np.ndarray:
        """gamma as a map H_A -> H_C^d supported on the defect spaces."""
        return self.gamma.as_ambient()

    @cached_property
    def shuffle(self) -> np.ndarray:
        """Index array reordering H_E^d into H_C^d + H_A^d."""
        return block_shuffle([self.C.dim, self.A.dim], self.d)

    def column_split(self) -> tuple[np.ndarray, np.ndarray]:
        """Ambient H_E^d indices belonging to the H_C^d and H_A^d column groups."""
        idx = self.shuffle
        nc = self.d * self.C.dim
        return idx[:nc], idx[nc:]


def _assemble_lifting(c: RowContraction, a: RowContraction, b_row: np.ndarray,
                      gamma: SubOperator) -> Lifting:
    """E_i = [[C_i, 0], [B_i, A_i]] with row(B) split into its d blocks; building
    E validates it as a row contraction (the "if" direction of the factorization)."""
    nc, na = c.dim, a.dim
    b = tuple(b_row[:, i * nc : (i + 1) * nc] for i in range(c.d))
    mats = []
    for ci, bi, ai in zip(c.ops, b, a.ops):
        e = np.zeros((nc + na, nc + na), dtype=np.complex128)
        e[:nc, :nc] = ci
        e[nc:, :nc] = bi
        e[nc:, nc:] = ai
        mats.append(e)
    return Lifting(c, a, b, gamma, RowContraction(tuple(mats)))


def make_lifting(c: RowContraction, a: RowContraction, gamma: SubOperator,
                 tol: float = LIFT_TOL) -> Lifting:
    """Build the lifting of c by a from the coupling contraction gamma."""
    if c.d != a.d:
        raise DimMismatch("c and a must have the same number of letters")
    dc = defect(c)
    dsa = star_defect(a)
    if not gamma.domain.same_basis(dsa.space):
        raise DimMismatch("gamma domain must be the star-defect space of a (same basis)")
    if not gamma.codomain.same_basis(dc.space):
        raise DimMismatch("gamma codomain must be the column-defect space of c (same basis)")
    if gamma.norm > 1.0 + tol:
        raise NotContraction(f"coupling has norm {gamma.norm:.6f} > 1")
    b_row = dsa.D @ gamma.as_ambient().conj().T @ dc.D
    return _assemble_lifting(c, a, b_row, gamma)


def extract_gamma(c: RowContraction, a: RowContraction, b) -> tuple[SubOperator, float]:
    """Solve row(B)* = D_C gamma D_{*,A} by pseudo-inverses; residual reports failure."""
    b_row = np.hstack([as_complex(m) for m in b]) if isinstance(b, (list, tuple)) else as_complex(b)
    if b_row.shape != (a.dim, c.d * c.dim):
        raise DimMismatch(f"B row has shape {b_row.shape}, expected {(a.dim, c.d * c.dim)}")
    dc = defect(c)
    dsa = star_defect(a)
    g_amb = pinv(dc.D) @ b_row.conj().T @ pinv(dsa.D)
    coords = dc.space.coords(g_amb @ dsa.space.basis)
    op = SubOperator(dsa.space, dc.space, coords)
    residual = operator_norm(b_row.conj().T - dc.D @ op.as_ambient() @ dsa.D)
    return op, residual


def lifting_from_blocks(c: RowContraction, a: RowContraction, b,
                        tol: float = LIFT_TOL) -> Lifting:
    """Build a Lifting from explicit B blocks, verifying the coupling factorization."""
    gamma, residual = extract_gamma(c, a, b)
    if residual > tol * max(1.0, operator_norm(np.hstack([as_complex(m) for m in b]))):
        raise ResidualTooLarge(
            f"B does not factor as D_C gamma D_*A (residual {residual:.3e})")
    if gamma.norm > 1.0 + 1e-8:
        raise NotContraction(f"extracted coupling has norm {gamma.norm:.6f} > 1")
    return _assemble_lifting(c, a, np.hstack([as_complex(m) for m in b]), gamma)


# ---------------------------------------------------------------------------
# defect-space unitaries of a lifting

@dataclass(frozen=True)
class SigmaUnitary:
    """A certified unitary between defect spaces, with its residuals."""

    op: SubOperator
    defining_residual: float  # || sigma D - target || on the ambient space
    unitary_residual: float
    rank_deficit: int


def _certified_sigma(target: np.ndarray, d_op: np.ndarray, dom: Subspace, cod: Subspace,
                     tol: float) -> SigmaUnitary:
    """Unitary s with s (D h) = target h, built as target * pinv(D) on range(D)."""
    mat = cod.coords(target @ pinv(d_op) @ dom.basis)
    range_resid = cod.contains_residual(target)

    def defining(mm: np.ndarray) -> float:
        return operator_norm(cod.basis @ mm @ dom.basis.conj().T @ d_op - target)

    resid = max(defining(mat), range_resid)
    if mat.shape[0] == mat.shape[1]:
        un = unitarity_residual(mat)
        if un > 1e-12 and resid < tol:
            polished = polar_unitary(mat)
            if max(defining(polished), range_resid) <= max(resid, tol):
                mat = polished
                resid = max(defining(mat), range_resid)
                un = unitarity_residual(mat)
    else:
        un = numlin.isometry_residual(mat) if mat.shape[0] >= mat.shape[1] else float("inf")
    if resid > tol:
        raise ResidualTooLarge(f"defect unitary defining relation residual {resid:.3e}")
    deficit = cod.dim - dom.dim
    if deficit:
        log.warning("defect unitary rank deficit %d (cod %d vs dom %d)", deficit, cod.dim, dom.dim)
    return SigmaUnitary(SubOperator(dom, cod, mat), resid, float(un), deficit)


def defect_unitary(lift: Lifting, tol: float = 1e-8) -> SigmaUnitary:
    """Unitary from the column-defect space of E onto D_{*,delta} + D_A.

    Its defining relation, with delta the lifting's coupling:
        sigma D_E = [[D_{*,delta} D_C, 0], [-row(A)* delta* D_C, D_A]]
    after the canonical reordering of H_E^d into H_C^d + H_A^d.
    """
    dl = lift.gamma.matrix
    k_c = lift.dC.rank
    dstar_delta, sd_range = numlin.psd_root_range(np.eye(k_c) - dl @ dl.conj().T)
    q_c = lift.dC.space.basis
    t11 = q_c @ dstar_delta @ q_c.conj().T @ lift.dC.D
    t21 = -lift.A.row.conj().T @ lift.gamma_ambient.conj().T @ lift.dC.D
    top = np.hstack([t11, np.zeros((t11.shape[0], lift.d * lift.A.dim))])
    bot = np.hstack([t21, lift.dA.D])
    target = np.vstack([top, bot])[:, np.argsort(lift.shuffle)]
    # column permutation: target consumes H_E^d in its native interleaved order
    star_delta_space = Subspace(lift.d * lift.C.dim, q_c @ sd_range.basis)
    cod = direct_sum(star_delta_space, lift.dA.space)
    return _certified_sigma(target, lift.dE.D, lift.dE.space, cod, tol)


def star_defect_unitary(lift: Lifting, tol: float = 1e-8) -> SigmaUnitary:
    """Unitary from the star-defect space of E onto D_{*,C} + D_delta.

    Defining relation:
        sigma' D_{*,E} = [[D_{*,C}, -row(C) delta D_{*,A}], [0, D_delta D_{*,A}]]
    on H_E = H_C + H_A (no reordering needed).
    """
    dl = lift.gamma.matrix
    k_sa = lift.dstarA.rank
    d_delta, dd_range = numlin.psd_root_range(np.eye(k_sa) - dl.conj().T @ dl)
    q_sa = lift.dstarA.space.basis
    t12 = -lift.C.row @ lift.gamma_ambient @ lift.dstarA.D
    t22 = q_sa @ d_delta @ q_sa.conj().T @ lift.dstarA.D
    target = np.vstack([
        np.hstack([lift.dstarC.D, t12]),
        np.hstack([np.zeros((lift.A.dim, lift.C.dim)), t22]),
    ])
    delta_space = Subspace(lift.A.dim, q_sa @ dd_range.basis)
    cod = direct_sum(lift.dstarC.space, delta_space)
    return _certified_sigma(target, lift.dstarE.D, lift.dstarE.space, cod, tol)


# ---------------------------------------------------------------------------
# iterated liftings

@dataclass(frozen=True)
class IteratedLifting:
    """E' lifting E lifting C, rearranged as the one-step lifting of C by A-hat."""

    first: Lifting   # E over C (coupling gamma)
    second: Lifting  # E' over E (coupling gamma')
    delta: SubOperator       # star-defect of A' -> column-defect of A
    a_hat: RowContraction    # [[A, 0], [B2', A']]
    b_hat: tuple[np.ndarray, ...]
    gamma_hat: SubOperator   # star-defect of A-hat -> column-defect of C
    b1p: tuple[np.ndarray, ...]
    b2p: tuple[np.ndarray, ...]

    @cached_property
    def as_c_lifting(self) -> Lifting:
        """E' viewed as a lifting of C by A-hat."""
        lift = _assemble_lifting(self.first.C, self.a_hat, np.hstack(self.b_hat), self.gamma_hat)
        if operator_norm(np.hstack(lift.E.ops) - np.hstack(self.second.E.ops)) > 1e-12:
            raise Mismatch("reassembled E' disagrees with the given one")
        return lift


def iterate_liftings(first: Lifting, second: Lifting, tol: float = LIFT_TOL) -> IteratedLifting:
    """Assemble the two-step lifting data: split B', form A-hat, extract delta and gamma-hat."""
    if second.C.d != first.E.d or second.C.dim != first.E.dim:
        raise Mismatch("second lifting must lift the first one's E")
    if operator_norm(np.hstack(second.C.ops) - np.hstack(first.E.ops)) > 1e-10:
        raise Mismatch("second.C differs from first.E")
    d, nc = first.d, first.C.dim
    b1p = tuple(second.B[i][:, :nc] for i in range(d))
    b2p = tuple(second.B[i][:, nc:] for i in range(d))
    b_hat = tuple(np.vstack([first.B[i], b1p[i]]) for i in range(d))

    delta, r_delta = extract_gamma(first.A, second.A, b2p)
    if r_delta > tol * max(1.0, operator_norm(np.hstack(b2p))):
        raise ResidualTooLarge(f"delta extraction residual {r_delta:.3e}")
    # A-hat = [[A, 0], [B2', A']] is E of the lifting of A by A' with coupling delta
    a_hat = _assemble_lifting(first.A, second.A, np.hstack(b2p), delta).E
    gamma_hat, r_hat = extract_gamma(first.C, a_hat, b_hat)
    if r_hat > tol * max(1.0, operator_norm(np.hstack(b_hat))):
        raise ResidualTooLarge(f"gamma-hat extraction residual {r_hat:.3e}")
    return IteratedLifting(first, second, delta, a_hat, b_hat, gamma_hat, b1p, b2p)


# ---------------------------------------------------------------------------
# Julia-Halmos matrix

@dataclass(frozen=True)
class JuliaHalmos:
    L: SubOperator
    J: np.ndarray  # on cod(L) + dom(L) coordinates
    residual: float


def julia_halmos(op: SubOperator, tol: float = LIFT_TOL) -> JuliaHalmos:
    """The unitary [[D_{*,L}, L], [-L*, D_L]] attached to a contraction L."""
    m = op.matrix
    if operator_norm(m) > 1.0 + tol:
        raise NotContraction(f"operator norm {operator_norm(m):.6f} > 1")
    d_l, _, d_star, _ = numlin.contraction_defects(m)
    j = np.block([[d_star, m], [-m.conj().T, d_l]])
    return JuliaHalmos(op, j, unitarity_residual(j))


# ---------------------------------------------------------------------------
# span growth, minimality, resolving couplings

def krylov_span(mats: list[np.ndarray], seed: np.ndarray, rank_tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the smallest invariant subspace containing span(seed).

    Grows by applying every matrix to the newest vectors with two-pass
    Gram-Schmidt; the increasing chain stabilizes within the ambient dimension.
    """
    n = mats[0].shape[0] if mats else seed.shape[0]
    basis: list[np.ndarray] = []

    def absorb(vec: np.ndarray) -> bool:
        v = vec.astype(np.complex128).copy()
        for _ in range(2):
            for b in basis:
                v -= b * (b.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm <= rank_tol:
            return False
        basis.append(v / nrm)
        return True

    fresh: list[np.ndarray] = []
    for j in range(seed.shape[1]):
        if absorb(seed[:, j]):
            fresh.append(basis[-1])
    while fresh and len(basis) < n:
        next_fresh = []
        for v in fresh:
            for m in mats:
                if absorb(m @ v):
                    next_fresh.append(basis[-1])
        fresh = next_fresh
    return np.column_stack(basis) if basis else np.zeros((n, 0), dtype=np.complex128)


def is_minimal_lifting(lift: Lifting, rank_tol: float = 1e-9) -> bool:
    """Whether span{ E_w x : x in H_C } exhausts H_E."""
    n = lift.E.dim
    seed = np.zeros((n, lift.C.dim), dtype=np.complex128)
    seed[: lift.C.dim, :] = np.eye(lift.C.dim)
    span = krylov_span(list(lift.E.ops), seed, rank_tol)
    return span.shape[1] == n


def is_resolving(gamma: SubOperator, a: RowContraction, tol: float = 1e-8) -> bool:
    """Whether ker contains ker: gamma D_{*,A} A_w* h = 0 for all w forces
    D_{*,A} A_w* h = 0 for all w.

    Stacks observability blocks for word lengths <= L, growing L until the
    kernel of the gamma-composed stack stabilizes (one confirming sweep).
    """
    dsa = star_defect(a)
    if not gamma.domain.same_basis(dsa.space):
        raise DimMismatch("gamma domain must be the star-defect space of a")
    g_amb = gamma.as_ambient()
    n = a.dim

    def stacks(level: int) -> tuple[np.ndarray, np.ndarray]:
        rows_o, rows_g = [], []
        for w in all_words(a.d, level):
            block = dsa.D @ a.word_product(w).conj().T
            rows_o.append(block)
            rows_g.append(g_amb @ block)
        return np.vstack(rows_o), np.vstack(rows_g)

    prev_dim = None
    level = 0
    while True:
        o_stack, g_stack = stacks(level)
        ker = numlin.null_subspace(g_stack, 1e-12)
        if prev_dim is not None and ker.dim == prev_dim:
            break
        prev_dim = ker.dim
        level += 1
        if level > n + 1:
            break
    if ker.dim == 0:
        return True
    return operator_norm(o_stack @ ker.basis) <= tol
