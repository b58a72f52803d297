"""Contractive liftings of row contractions and their defect-space unitaries.

A lifting of C by A is the block lower-triangular row contraction
E_i = [[C_i, 0], [B_i, A_i]]; it is contractive exactly when the coupling
factors as row(B)* = D_C gamma D_{*,A} for a contraction gamma from the
star-defect space of A to the column-defect space of C.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimMismatch, Mismatch, ResidualTooLarge
from .numlin import (
    DefectData,
    Subspace,
    SubOperator,
    as_complex,
    block_shuffle,
    direct_sum,
    frozen,
    memo,
    norm_exceeds,
    operator_norm,
    polar_unitary,
    readonly,
    require_contraction,
    unitarity_residual,
)
from .rowcon import RowContraction, _block_row, _row_blocks, defect, star_defect

LIFT_TOL = 1e-10  # relative residual of a coupling factorization extracted from B blocks
BUILD_TOL = 1e-8  # a construction gate refuses above this
SPAN_TOL = 1e-9  # a Krylov vector shorter than this after orthogonalization adds nothing


@dataclass(frozen=True)
class Lifting:
    """A contractive lifting E = [[C, 0], [B, A]] with its coupling contraction.

    The defects of C, A and E are those of the row contractions, computed
    once per row contraction; B is a (d, n_A, n_C) view of the stored row(B).
    """

    C: RowContraction
    A: RowContraction
    b_row: np.ndarray  # row(B): H_C^d -> H_A
    gamma: SubOperator  # star-defect space of A -> column-defect space of C
    E: RowContraction

    def __post_init__(self):
        object.__setattr__(self, "b_row", frozen(self.b_row))

    @property
    def d(self) -> int:
        return self.C.d

    @property
    def dC(self) -> DefectData:
        return defect(self.C)

    @property
    def dA(self) -> DefectData:
        return defect(self.A)

    @property
    def dstarA(self) -> DefectData:
        return star_defect(self.A)

    @property
    def dstarC(self) -> DefectData:
        return star_defect(self.C)

    @property
    def dE(self) -> DefectData:
        return defect(self.E)

    @property
    def dstarE(self) -> DefectData:
        return star_defect(self.E)

    @property
    def B(self) -> np.ndarray:
        """The blocks B_i, a read-only (d, n_A, n_C) view of row(B)."""
        return _row_blocks(self.b_row, self.d)

    @cached_property
    def gamma_ambient(self) -> np.ndarray:
        """gamma as a map H_A -> H_C^d supported on the defect spaces."""
        return self.gamma.as_ambient()

    @cached_property
    def shuffle(self) -> np.ndarray:
        """Index array reordering H_E^d into H_C^d + H_A^d."""
        return block_shuffle([self.C.dim, self.A.dim], self.d)


def _assemble_lifting(c: RowContraction, a: RowContraction, b_row: np.ndarray,
                      gamma: SubOperator) -> Lifting:
    """The lifting with blocks E_i = [[C_i, 0], [B_i, A_i]]; building E validates
    it as a row contraction (the "if" direction of the factorization)."""
    nc, na = c.dim, a.dim
    e = np.zeros((c.d, nc + na, nc + na), dtype=np.complex128)
    e[:, :nc, :nc] = c.ops
    e[:, nc:, :nc] = _row_blocks(b_row, c.d)
    e[:, nc:, nc:] = a.ops
    return Lifting(c, a, b_row, gamma, RowContraction(e))


def make_lifting(c: RowContraction, a: RowContraction, gamma: SubOperator) -> Lifting:
    """Build the lifting of c by a from the coupling contraction gamma."""
    if c.d != a.d:
        raise DimMismatch("c and a must have the same number of letters")
    dc = defect(c)
    dsa = star_defect(a)
    if not gamma.domain.same_basis(dsa.space):
        raise DimMismatch("gamma domain must be the star-defect space of a (same basis)")
    if not gamma.codomain.same_basis(dc.space):
        raise DimMismatch("gamma codomain must be the column-defect space of c (same basis)")
    require_contraction(gamma.matrix)
    b_row = dsa.D @ gamma.as_ambient().conj().T @ dc.D
    return _assemble_lifting(c, a, b_row, gamma)


def _as_row(b) -> np.ndarray:
    """row(B), from B's blocks (a sequence or a (d, m, n) stack) or from row(B)."""
    try:
        b = as_complex(b)
    except ValueError:  # numpy refuses blocks of unequal shapes
        raise DimMismatch("B blocks must all have one shape") from None
    return _block_row(b) if b.ndim == 3 else b


def extract_gamma(c: RowContraction, a: RowContraction, b) -> tuple[SubOperator, float]:
    """Solve row(B)* = D_C gamma D_{*,A} by pseudo-inverses, B given as its
    blocks or as row(B); the residual reports failure."""
    b_row = _as_row(b)
    if b_row.shape != (a.dim, c.d * c.dim):
        raise DimMismatch(f"B row has shape {b_row.shape}, expected {(a.dim, c.d * c.dim)}")
    dc, dsa = defect(c), star_defect(a)
    g_amb = dc.pinv @ b_row.conj().T @ dsa.pinv
    coords = dc.space.coords(g_amb @ dsa.space.basis)
    op = SubOperator(dsa.space, dc.space, coords)
    residual = operator_norm(b_row.conj().T - dc.D @ op.as_ambient() @ dsa.D)
    return op, residual


def _coupling_from_blocks(c: RowContraction, a: RowContraction,
                         b_row: np.ndarray) -> SubOperator:
    """The coupling extracted from row(B), which must factor within
    LIFT_TOL * max(1, ||B||) and be a contraction."""
    gamma, residual = extract_gamma(c, a, b_row)
    if residual > LIFT_TOL * max(1.0, operator_norm(b_row)):
        raise ResidualTooLarge(
            f"B does not factor as D_C gamma D_*A (residual {residual:.3e})")
    require_contraction(gamma.matrix)
    return gamma


def lifting_from_blocks(c: RowContraction, a: RowContraction, b) -> Lifting:
    """Build a Lifting from explicit B blocks, verifying the coupling factorization."""
    b_row = _as_row(b)
    return _assemble_lifting(c, a, b_row, _coupling_from_blocks(c, a, b_row))


# ---------------------------------------------------------------------------
# defect-space unitaries of a lifting

@dataclass(frozen=True)
class SigmaUnitary:
    """A unitary between defect spaces, with the residuals its report lines judge."""

    op: SubOperator
    defining_residual: float  # || sigma D - target || on the ambient space
    unitary_residual: float


def _unitary_or_inf(m: np.ndarray) -> float:
    """unitarity_residual of a square matrix; inf for a non-square one."""
    return unitarity_residual(m) if m.shape[0] == m.shape[1] else float("inf")


def _certified_sigma(target: np.ndarray, dd: DefectData, cod: Subspace) -> SigmaUnitary:
    """Unitary s with s (D h) = target h, built as the polar factor of
    target restricted to range(D): that is s Lambda with Lambda = D on its
    range, positive, so its polar factor is s itself.  The residuals are
    reported, not gated; unitary_residual is inf when cod and dom differ in
    dimension.  Q s Q* D has its range in cod, so the defining residual is
    at least ||(I - P_cod) target||, how far target leaves cod."""
    dom = dd.space
    mat = polar_unitary(cod.coords(target @ dom.basis))
    resid = operator_norm(cod.basis @ mat @ dom.basis.conj().T @ dd.D - target)
    return SigmaUnitary(SubOperator(dom, cod, mat), resid, _unitary_or_inf(mat))


def defect_unitary(lift: Lifting) -> SigmaUnitary:
    """Unitary from the column-defect space of E onto D_{*,delta} + D_A.

    Its defining relation, with delta the lifting's coupling:
        sigma D_E = [[D_{*,delta} D_C, 0], [-row(A)* delta* D_C, D_A]]
    after the canonical reordering of H_E^d into H_C^d + H_A^d.  Computed
    once per lifting.
    """
    def compute():
        star_delta = lift.gamma.star_defect
        q_c = lift.dC.space.basis
        t11 = q_c @ star_delta.D @ q_c.conj().T @ lift.dC.D
        t21 = -lift.A.row.conj().T @ lift.gamma_ambient.conj().T @ lift.dC.D
        top = np.hstack([t11, np.zeros((t11.shape[0], lift.d * lift.A.dim))])
        bot = np.hstack([t21, lift.dA.D])
        target = np.vstack([top, bot])[:, np.argsort(lift.shuffle)]
        # column permutation: target consumes H_E^d in its native interleaved order
        star_delta_space = Subspace(lift.d * lift.C.dim, q_c @ star_delta.space.basis)
        cod = direct_sum(star_delta_space, lift.dA.space)
        return _certified_sigma(target, lift.dE, cod)
    return memo(lift, "defect_unitary", compute)


def triangular_split(d1: DefectData, x: np.ndarray, g: SubOperator,
                     d2: DefectData) -> tuple[np.ndarray, Subspace]:
    """Target and codomain of the unitary that splits the defect of a
    block upper-triangular contraction whose corner factors through g.

    The target is
        [[D_1, -x g D_2], [0, Q_2 D_g Q_2* D_2]]
    (g as an ambient map, Q_2 the range basis of D_2), and the codomain is
    range(D_1) + Q_2 range(D_g).  `star_defect_unitary` takes
    (D_{*C}, row(C), delta, D_{*A}); `minimal_part` takes
    (D_Etilde, row(Etilde)*, gamma, D_Atilde).
    """
    q2 = d2.space.basis
    dg = g.defect
    t12 = -x @ g.as_ambient() @ d2.D
    t22 = q2 @ dg.D @ q2.conj().T @ d2.D
    target = np.vstack([
        np.hstack([d1.D, t12]),
        np.hstack([np.zeros((t22.shape[0], d1.D.shape[1])), t22]),
    ])
    return target, direct_sum(d1.space, Subspace(q2.shape[0], q2 @ dg.space.basis))


def star_defect_unitary(lift: Lifting) -> SigmaUnitary:
    """Unitary from the star-defect space of E onto D_{*,C} + D_delta.

    Defining relation (`triangular_split`):
        sigma' D_{*,E} = [[D_{*,C}, -row(C) delta D_{*,A}], [0, D_delta D_{*,A}]]
    on H_E = H_C + H_A (no reordering needed).  Computed once per lifting.
    """
    def compute():
        target, cod = triangular_split(lift.dstarC, lift.C.row, lift.gamma, lift.dstarA)
        return _certified_sigma(target, lift.dstarE, cod)
    return memo(lift, "star_defect_unitary", compute)


# ---------------------------------------------------------------------------
# iterated liftings

@dataclass(frozen=True)
class IteratedLifting:
    """E' lifting E lifting C, rearranged as the one-step lifting of C by A-hat."""

    first: Lifting         # E over C (coupling gamma)
    second: Lifting        # E' over E (coupling gamma')
    ahat_lifting: Lifting  # A-hat = [[A, 0], [B2', A']] over A (coupling delta)
    as_c_lifting: Lifting  # E' as C lifted by A-hat (coupling gamma-hat); E is second.E

    @property
    def delta(self) -> SubOperator:
        """Star-defect of A' -> column-defect of A."""
        return self.ahat_lifting.gamma

    @property
    def a_hat(self) -> RowContraction:
        return self.ahat_lifting.E

    @property
    def gamma_hat(self) -> SubOperator:
        """Star-defect of A-hat -> column-defect of C."""
        return self.as_c_lifting.gamma


def iterate_liftings(first: Lifting, second: Lifting) -> IteratedLifting:
    """Split B' = [B1', B2'], lift A by A' with B2' (that is A-hat), and lift C
    by A-hat with [B; B1'].  That E' is second.E restacked (second.C agrees
    with first.E to 1e-10), so E' over C holds second.E itself and its
    defects are computed once."""
    if second.C.d != first.E.d or second.C.dim != first.E.dim:
        raise Mismatch("second lifting must lift the first one's E")
    if norm_exceeds(second.C.row - first.E.row, 1e-10):
        raise Mismatch("second.C differs from first.E")
    nc = first.C.dim
    ahat_lifting = lifting_from_blocks(first.A, second.A, second.B[:, :, nc:])
    a_hat = ahat_lifting.E
    b_hat = _block_row(np.concatenate([first.B, second.B[:, :, :nc]], axis=1))
    gamma_hat = _coupling_from_blocks(first.C, a_hat, b_hat)
    return IteratedLifting(first, second, ahat_lifting,
                           Lifting(first.C, a_hat, b_hat, gamma_hat, second.E))


# ---------------------------------------------------------------------------
# Julia-Halmos matrix

@dataclass(frozen=True)
class JuliaHalmos:
    J: np.ndarray  # on cod(L) + dom(L) coordinates of the contraction L
    residual: float


def julia_halmos(op: SubOperator) -> JuliaHalmos:
    """The unitary [[D_{*,L}, L], [-L*, D_L]] attached to a contraction L, computed
    once per operator (J read-only)."""
    def compute():
        m = op.matrix
        require_contraction(m)
        j = np.block([[op.star_defect.D, m], [-m.conj().T, op.defect.D]])
        return JuliaHalmos(readonly(j), unitarity_residual(j))
    return memo(op, "julia_halmos", compute)


# ---------------------------------------------------------------------------
# span growth and minimality

def krylov_span(mats: list[np.ndarray] | tuple[np.ndarray, ...],
                seed: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the smallest invariant subspace containing span(seed).

    A first-in-first-out queue of candidates, the seed columns first: each
    candidate is orthogonalized against the basis by two-pass Gram-Schmidt
    and kept unless its norm is at most SPAN_TOL (the one use of that cut),
    and every matrix applied to a kept vector joins the queue.  So the orbit
    grows level by level, each level in the order its vectors were kept,
    until the queue empties or the basis spans the ambient space.
    """
    n = seed.shape[0]
    basis: list[np.ndarray] = []
    queue = deque(seed.T)
    while queue and len(basis) < n:
        v = np.array(queue.popleft(), dtype=np.complex128)
        for _ in range(2):
            for b in basis:
                v -= b * (b.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm <= SPAN_TOL:
            continue
        basis.append(v / nrm)
        queue.extend(m @ basis[-1] for m in mats)
    return np.column_stack(basis) if basis else np.zeros((n, 0), dtype=np.complex128)


def head_orbit(e: RowContraction, k: int) -> np.ndarray:
    """Orthonormal basis of span{ E_w x : x in the first k coordinates }, whose
    first k columns are exactly those coordinate vectors: for a lifting of C,
    the E-orbit of H_C."""
    seed = np.zeros((e.dim, k), dtype=np.complex128)
    seed[:k, :] = np.eye(k)
    return krylov_span(e.ops, seed)


def is_minimal_lifting(lift: Lifting) -> bool:
    """Whether span{ E_w x : x in H_C } exhausts H_E."""
    return head_orbit(lift.E, lift.C.dim).shape[1] == lift.E.dim
