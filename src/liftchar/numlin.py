"""Dense complex linear algebra kernels and subspace calculus.

All matrices are complex128 numpy arrays.  Subspaces are stored as an
ambient dimension plus an orthonormal column basis; operators between
subspaces carry their matrix in those bases.  Basis conventions are fixed
once here (descending eigenvalue, first nonzero coordinate real positive)
so that defect-space coordinates are reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimMismatch, NotContraction, NotHermitian, NotPSD, NotSquare

RANK_TOL = 1e-10
ORTH_TOL = 1e-12
# relative slack between a Frobenius or row/column bound and the spectral norm it
# stands in for: far wider than the rounding of either
_BOUND_MARGIN = 1e-8


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def readonly(m) -> np.ndarray:
    """A read-only complex view of m; the caller's own array stays writable."""
    v = as_complex(m).view()
    v.flags.writeable = False
    return v


def frozen(m) -> np.ndarray:
    """A read-only complex copy of m: later writes to the caller's array do not show through."""
    return readonly(np.array(m, dtype=np.complex128))


def memo(owner, key, compute):
    """compute(), once per owner and key.

    The value is kept in the owner's instance __dict__, as
    functools.cached_property does, so it lives exactly as long as the
    owner.  Owners are frozen objects whose arrays are read-only, and the
    key holds every argument that changes the result, so a stored value
    cannot go stale.
    """
    cache = owner.__dict__.setdefault("_memo", {})
    try:
        return cache[key]
    except KeyError:
        return cache.setdefault(key, compute())


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm (the top singular value); 0.0 for matrices with an empty axis."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def max_operator_norm(m) -> float:
    """Largest spectral norm in a stack (..., r, c) of matrices; 0.0 when it is empty.

    sqrt of the top eigenvalue of each block's smaller Gram matrix, by one
    batched eigvalsh: it agrees with the top singular value to rounding, and
    costs less than batched SVDs of small blocks.  Only blocks that could
    attain the maximum go through it.  Every column and row norm is a lower
    bound lb on the answer, and a block's Frobenius norm is an upper bound on
    its spectral norm, so a block whose Frobenius norm is below lb (1 - 1e-8),
    or zero, is provably below the maximum and is dropped.  The margin is far
    wider than the rounding of either bound, so the block that attains the
    maximum is always kept and the value is exactly the one the unpruned stack
    gives.  The squared norms are per-block reductions, with no temporary the
    size of the stack.
    """
    return max_operator_norm_of((m,))


def max_operator_norm_of(stacks: Iterable) -> float:
    """`max_operator_norm` over all the matrices of several stacks that share
    their (r, c) shape, read one stack at a time: a generator may make each
    stack as it is read and drop it after.  Each stack is pruned against the
    lower bound of the stacks read so far, which is at most the final one, and
    only its kept blocks are held; one eigvalsh runs over them at the end.
    """
    lb2, kept = 0.0, []
    for m in stacks:
        lb2, top = _norm_candidates(m, lb2)
        kept.append(top)
        del m  # freed before the next stack is made
    m = np.concatenate(kept) if kept else ()
    if len(m) == 0:
        return 0.0
    mh = m.conj().swapaxes(-1, -2)
    gram = m @ mh if m.shape[-2] <= m.shape[-1] else mh @ m
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[..., -1].max(), 0.0)))


def _norm_candidates(m, lb2: float) -> tuple[float, np.ndarray]:
    """The squared lower bound lb2 raised by the column and row norms of the
    stack m, and m's blocks that are not provably below it (NaN ones stay)."""
    m = np.asarray(m)
    if m.size == 0:
        return lb2, np.empty((0, *m.shape[-2:]), dtype=m.dtype)
    m = m.reshape(-1, *m.shape[-2:])
    parts = (m.real, m.imag) if np.iscomplexobj(m) else (m,)
    col2 = sum(np.einsum("nij,nij->nj", p, p) for p in parts)
    row2 = sum(np.einsum("nij,nij->ni", p, p) for p in parts)
    lb2 = max(lb2, col2.max(), row2.max())
    frob2 = col2.sum(axis=1)
    return lb2, m[~((frob2 < lb2 * (1.0 - _BOUND_MARGIN) ** 2) | (frob2 == 0.0))]


def norm_exceeds(m, bound: float) -> bool:
    """operator_norm(m) > bound, with the SVD only when the Frobenius norm
    cannot decide.

    The spectral norm is at most the Frobenius norm, so a Frobenius norm
    below bound (1 - 1e-8) settles the answer as False; the margin keeps the
    decision identical to the SVD's under rounding.
    """
    m = np.asarray(m)
    if np.linalg.norm(m) < bound * (1.0 - _BOUND_MARGIN):
        return False
    return operator_norm(m) > bound


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, singular values below RANK_TOL*s_max -> 0."""
    m = as_complex(m)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    return np.linalg.pinv(m, rcond=RANK_TOL)


def unitarity_residual(m) -> float:
    """||M*M - I|| for square M, equal to ||MM* - I|| as both have the
    singular values |s_i^2 - 1|, s_i those of M; caller compares to a tol."""
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {m.shape}")
    return operator_norm(m.conj().T @ m - np.eye(m.shape[0]))


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each unit column so its first nonzero coordinate is real positive.

    |pivot| is taken by hypot and each column is scaled by its own scalar, so
    every bit is that of the scalar abs and of a scalar-times-column product:
    numpy's array abs of a complex, and a product broadcast along rows, can
    round differently in the last bit, and these bases reach every report."""
    pivot = v[np.argmax(np.abs(v) > 1e-12, axis=0), np.arange(v.shape[1])]
    return (v.T * (np.hypot(pivot.real, pivot.imag) / pivot)[:, None]).T.copy()


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim given by an orthonormal column basis.

    `complement()` is the library's one orthogonal complement, so every
    complement is cut where the defects are, under RANK_TOL.
    """

    ambient_dim: int
    basis: np.ndarray  # ambient_dim x k, orthonormal columns

    def __post_init__(self):
        b = as_complex(self.basis)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimMismatch(f"basis shape {b.shape} vs ambient {self.ambient_dim}")
        if b.shape[1] > self.ambient_dim:
            raise DimMismatch("more basis vectors than ambient dimension")
        if b.shape[1] and norm_exceeds(b.conj().T @ b - np.eye(b.shape[1]), ORTH_TOL):
            raise DimMismatch("basis columns are not orthonormal within 1e-12")
        object.__setattr__(self, "basis", readonly(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, np.eye(n, dtype=np.complex128))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0), dtype=np.complex128))

    def coords(self, vectors: np.ndarray) -> np.ndarray:
        """Coordinates of ambient column vectors in this basis."""
        return self.basis.conj().T @ as_complex(vectors)

    def complement(self) -> "Subspace":
        """The orthogonal complement, as the range of the projector I - QQ*
        (Q the basis) by psd_root_range under RANK_TOL: on a projector the
        eigenvalues are 0 or 1 up to rounding, so the cut is far from both."""
        q = self.basis
        return psd_root_range(np.eye(self.ambient_dim) - q @ q.conj().T)[1]

    def same_basis(self, other: "Subspace") -> bool:
        """Same ambient space and basis vectors, to 1e-10 in operator norm."""
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and (self.dim == 0 or not norm_exceeds(self.basis - other.basis, 1e-10))
        )


def _below_psd(w: np.ndarray) -> bool:
    """The PSD gate on ascending eigenvalues w: w[0] < -RANK_TOL * max(-w[0], w[-1], 1),
    or any eigenvalue not finite.

    The scale is floored at 1: everything here is built from contractions,
    and a purely relative test misfires on near-zero defect operators.  A
    Gram matrix that overflows has eigenvalues -inf or NaN, where the
    comparison alone would read False and pass.
    """
    return not np.isfinite(w).all() or w[0] < -RANK_TOL * max(-w[0], w[-1], 1.0)


def require_contraction(m) -> None:
    """Raise NotContraction unless m is a contraction, by psd_root_range's PSD gate.

    The one contraction test of the library.  It decides on the smaller of
    I - mm* and I - m*m, whose smallest eigenvalue is 1 - ||m||^2, under the
    gate that later builds m's defect operators, so a matrix accepted here
    has defects psd_root_range accepts (the cut is near ||m|| = 1 + RANK_TOL/2).
    """
    m = as_complex(m)
    if m.size == 0:
        return
    mh = m.conj().T
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the gate below
        gram = m @ mh if m.shape[0] <= m.shape[1] else mh @ m
        w = np.linalg.eigvalsh(np.eye(gram.shape[0]) - gram)
    if _below_psd(w):
        norm = np.sqrt(1.0 - w[0]) if np.isfinite(w).all() else np.inf
        raise NotContraction(f"not contractive (norm {norm:.12f})")


def psd_root_range(gram) -> tuple[np.ndarray, Subspace]:
    """Clamped positive root of a Hermitian PSD Gram matrix plus its range.

    The one PSD eigendecomposition of the library, and so the one place a
    defect or complement rank is decided: eigenvalues at or below
    RANK_TOL * max eigenvalue are set to exactly zero before taking square
    roots, so the root, its range basis, and pseudo-inverses stay mutually
    consistent.  (Rank decisions on the root itself would see noise
    amplified to sqrt(eps).)  The gates take their scale from the same
    eigenvalues, max(|w|, 1): an anti-Hermitian part above RANK_TOL * scale
    raises NotHermitian, and eigenvalues below -RANK_TOL * scale raise
    NotPSD (`_below_psd`, the rule require_contraction shares).  A matrix
    with an infinite or NaN entry raises NotPSD before either gate, whose
    decompositions would not converge on it.  The range
    basis is ordered by descending eigenvalue with the first nonzero
    coordinate of each vector real positive, so it is reproducible for
    identical inputs.
    """
    gram = as_complex(gram)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {gram.shape}")
    n = gram.shape[0]
    if n == 0:
        return gram.copy(), Subspace.zero(0)
    if not np.isfinite(gram).all():
        raise NotPSD("matrix has a non-finite entry")
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    if norm_exceeds(gram - gram.conj().T, RANK_TOL * max(-w[0], w[-1], 1.0)):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    if _below_psd(w):
        raise NotPSD(f"negative eigenvalue {w[0]:.3e} below -tol*norm")
    lam_max = max(float(w[-1]), 0.0)
    cut = RANK_TOL * lam_max if lam_max > RANK_TOL else np.inf
    w = np.where(w > cut, w, 0.0)
    root = (v * np.sqrt(w)) @ v.conj().T
    root = (root + root.conj().T) / 2.0
    keep = w[::-1] > 0
    basis = _fix_phases(v[:, ::-1][:, keep])
    return root, Subspace(n, basis)


@dataclass(frozen=True)
class DefectData:
    """The defect D_M = (I - M*M)^{1/2} of a contraction M, the closure of its
    range, and its pseudo-inverse, computed once.

    The one representation of a defect, for row contractions and couplings
    alike.  The star defect D_{M*} = (I - MM*)^{1/2} is `of(M*)`.
    """

    D: np.ndarray
    space: Subspace

    def __post_init__(self):
        object.__setattr__(self, "D", readonly(self.D))

    @classmethod
    def of(cls, m) -> "DefectData":
        """D_M and its range, by one psd_root_range call."""
        m = as_complex(m)
        return cls(*psd_root_range(np.eye(m.shape[1]) - m.conj().T @ m))

    @property
    def rank(self) -> int:
        return self.space.dim

    @cached_property
    def pinv(self) -> np.ndarray:
        """The pseudo-inverse of D (read-only), the inverse of D on its range."""
        return readonly(pinv(self.D))  # the module function, not this property


def svd_rank(m) -> tuple[int, np.ndarray]:
    """Numerical rank of m (singular values above RANK_TOL * s_max) and the
    right singular vectors as the rows of an n x n unitary."""
    m = as_complex(m)
    if m.size == 0:
        return 0, np.eye(m.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    return int(np.sum(s > RANK_TOL * max(s[0], 1e-300))), vh


@dataclass(frozen=True)
class SubOperator:
    """An operator between two subspaces, in their basis coordinates.

    The matrix is stored as a read-only copy, so its cached defects cannot
    go stale.  `defect` and `star_defect` are each built on first use, so a
    side nobody reads is never decomposed.
    """

    domain: Subspace
    codomain: Subspace
    matrix: np.ndarray  # k_cod x k_dom

    def __post_init__(self):
        m = frozen(self.matrix)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise DimMismatch(
                f"matrix shape {m.shape} vs (cod {self.codomain.dim}, dom {self.domain.dim})"
            )
        object.__setattr__(self, "matrix", m)

    @cached_property
    def defect(self) -> DefectData:
        """(I - M*M)^{1/2} on the domain coordinates, computed once."""
        return DefectData.of(self.matrix)

    @cached_property
    def star_defect(self) -> DefectData:
        """(I - MM*)^{1/2} on the codomain coordinates, computed once."""
        return DefectData.of(self.matrix.conj().T)

    def as_ambient(self) -> np.ndarray:
        """The operator as a map between the two ambient spaces."""
        return self.codomain.basis @ self.matrix @ self.domain.basis.conj().T

    def adjoint(self) -> "SubOperator":
        return SubOperator(self.codomain, self.domain, self.matrix.conj().T)


def block_shuffle(dims: list[int], d: int) -> np.ndarray:
    """Index array mapping (H_1 + ... + H_m)^d to H_1^d + ... + H_m^d.

    Returns idx such that y = x[idx] reorders a stacked vector from the
    interleaved layout (d copies of the direct sum) to the grouped layout
    (direct sum of d-fold copies): the interleaved indices as a d x sum(dims)
    grid, read block of columns by block of columns, each block row by row.
    """
    grid = np.arange(d * sum(dims)).reshape(d, sum(dims))
    return np.concatenate([b.ravel() for b in np.split(grid, np.cumsum(dims)[:-1], axis=1)])


def block_diag(*mats: np.ndarray) -> np.ndarray:
    """Block diagonal of complex matrices (handles empty blocks)."""
    mats = [as_complex(m) for m in mats]
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def direct_sum(*spaces: Subspace) -> Subspace:
    """Direct sum of subspaces as a subspace of the concatenated ambient space."""
    ambient = sum(s.ambient_dim for s in spaces)
    return Subspace(ambient, block_diag(*(s.basis for s in spaces)))


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Closest unitary/partial-isometry factor of m via SVD."""
    m = as_complex(m)
    if m.size == 0:
        return m.copy()
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh
