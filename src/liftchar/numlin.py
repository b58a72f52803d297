"""Dense complex linear algebra kernels and subspace calculus.

All matrices are complex128 numpy arrays.  Subspaces are stored as an
ambient dimension plus an orthonormal column basis; operators between
subspaces carry their matrix in those bases.  Basis conventions are fixed
once here (descending eigenvalue, first nonzero coordinate real positive)
so that defect-space coordinates are reproducible across runs.
"""

from __future__ import annotations

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


def max_operator_norm(stacks) -> float:
    """Largest spectral norm in a stack (..., r, c) of matrices, or in an
    iterable of such stacks with one block shape; 0.0 when they are empty.

    sqrt of the top eigenvalue of each block's smaller Gram matrix, by one
    batched eigvalsh: it agrees with the top singular value to rounding, and
    costs less than batched SVDs of small blocks.  Only blocks that could
    attain the maximum go through it.  Every column and row norm seen is a
    lower bound lb on the answer, and a block's Frobenius norm is an upper
    bound on its spectral norm, so a block whose Frobenius norm is below
    lb (1 - 1e-8) is provably below the maximum and is dropped.  The margin
    is far wider than the rounding of either bound, so the block that
    attains the maximum is always kept and the value is exactly the one the
    unpruned blocks give.  The stacks are read one at a time against the
    bound so far, and the survivors are pruned again against the final one:
    the value over an iterable is exactly the value over the concatenated
    stacks.
    """
    if isinstance(stacks, np.ndarray):
        stacks = (stacks,)
    lb2, kept, kept_fro2 = 0.0, [], []
    for m in stacks:
        if m.size:
            sq = m.real**2 + m.imag**2
            lb2 = max(lb2, sq.sum(axis=-2).max(), sq.sum(axis=-1).max())
            fro2 = sq.sum(axis=(-2, -1))
            # "not below" rather than ">=", so NaN blocks stay in and the value is NaN
            keep = ~(fro2 < lb2 * (1.0 - _BOUND_MARGIN) ** 2)
            kept.append(m[keep])
            kept_fro2.append(fro2[keep])
    if not kept:
        return 0.0
    m = np.concatenate(kept)
    m = m[~(np.concatenate(kept_fro2) < lb2 * (1.0 - _BOUND_MARGIN) ** 2)]
    if m.size == 0:
        return 0.0
    mh = m.conj().swapaxes(-1, -2)
    gram = m @ mh if m.shape[-2] <= m.shape[-1] else mh @ m
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[..., -1].max(), 0.0)))


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
    """max(||M*M - I||, ||MM* - I||) for square M; caller compares to a tol."""
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {m.shape}")
    n = m.shape[0]
    eye = np.eye(n)
    return max(operator_norm(m.conj().T @ m - eye), operator_norm(m @ m.conj().T - eye))


def isometry_residual(m) -> float:
    """||M*M - I|| for a tall-or-square matrix (columns orthonormal)."""
    m = as_complex(m)
    return operator_norm(m.conj().T @ m - np.eye(m.shape[1]))


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero coordinate is real positive."""
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size == 0:
            continue
        pivot = col[nz[0]]
        v[:, j] = col * (abs(pivot) / pivot)
    return v


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim given by an orthonormal column basis."""

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

    def contains_residual(self, vectors: np.ndarray) -> float:
        """||(I - P) V|| measuring how far V's columns leave the subspace."""
        v = as_complex(vectors)
        return operator_norm(v - self.basis @ (self.basis.conj().T @ v))

    def same_basis(self, other: "Subspace") -> bool:
        """Same ambient space and basis vectors, to 1e-10 in operator norm."""
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and (self.dim == 0 or not norm_exceeds(self.basis - other.basis, 1e-10))
        )


def _below_psd(w: np.ndarray, rank_tol: float) -> bool:
    """The PSD gate on ascending eigenvalues w: w[0] < -rank_tol * max(-w[0], w[-1], 1).

    The scale is floored at 1: everything here is built from contractions,
    and a purely relative test misfires on near-zero defect operators.
    """
    return w[0] < -rank_tol * max(-w[0], w[-1], 1.0)


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
    gram = m @ mh if m.shape[0] <= m.shape[1] else mh @ m
    w = np.linalg.eigvalsh(np.eye(gram.shape[0]) - gram)
    if _below_psd(w, RANK_TOL):
        raise NotContraction(f"not contractive (norm {np.sqrt(1.0 - w[0]):.12f})")


def psd_root_range(gram, rank_tol: float = RANK_TOL) -> tuple[np.ndarray, Subspace]:
    """Clamped positive root of a Hermitian PSD Gram matrix plus its range.

    The one PSD eigendecomposition of the library: eigenvalues at or below
    rank_tol * max eigenvalue are set to exactly zero before taking square
    roots, so the root, its range basis, and pseudo-inverses stay mutually
    consistent.  (Rank decisions on the root itself would see noise
    amplified to sqrt(eps).)  The gates take their scale from the same
    eigenvalues, max(|w|, 1): an anti-Hermitian part above rank_tol * scale
    raises NotHermitian, and eigenvalues below -rank_tol * scale raise
    NotPSD (`_below_psd`, the rule require_contraction shares).  The range
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
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    if norm_exceeds(gram - gram.conj().T, rank_tol * max(-w[0], w[-1], 1.0)):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    if _below_psd(w, rank_tol):
        raise NotPSD(f"negative eigenvalue {w[0]:.3e} below -tol*norm")
    lam_max = max(float(w[-1]), 0.0)
    cut = rank_tol * lam_max if lam_max > rank_tol else np.inf
    w = np.where(w > cut, w, 0.0)
    root = (v * np.sqrt(w)) @ v.conj().T
    root = (root + root.conj().T) / 2.0
    keep = w[::-1] > 0
    basis = _fix_phases(v[:, ::-1][:, keep])
    return root, Subspace(n, basis)


def contraction_defects(m) -> tuple[np.ndarray, Subspace, np.ndarray, Subspace]:
    """(D, range D, D_*, range D_*) of a contraction matrix, clamped roots."""
    m = as_complex(m)
    d, d_space = psd_root_range(np.eye(m.shape[1]) - m.conj().T @ m)
    ds, ds_space = psd_root_range(np.eye(m.shape[0]) - m @ m.conj().T)
    return d, d_space, ds, ds_space


def svd_rank(m, rank_tol: float = RANK_TOL) -> tuple[int, np.ndarray]:
    """Numerical rank of m (singular values above rank_tol * s_max) and the
    right singular vectors as the rows of an n x n unitary."""
    m = as_complex(m)
    if m.size == 0:
        return 0, np.eye(m.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    return int(np.sum(s > rank_tol * max(s[0], 1e-300))), vh


@dataclass(frozen=True)
class SubOperator:
    """An operator between two subspaces, in their basis coordinates.

    The matrix is stored as a read-only copy, so its cached defects cannot
    go stale.
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
    def defects(self) -> tuple[np.ndarray, Subspace, np.ndarray, Subspace]:
        """(D, range D, D_*, range D_*) of the matrix, computed once."""
        return contraction_defects(self.matrix)

    def as_ambient(self) -> np.ndarray:
        """The operator as a map between the two ambient spaces."""
        return self.codomain.basis @ self.matrix @ self.domain.basis.conj().T

    def adjoint(self) -> "SubOperator":
        return SubOperator(self.codomain, self.domain, self.matrix.conj().T)


def block_shuffle(dims: list[int], d: int) -> np.ndarray:
    """Index array mapping (H_1 + ... + H_m)^d to H_1^d + ... + H_m^d.

    Returns idx such that y = x[idx] reorders a stacked vector from the
    interleaved layout (d copies of the direct sum) to the grouped layout
    (direct sum of d-fold copies).
    """
    n = sum(dims)
    offs = np.cumsum([0] + list(dims))
    idx = np.empty(n * d, dtype=np.intp)
    pos = 0
    for m, dim in enumerate(dims):
        for j in range(d):
            src = j * n + offs[m]
            idx[pos : pos + dim] = np.arange(src, src + dim)
            pos += dim
    return idx


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
