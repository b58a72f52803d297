"""Dense complex linear algebra kernels and subspace calculus.

All matrices are complex128 numpy arrays.  Subspaces are stored as an
ambient dimension plus an orthonormal column basis; operators between
subspaces carry their matrix in those bases.  Basis conventions are fixed
once here (descending eigenvalue, first nonzero coordinate real positive)
so that defect-space coordinates are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotHermitian, NotPSD, NotSquare

RANK_TOL = 1e-10
ORTH_TOL = 1e-12


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm; 0.0 for matrices with an empty axis."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def pinv(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, singular values below rank_tol*s_max -> 0."""
    m = as_complex(m)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    return np.linalg.pinv(m, rcond=rank_tol)


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
        if b.shape[1] and isometry_residual(b) > ORTH_TOL:
            raise DimMismatch("basis columns are not orthonormal within 1e-12")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, np.eye(n, dtype=np.complex128))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0), dtype=np.complex128))

    def project(self) -> np.ndarray:
        """Orthogonal projection onto the subspace, as an ambient matrix."""
        return self.basis @ self.basis.conj().T

    def coords(self, vectors: np.ndarray) -> np.ndarray:
        """Coordinates of ambient column vectors in this basis."""
        return self.basis.conj().T @ as_complex(vectors)

    def contains_residual(self, vectors: np.ndarray) -> float:
        """||(I - P) V|| measuring how far V's columns leave the subspace."""
        v = as_complex(vectors)
        return operator_norm(v - self.basis @ (self.basis.conj().T @ v))

    def same_basis(self, other: "Subspace", tol: float = 1e-10) -> bool:
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and (self.dim == 0 or operator_norm(self.basis - other.basis) <= tol)
        )


def psd_root_range(gram, rank_tol: float = RANK_TOL) -> tuple[np.ndarray, Subspace]:
    """Clamped positive root of a Hermitian PSD Gram matrix plus its range.

    The one PSD eigendecomposition of the library: eigenvalues at or below
    rank_tol * max eigenvalue are set to exactly zero before taking square
    roots, so the root, its range basis, and pseudo-inverses stay mutually
    consistent.  (Rank decisions on the root itself would see noise
    amplified to sqrt(eps).)  Eigenvalues below -rank_tol * scale raise
    NotPSD.  The range basis is ordered by descending eigenvalue with the
    first nonzero coordinate of each vector real positive, so it is
    reproducible for identical inputs.
    """
    gram = as_complex(gram)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {gram.shape}")
    n = gram.shape[0]
    if n == 0:
        return gram.copy(), Subspace.zero(0)
    # scale floored at 1: everything here is built from contractions, and a
    # purely relative test misfires on near-zero defect operators
    scale = max(operator_norm(gram), 1.0)
    if operator_norm(gram - gram.conj().T) > rank_tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    if w[0] < -rank_tol * scale:
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


def null_subspace(m, rank_tol: float = RANK_TOL) -> Subspace:
    """Null space of an arbitrary matrix via SVD, same phase convention."""
    rank, vh = svd_rank(m, rank_tol)
    return Subspace(vh.shape[0], _fix_phases(vh[rank:].conj().T))


@dataclass(frozen=True)
class SubOperator:
    """An operator between two subspaces, in their basis coordinates."""

    domain: Subspace
    codomain: Subspace
    matrix: np.ndarray  # k_cod x k_dom

    def __post_init__(self):
        m = as_complex(self.matrix)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise DimMismatch(
                f"matrix shape {m.shape} vs (cod {self.codomain.dim}, dom {self.domain.dim})"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def norm(self) -> float:
        return operator_norm(self.matrix)

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
