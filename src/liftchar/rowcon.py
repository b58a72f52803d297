"""Row contractions, defect data, words, and the truncated isometric dilation."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from . import numlin
from .errors import DimMismatch, IndexOutOfRange, NotPSD
from .numlin import Subspace, as_complex, memo, operator_norm, readonly

log = logging.getLogger(__name__)

ROWCON_TOL = 1e-10

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# words (letters are 1..d; stored little-endian as written, first letter first;
# reversal is always an explicit operation)

@lru_cache(maxsize=None)
def all_words(d: int, max_len: int) -> tuple[Word, ...]:
    """All words of length <= max_len in graded, then lexicographic order."""
    out: list[Word] = []
    for n in range(max_len + 1):
        out.extend(iter_product(range(1, d + 1), repeat=n))
    return tuple(out)


def reverse_word(w: Word) -> Word:
    return tuple(reversed(w))


def word_to_str(w: Word, d: int) -> str:
    if d > 9:
        raise DimMismatch("word serialization as digit strings requires d <= 9")
    return "".join(str(c) for c in w)


def str_to_word(s: str, d: int) -> Word:
    if d > 9:
        raise DimMismatch("word serialization as digit strings requires d <= 9")
    w = tuple(int(c) for c in s)
    for c in w:
        if not 1 <= c <= d:
            raise IndexOutOfRange(f"letter {c} outside 1..{d}")
    return w


# ---------------------------------------------------------------------------
# row contractions and defects

@dataclass(frozen=True)
class RowContraction:
    """A d-tuple of square matrices S_i on the same space with sum S_i S_i* <= I.

    The matrices are stored read-only, so quantities derived from them
    (defects, characteristic functions) are computed once and kept on the
    instance.
    """

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(readonly(s) for s in self.ops)
        if not ops:
            raise DimMismatch("need at least one operator")
        n = ops[0].shape[0]
        for s in ops:
            if s.shape != (n, n):
                raise DimMismatch("all tuple entries must be square of equal size")
        object.__setattr__(self, "ops", ops)
        if n:
            gram = np.eye(n) - self.row @ self.row.conj().T
            w = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
            if w.size and w[0] < -ROWCON_TOL:
                raise NotPSD(f"not a row contraction: min eigenvalue {w[0]:.3e}")

    @property
    def d(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    @property
    def row(self) -> np.ndarray:
        """The row matrix [S_1 ... S_d] mapping H^d -> H."""
        return np.hstack(self.ops)

    def word_product(self, w: Word) -> np.ndarray:
        """S_w = S_{w_1} S_{w_2} ... S_{w_n} (identity for the empty word)."""
        out = np.eye(self.dim, dtype=np.complex128)
        for c in w:
            out = out @ self.ops[c - 1]
        return out

    @classmethod
    def zero(cls, d: int, dim: int) -> "RowContraction":
        return cls(tuple(np.zeros((dim, dim)) for _ in range(d)))


@dataclass(frozen=True)
class DefectData:
    """Positive square root D together with the closure of its range."""

    D: np.ndarray
    space: Subspace
    kind: str  # "column" (on H^d) or "star" (on H)

    def __post_init__(self):
        object.__setattr__(self, "D", readonly(self.D))

    @property
    def rank(self) -> int:
        return self.space.dim


def defect(s: RowContraction, rank_tol: float = numlin.RANK_TOL) -> DefectData:
    """Column defect: PSD root of I - [S_i* S_j] on H^d, and its range.

    Root and range come from one clamped eigendecomposition of the Gram
    matrix, so rank decisions are made where roundoff sits at eps rather
    than sqrt(eps).  Computed once per row contraction and rank_tol.
    """
    def compute():
        row = s.row
        m = np.eye(s.d * s.dim) - row.conj().T @ row
        return DefectData(*numlin.psd_root_range(m, rank_tol), "column")
    return memo(s, ("defect", rank_tol), compute)


def star_defect(s: RowContraction, rank_tol: float = numlin.RANK_TOL) -> DefectData:
    """Star defect: PSD root of I - sum S_i S_i* on H, and its range.

    Computed once per row contraction and rank_tol.
    """
    def compute():
        row = s.row
        m = np.eye(s.dim) - row @ row.conj().T
        return DefectData(*numlin.psd_root_range(m, rank_tol), "star")
    return memo(s, ("star_defect", rank_tol), compute)


def column_embed(d: int, j: int, h: np.ndarray) -> np.ndarray:
    """Vector with h in block j (1-based) of H^d, zeros elsewhere."""
    if not 1 <= j <= d:
        raise IndexOutOfRange(f"block index {j} outside 1..{d}")
    h = as_complex(np.atleast_1d(h))
    n = h.shape[0]
    out = np.zeros(n * d, dtype=np.complex128)
    out[(j - 1) * n : j * n] = h
    return out


# ---------------------------------------------------------------------------
# truncated minimal isometric dilation

@dataclass(frozen=True)
class TruncatedDilation:
    """The dilation matrices on H + (Gamma_N tensor defect space)."""

    matrices: tuple[np.ndarray, ...]
    dim: int
    degree: int
    defect_data: DefectData
    words: tuple[Word, ...]


def minimal_isometric_dilation(s: RowContraction, degree: int) -> TruncatedDilation:
    """Isometric dilation V_j on H + (Gamma_N x D_S), Fock degrees > N discarded.

    V_j (h + sum e_a x c_a) = S_j h + (e_0 x (D_S)_j h + e_j x sum e_a x c_a),
    so each V_j is isometric on H and on Fock degrees < N.
    """
    if degree < 0:
        raise DimMismatch("degree must be >= 0")
    dd = defect(s)
    k = dd.rank
    words = all_words(s.d, degree)
    index = {w: i for i, w in enumerate(words)}
    n = s.dim
    total = n + len(words) * k
    q = dd.space.basis  # (d*n) x k
    mats = []
    for j in range(1, s.d + 1):
        v = np.zeros((total, total), dtype=np.complex128)
        v[:n, :n] = s.ops[j - 1]
        if k:
            # degree-0 slot receives (D_S)_j h in defect coordinates
            dj = q.conj().T @ dd.D[:, (j - 1) * n : j * n]
            v[n : n + k, :n] = dj
            for w, i in index.items():
                if len(w) >= degree:
                    continue  # degree-N part is discarded by truncation
                ti = index[(j,) + w]
                rows = slice(n + ti * k, n + (ti + 1) * k)
                cols = slice(n + i * k, n + (i + 1) * k)
                v[rows, cols] = np.eye(k)
        mats.append(v)
    return TruncatedDilation(tuple(mats), n, degree, dd, words)


# ---------------------------------------------------------------------------
# completely non-coisometric test

def is_cnc(s: RowContraction, n_max: int | None = None, tol: float = 1e-10) -> tuple[bool, Subspace]:
    """Decide complete non-coisometry up to n_max iterations.

    Iterates Q_0 = I, Q_{n+1} = sum_i S_i Q_n S_i*; K_n = ker(I - Q_n).
    Returns (True, {0}) when the intersection of the K_n is trivial, else
    (False, witness).  The kernel chain is decreasing, so n_max = 2*dim
    (default) allows every strict drop plus one confirming sweep.
    """
    if n_max is None:
        n_max = max(2 * s.dim, 1)
    if n_max < 1:
        raise DimMismatch("n_max must be >= 1")
    n = s.dim
    q = np.eye(n, dtype=np.complex128)
    stacked: list[np.ndarray] = []
    for _ in range(n_max):
        q = sum(s.ops[i] @ q @ s.ops[i].conj().T for i in range(s.d))
        w, v = np.linalg.eigh(np.eye(n) - (q + q.conj().T) / 2.0)
        kernel = v[:, w < tol]
        if kernel.shape[1] == 0:
            return True, Subspace.zero(n)
        # accumulate I - P_{K_n}; the joint kernel is the intersection
        stacked.append(np.eye(n) - kernel @ kernel.conj().T)
    witness = numlin.null_subspace(np.vstack(stacked), tol)
    if witness.dim == 0:
        return True, witness
    log.debug("cnc certified only up to n_max=%d; witness dim %d", n_max, witness.dim)
    return False, witness


def joint_isometry_residual(mats: list[np.ndarray], sub_dim: int) -> float:
    """max_{i,j} ||P (V_i* V_j - delta_ij I) P|| on the first sub_dim coordinates."""
    res = 0.0
    for i, vi in enumerate(mats):
        for j, vj in enumerate(mats):
            g = vi.conj().T @ vj
            if i == j:
                g = g - np.eye(g.shape[0])
            res = max(res, operator_norm(g[:sub_dim, :sub_dim]))
    return res
