"""Truncated full Fock space over C^d and multi-analytic operators.

A multi-analytic operator is stored by its Fourier coefficients, graded by
degree: one dense (d^n, k_cod, k_dom) tensor per degree n, whose row idx(a)
holds the coefficient of the word a of length n, idx being the
lexicographic rank within the degree.  Degrees past the stored tensors are
zero.  Word concatenation is an index product, idx(a + b) = idx(a) d^|b| +
idx(b), so composing two operators takes one GEMM per pair of degrees and
every per-word comparison is one batched norm per degree.  Composition is
by coordinates: `product` asks only that the inner dimensions agree, and
`const_op`, `identity_op` and `block_diag_op` label their spaces as plain
coordinate spaces.  The dom/cod subspaces record where an operator came
from; no arithmetic here compares them.  The pairing convention is

    theta x = sum_a  e_{reverse(a)} (x) theta_(a) x,

i.e. the stored coefficient at word a is the coefficient of the basis
vector indexed by the reversed word.

`realize` is matrix-free: it reorders each degree tensor by the reversed
words and applies the operator and its adjoint to vectors, so the norm and
intertwining checks cost O(N d^N k^2) per product and never form the
(d^N k)^2 Fock matrix.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .errors import DimMismatch, IndexOutOfRange
from .numlin import Subspace, as_complex, max_operator_norm, readonly
from .rowcon import Word, all_words

DEFAULT_DEGREE = 6
LANCZOS_TOL = 1e-13  # relative a-posteriori bound at which realized_norm stops
PROBE_COLS = 2       # columns of the intertwining probe block


@dataclass(frozen=True)
class FockBasis:
    """Words of length <= N over {1..d} in graded lexicographic order."""

    d: int
    N: int
    words: tuple[Word, ...] = field(init=False)
    index: dict[Word, int] = field(init=False)
    offsets: tuple[int, ...] = field(init=False)  # first index of each degree, then len

    def __post_init__(self):
        if self.d < 1:
            raise DimMismatch("need d >= 1")
        if self.N < 0:
            raise DimMismatch("need N >= 0")
        words = all_words(self.d, self.N)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "index", {w: i for i, w in enumerate(words)})
        object.__setattr__(self, "offsets",
                           tuple(accumulate((self.d**n for n in range(self.N + 1)), initial=0)))

    def __len__(self) -> int:
        return len(self.words)

    def __hash__(self):
        return hash((self.d, self.N))

    def __eq__(self, other):
        return isinstance(other, FockBasis) and (self.d, self.N) == (other.d, other.N)


@lru_cache(maxsize=None)
def fock_basis(d: int, N: int) -> FockBasis:
    return FockBasis(d, N)


@dataclass(frozen=True)
class MultiAnalyticOp:
    """Gamma_N (x) dom -> Gamma_N (x) cod, given by its graded Fourier coefficients.

    graded[n] has shape (d^n, cod.dim, dom.dim), and its row idx(a) is the
    coefficient of the word a of length n.  Degrees n >= len(graded) are
    zero, so a constant stores degree 0 only.  The tensors are read-only.
    `coeffs` views the same data as word -> matrix, and `from_words` builds
    an operator from such a map.
    """

    basis: FockBasis
    dom: Subspace
    cod: Subspace
    graded: tuple[np.ndarray, ...]

    def __post_init__(self):
        d, top = self.basis.d, self.basis.N
        if len(self.graded) > top + 1:
            raise DimMismatch(f"{len(self.graded)} coefficient degrees exceed degree {top}")
        clean = []
        for n, t in enumerate(self.graded):
            t = readonly(t)
            shape = (d**n, self.cod.dim, self.dom.dim)
            if t.shape != shape:
                raise DimMismatch(f"degree-{n} coefficients have shape {t.shape}, expected {shape}")
            clean.append(t)
        object.__setattr__(self, "graded", tuple(clean))

    @classmethod
    def from_words(cls, basis: FockBasis, dom: Subspace, cod: Subspace,
                   coeffs: Mapping[Word, np.ndarray]) -> MultiAnalyticOp:
        """The operator with the given coefficient per word; absent words are zero."""
        top = max((len(w) for w in coeffs), default=-1)
        if top > basis.N:
            raise DimMismatch(f"coefficient word of length {top} exceeds degree {basis.N}")
        shape = (cod.dim, dom.dim)
        graded = [np.zeros((basis.d**n, *shape), dtype=np.complex128) for n in range(top + 1)]
        for w, m in coeffs.items():
            w, m = tuple(w), as_complex(m)
            if w not in basis.index:
                raise IndexOutOfRange(f"coefficient word {w} has a letter outside 1..{basis.d}")
            if m.shape != shape:
                raise DimMismatch(f"coefficient shape {m.shape}, expected {shape}")
            graded[len(w)][basis.index[w] - basis.offsets[len(w)]] = m
        return cls(basis, dom, cod, tuple(graded))

    @cached_property
    def coeffs(self) -> Mapping[Word, np.ndarray]:
        """Read-only map word -> coefficient over the words whose coefficient is
        not exactly zero, in graded order."""
        words, off = self.basis.words, self.basis.offsets
        out: dict[Word, np.ndarray] = {}
        for n, t in enumerate(self.graded):
            for i in np.flatnonzero(t.reshape(len(t), -1).any(axis=1)):
                out[words[off[n] + i]] = t[i]
        return MappingProxyType(out)

    def coeff(self, w: Word) -> np.ndarray:
        w = tuple(w)
        i = self.basis.index.get(w)
        if i is not None and len(w) < len(self.graded):
            return self.graded[len(w)][i - self.basis.offsets[len(w)]]
        return np.zeros((self.cod.dim, self.dom.dim), dtype=np.complex128)

    def ambient_coeff(self, w: Word) -> np.ndarray:
        """Coefficient as a map between the ambient spaces (zero off the subspaces)."""
        return self.cod.basis @ self.coeff(w) @ self.dom.basis.conj().T


@lru_cache(maxsize=None)
def _coords(k: int) -> Subspace:
    """The coordinate space C^k, one shared copy per k (a Subspace is immutable)."""
    return Subspace.full(k)


def identity_op(basis: FockBasis, k: int) -> MultiAnalyticOp:
    return const_op(basis, np.eye(k))


def const_op(basis: FockBasis, matrix) -> MultiAnalyticOp:
    """Ampliation I_Gamma (x) X as a multi-analytic operator between coordinate spaces."""
    m = as_complex(matrix)
    return MultiAnalyticOp(basis, _coords(m.shape[1]), _coords(m.shape[0]), (m[None],))


def add(m1: MultiAnalyticOp, m2: MultiAnalyticOp) -> MultiAnalyticOp:
    if m1.basis != m2.basis or m1.dom.dim != m2.dom.dim or m1.cod.dim != m2.cod.dim:
        raise DimMismatch("incompatible operands")
    long, short = sorted((m1.graded, m2.graded), key=len, reverse=True)
    graded = tuple(t + short[n] if n < len(short) else t for n, t in enumerate(long))
    return MultiAnalyticOp(m1.basis, m1.dom, m1.cod, graded)


def pair_products(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """All products t1[a] @ t2[b] of two matrix stacks, shape (len(t1), len(t2), i, k).

    For degree tensors, flattening the two leading axes puts the product at
    row idx(a) d^|b| + idx(b), the rank of the word a + b.  One GEMM.
    """
    (na, i, j), (nb, _, k) = t1.shape, t2.shape
    flat = t1.reshape(na * i, j) @ t2.transpose(1, 0, 2).reshape(j, nb * k)
    return flat.reshape(na, i, nb, k).transpose(0, 2, 1, 3)


def product(m1: MultiAnalyticOp, m2: MultiAnalyticOp) -> MultiAnalyticOp:
    """Composition m1 after m2; exact for all words of length <= N.

    Composition is by coordinates: m1.dom and m2.cod must have the same
    dimension, and the result keeps m2.dom and m1.cod as its labels.  The
    coefficient of w sums theta1_(a) theta2_(b) over the splittings
    w = a + b, so degree n collects one `pair_products` per (p, q), p + q = n.
    """
    if m1.basis != m2.basis:
        raise DimMismatch("operands live on different Fock truncations")
    if m1.dom.dim != m2.cod.dim:
        raise DimMismatch(f"m1.dom has dimension {m1.dom.dim}, m2.cod {m2.cod.dim}")
    top = m1.basis.N
    g1, g2 = m1.graded, m2.graded
    i, k = m1.cod.dim, m2.dom.dim
    n_out = min(len(g1) + len(g2) - 1, top + 1) if g1 and g2 else 0
    out: list[np.ndarray | None] = [None] * n_out
    for p, t1 in enumerate(g1):
        for q, t2 in enumerate(g2[:top + 1 - p]):
            term = pair_products(t1, t2)
            if out[p + q] is None:  # no copy when the GEMM result needs no transpose
                out[p + q] = np.ascontiguousarray(term).reshape(len(t1) * len(t2), i, k)
            else:
                acc = out[p + q].reshape(term.shape)  # a view: out entries are C-contiguous
                acc += term
    return MultiAnalyticOp(m1.basis, m2.dom, m1.cod, tuple(out))


def block_diag_op(basis: FockBasis, *ops: MultiAnalyticOp) -> MultiAnalyticOp:
    """Direct sum of multi-analytic operators (block diagonal per word) in coordinates."""
    for op in ops:
        if op.basis != basis:
            raise DimMismatch("operands live on different Fock truncations")
    dom = _coords(sum(op.dom.dim for op in ops))
    cod = _coords(sum(op.cod.dim for op in ops))
    graded = []
    for n in range(max((len(op.graded) for op in ops), default=0)):
        t = np.zeros((basis.d**n, cod.dim, dom.dim), dtype=np.complex128)
        r = c = 0
        for op in ops:
            if n < len(op.graded):
                t[:, r:r + op.cod.dim, c:c + op.dom.dim] = op.graded[n]
            r += op.cod.dim
            c += op.dom.dim
        graded.append(t)
    return MultiAnalyticOp(basis, dom, cod, tuple(graded))


@lru_cache(maxsize=None)
def _reversal(d: int, n: int) -> np.ndarray:
    """Row idx(reverse(w)) -> idx(w) within degree n: the base-d digits reversed."""
    rest = np.arange(d**n)
    rev = np.zeros_like(rest)
    for _ in range(n):
        rev = rev * d + rest % d
        rest //= d
    rev.flags.writeable = False  # shared by every caller through the cache
    return rev


@dataclass(frozen=True)
class Realization:
    """Matrix-free realization Gamma_N (x) dom -> Gamma_N (x) cod of a multi-analytic operator.

    Vectors are word-major in the graded word order (index g(w) * k + j);
    matvec/rmatvec take a vector or a block of columns.  That order is
    bijective base-d numeration, g(w) = sum_i w_i d^(|w| - i), so with
    |c| = p the word b + c sits at g(b) d^p + g(c).  The degree-p
    coefficients therefore map the first offsets[N - p + 1] input words onto
    the output words from offsets[p] on, one einsum per coefficient degree:
    cost grows with N d^N k_dom k_cod, and no (d^N k)^2 matrix is formed.
    """

    basis: FockBasis
    k_dom: int
    k_cod: int
    blocks: tuple[np.ndarray, ...]  # degree p: row idx(reverse(a)) holds theta_(a)

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.basis)
        return n * self.k_cod, n * self.k_dom

    def matvec(self, x) -> np.ndarray:
        """R x."""
        return self._apply(x, adjoint=False)

    def rmatvec(self, y) -> np.ndarray:
        """R* y."""
        return self._apply(y, adjoint=True)

    def _apply(self, v, adjoint: bool) -> np.ndarray:
        off, d, top = self.basis.offsets, self.basis.d, self.basis.N
        n = off[-1]
        k_in, k_out = (self.k_cod, self.k_dom) if adjoint else (self.k_dom, self.k_cod)
        v = np.asarray(v)
        block = v[:, None] if v.ndim == 1 else v
        if block.ndim != 2 or block.shape[0] != n * k_in:
            raise DimMismatch(f"expected {n * k_in} rows, got shape {v.shape}")
        cols = block.shape[1]
        out = np.zeros((n * k_out, cols), dtype=np.complex128)
        for p, t in enumerate(self.blocks):
            nb = off[top + 1 - p]  # words b with |b| + p <= N
            if adjoint:
                y = block[off[p] * k_in:].reshape(nb, d**p, k_in, cols)
                out[:nb * k_out] += np.einsum("cji,bcjm->bim", t.conj(), y).reshape(
                    nb * k_out, cols)
            else:
                x = block[:nb * k_in].reshape(nb, k_in, cols)
                out[off[p] * k_out:] += np.einsum("cij,bjm->bcim", t, x).reshape(
                    nb * d**p * k_out, cols)
        return out[:, 0] if v.ndim == 1 else out


def realize(m: MultiAnalyticOp) -> Realization:
    """Matrix-free realization of m on Gamma_N (x) dom -> Gamma_N (x) cod.

    Action rule: e_b (x) x  ->  sum_a e_{b + reverse(a)} (x) theta_(a) x,
    with words longer than N dropped; `shape` is that of the dense matrix in
    the graded word order, which is never formed.
    """
    d = m.basis.d
    blocks = tuple(t[_reversal(d, p)] for p, t in enumerate(m.graded))
    return Realization(m.basis, m.dom.dim, m.cod.dim, blocks)


def degree_diffs(m1: MultiAnalyticOp, m2: MultiAnalyticOp) -> Iterator[np.ndarray]:
    """Coefficient differences m1 - m2, one stack per degree that either
    operand stores, made one degree at a time."""
    if m1.basis.d != m2.basis.d or m1.dom.dim != m2.dom.dim or m1.cod.dim != m2.cod.dim:
        raise DimMismatch("coefficient shapes differ")
    g1, g2 = m1.graded, m2.graded
    for n in range(max(len(g1), len(g2))):
        if n >= len(g2):
            yield g1[n]
        elif n >= len(g1):
            yield -g2[n]
        else:
            yield g1[n] - g2[n]


def coeff_diff(m1: MultiAnalyticOp, m2: MultiAnalyticOp) -> float:
    """Max operator-norm deviation of coefficients over all stored words."""
    return max((max_operator_norm(t) for t in degree_diffs(m1, m2)), default=0.0)


def _probe(n: int, cols: int) -> np.ndarray:
    """Fixed, generic unit columns with entries exp(2 pi i frac(j g)) (1 + j mod 3).

    g is the golden-ratio conjugate, so the Weyl phases never repeat.  No
    random state is involved, and reports stay deterministic.
    """
    j = np.arange(n * cols)
    x = np.exp(2j * np.pi * np.modf(j * ((np.sqrt(5.0) - 1.0) / 2.0))[0]) * (1 + j % 3)
    x = x.reshape(n, cols)
    return x / np.linalg.norm(x, axis=0)


def realized_norm(m: MultiAnalyticOp) -> float:
    """Spectral norm of the truncated realization, by Lanczos on R*R.

    Full reorthogonalization; stops when the a-posteriori residual bound
    beta_k |s_k| of the largest Ritz value is <= LANCZOS_TOL * max(theta, 1)
    or the Krylov space is exhausted.  In exact arithmetic a Ritz value never
    exceeds the top eigenvalue, so the estimate converges from below.
    """
    r = realize(m)
    n = r.shape[1]
    if r.shape[0] == 0 or n == 0:
        return 0.0
    q = _probe(n, 1)[:, 0]
    krylov = [q]
    alphas: list[float] = []
    betas: list[float] = []
    while True:
        w = r.rmatvec(r.matvec(q))
        alphas.append(float(np.vdot(q, w).real))
        vs = np.array(krylov)
        for _ in range(2):
            w = w - vs.T @ (vs.conj() @ w)
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        evals, evecs = np.linalg.eigh(tri)
        theta = evals[-1]
        if beta * abs(evecs[-1, -1]) <= LANCZOS_TOL * max(theta, 1.0) or len(alphas) == n:
            return float(np.sqrt(max(theta, 0.0)))
        betas.append(beta)
        q = w / beta
        krylov.append(q)


def _left_creation(basis: FockBasis, i: int, v: np.ndarray, k: int) -> np.ndarray:
    """(L_i (x) I_k) v: prepend letter i; the degree-N part drops out."""
    out = np.zeros_like(v)
    off, d = basis.offsets, basis.d
    for q in range(basis.N):
        start = (off[q + 1] + (i - 1) * d**q) * k
        out[start:start + d**q * k] = v[off[q] * k:off[q + 1] * k]
    return out


def intertwining_residual(m: MultiAnalyticOp) -> float:
    """Max entry of R (L_i (x) I) X - (L_i (x) I) R X over the letters i.

    X is a fixed probe block.  Both sides go through the same matvec whose
    norm realized_norm certifies, so a realization that misplaces the
    coefficient word (prepends instead of appends it) fails.
    """
    r = realize(m)
    basis = m.basis
    x = _probe(r.shape[1], PROBE_COLS)
    rx = r.matvec(x)
    res = 0.0
    for i in range(1, basis.d + 1):
        lhs = r.matvec(_left_creation(basis, i, x, r.k_dom))
        diff = lhs - _left_creation(basis, i, rx, r.k_cod)
        if diff.size:
            res = max(res, float(np.max(np.abs(diff))))
    return res
