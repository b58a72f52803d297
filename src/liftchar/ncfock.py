"""Truncated full Fock space over C^d and multi-analytic operators.

A word a over the letters 1..d is known by its graded index
g(a) = sum_i a_i d^(|a| - i), which numbers the words in graded
lexicographic order; `FockBasis` converts word <-> index by arithmetic and
stores no word.  A multi-analytic operator is held in one of two forms.
`MultiAnalyticOp` stores its Fourier coefficients in one contiguous
(words, k_cod, k_dom) array in that order: row g(a) holds the coefficient of
the word a, and the array ends after a whole degree; the degrees past it are
zero.  `TransferOp` holds a transfer function as its colligation, D, the
stack C X_w and B, and writes any run of coefficient rows on demand, so a
characteristic function needs no Fock-size array until one is asked for.
Both forms answer `rows`, which is all `coeff_diff` reads.  Words as tuples
are built only at the boundary, by `MultiAnalyticOp.coeffs` and `coeff`.
Word concatenation is an index identity, g(a + b) = g(a) d^|b| + g(b), so
composing two operators takes one GEMM per degree of the right factor.
Every sum and projection is one numpy call over all words, and `coeff_diff`
compares an operator with a composition one block of words at a time,
without forming the composition.  Composition is by coordinates: `product`
asks only that the inner dimensions agree, and `const_op`, `identity_op`,
`block_diag_op` and `TransferOp` label their spaces as plain coordinate
spaces.  The dom/cod subspaces record where an operator came from; no
arithmetic here compares them.  The pairing convention is

    theta x = sum_a  e_{reverse(a)} (x) theta_(a) x,

i.e. the stored coefficient at word a is the coefficient of the basis
vector indexed by the reversed word.

`realize` is matrix-free: it reorders each degree tensor by the reversed
words and applies the operator and its adjoint to vectors, so the norm and
intertwining checks cost O(N d^N k^2) per product and never form the
(d^N k)^2 Fock matrix.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .errors import DimMismatch, TruncationTooLarge
from .numlin import Subspace, as_complex, max_operator_norm, max_operator_norm_of, readonly
from .rowcon import Word

DEFAULT_DEGREE = 6
LANCZOS_TOL = 1e-13  # relative a-posteriori bound at which realized_norm stops
PROBE_COLS = 2       # columns of the intertwining probe block


@dataclass(frozen=True)
class FockBasis:
    """The words of length <= N over {1..d}, known by their graded index.

    The words of degree n take the indices offsets[n] .. offsets[n + 1] - 1.
    `index` and `word` convert by arithmetic; no word is stored.  A
    truncation with more words than a numpy array can index is refused
    before anything is allocated.
    """

    d: int
    N: int
    # first index of each degree, then the word count
    offsets: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise DimMismatch("need d >= 1")
        if self.N < 0:
            raise DimMismatch("need N >= 0")
        limit = np.iinfo(np.intp).max
        # for d >= 2 the running count passes the limit within 64 degrees, so the
        # test stops there and never forms d^N
        if (self.N + 1 > limit if self.d == 1 else
                any(n > limit for n in accumulate(self.d**k for k in range(self.N + 1)))):
            raise TruncationTooLarge(f"d={self.d}, degree {self.N} has more than {limit} words")
        object.__setattr__(self, "offsets",
                           tuple(accumulate((self.d**n for n in range(self.N + 1)), initial=0)))

    def __len__(self) -> int:
        return self.offsets[-1]

    def index(self, w: Sequence[int]) -> int | None:
        """The graded index g(w), or None when w is not a word of this basis
        (a letter outside 1..d, or longer than N)."""
        if len(w) > self.N or not all(1 <= c <= self.d for c in w):
            return None
        g = 0
        for c in w:
            g = g * self.d + c
        return g

    def word(self, g: int) -> Word:
        """The word of graded index g >= 0, the inverse of `index`."""
        letters = []
        while g > 0:
            g, r = divmod(g - 1, self.d)
            letters.append(r + 1)
        return tuple(reversed(letters))


@lru_cache(maxsize=None)
def fock_basis(d: int, N: int) -> FockBasis:
    return FockBasis(d, N)


@dataclass(frozen=True)
class MultiAnalyticOp:
    """Gamma_N (x) dom -> Gamma_N (x) cod, given by its Fourier coefficients.

    `flat` has shape (offsets[n], cod.dim, dom.dim): its row g(a) is the
    coefficient of the word a, g being the graded word index, for the words
    of the n lowest degrees.  Degrees n and up are zero, so a constant stores
    degree 0 only.  The array is read-only and contiguous.  `graded` views it
    one degree at a time.  `coeffs` and `coeff` are the only places that
    name a coefficient by its word.
    """

    basis: FockBasis
    dom: Subspace
    cod: Subspace
    flat: np.ndarray

    def __post_init__(self):
        flat = readonly(np.ascontiguousarray(self.flat, dtype=np.complex128))
        shape = (self.cod.dim, self.dom.dim)
        if flat.ndim != 3 or flat.shape[1:] != shape or len(flat) not in self.basis.offsets:
            raise DimMismatch(f"coefficients have shape {flat.shape}, expected (n, *{shape}) "
                              f"with n one of the degree offsets {self.basis.offsets}")
        object.__setattr__(self, "flat", flat)

    @property
    def degrees(self) -> int:
        """The number of degrees stored, from 0 on."""
        return self.basis.offsets.index(len(self.flat))

    @cached_property
    def graded(self) -> tuple[np.ndarray, ...]:
        """Per-degree views of `flat`: graded[n] has shape (d^n, cod.dim, dom.dim)."""
        off = self.basis.offsets
        return tuple(self.flat[off[n]:off[n + 1]] for n in range(self.degrees))

    def rows(self, start: int, stop: int, *, wide: bool = False) -> np.ndarray:
        """The stored rows start .. stop - 1: a view of `flat`, or with `wide`
        a (cod.dim, stop - start, dom.dim) copy, as `TransferOp.rows` gives them."""
        r = self.flat[start:stop]
        return np.ascontiguousarray(r.swapaxes(0, 1)) if wide else r

    @cached_property
    def coeffs(self) -> Mapping[Word, np.ndarray]:
        """Read-only map word -> coefficient over the words whose coefficient is
        not exactly zero, in graded order.  Its words are built from their
        indices here, for the writers and readers of words; no arithmetic
        uses this view."""
        word, flat = self.basis.word, self.flat
        return MappingProxyType({word(i): flat[i]
                                 for i in np.flatnonzero(flat.any(axis=(1, 2))).tolist()})

    def coeff(self, w: Sequence[int]) -> np.ndarray:
        """The coefficient of the word w; zero for a word this operator does
        not store, or one outside its basis."""
        i = self.basis.index(w)
        if i is not None and i < len(self.flat):
            return self.flat[i]
        return np.zeros((self.cod.dim, self.dom.dim), dtype=np.complex128)


@dataclass(frozen=True)
class TransferOp:
    """The transfer function D + C (I - sum Z_j X_j)^{-1} sum Z_j B_j on the
    truncation `basis`, held as its colligation: D (c, m), the stack
    cx[i, g(w)] = row i of C X_w over the words |w| < N, shape
    (c, offsets[N], s), and B per letter, shape (d, s, m).  Its coefficient
    at the word w + (k) is C X_w B_k, and at the empty word D.

    `rows` is its one writer: any run of graded rows, in the layout of
    `MultiAnalyticOp.flat` or in the one a right-hand `pair_products` reads.
    It stores every degree; dom and cod are coordinate spaces.  The arrays
    are read-only.
    """

    basis: FockBasis
    D: np.ndarray
    cx: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        (c, m), off = self.D.shape, self.basis.offsets
        if self.cx.shape[:2] != (c, off[-2]) or self.B.shape != (self.basis.d, self.cx.shape[2], m):
            raise DimMismatch(f"colligation blocks D {self.D.shape}, C X {self.cx.shape} and "
                              f"B {self.B.shape} do not fit d={self.basis.d}, N={self.basis.N}")
        for name in ("D", "cx", "B"):
            object.__setattr__(self, name, readonly(getattr(self, name)))

    @property
    def dom(self) -> Subspace:
        return _coords(self.D.shape[1])

    @property
    def cod(self) -> Subspace:
        return _coords(self.D.shape[0])

    @property
    def degrees(self) -> int:
        return self.basis.N + 1

    def then(self, right: np.ndarray) -> TransferOp:
        """This operator after the constant `right`, folded into D and B."""
        return replace(self, D=self.D @ right, B=self.B @ right)

    def columns(self, cols: slice) -> TransferOp:
        """This operator restricted to the domain coordinates `cols`."""
        return replace(self, D=self.D[:, cols], B=self.B[..., cols])

    def rows(self, start: int, stop: int, *, wide: bool = False) -> np.ndarray:
        """The coefficients of the graded indices start .. stop - 1, as a
        (stop - start, cod.dim, dom.dim) array, or with `wide` as
        (cod.dim, stop - start, dom.dim).

        Row g(w) d + k (k = 1..d) is (C X_w) B_k: the rows of one last letter
        are every d-th row of the run, and each is written by one matmul call
        (a GEMM per row of C) straight into its slot.
        """
        (c, m), d, n = self.D.shape, self.basis.d, stop - start
        out = np.empty((c, n, m) if wide else (n, c, m), dtype=np.complex128)
        t = out if wide else out.swapaxes(0, 1)  # (c, n, m) either way
        if start == 0 < n:
            t[:, 0] = self.D
        first = max(start, 1)
        for k in range(d):
            r = first + (k + 1 - first) % d  # the run's first row ending in letter k + 1
            if r < stop:
                i = (r - 1) // d
                np.matmul(self.cx[:, i:i + (stop - r + d - 1) // d], self.B[k],
                          out=t[:, r - start::d])
        return out


@lru_cache(maxsize=None)
def _coords(k: int) -> Subspace:
    """The coordinate space C^k, one shared copy per k (a Subspace is immutable)."""
    return Subspace.full(k)


def identity_op(basis: FockBasis, k: int) -> MultiAnalyticOp:
    return const_op(basis, np.eye(k))


def const_op(basis: FockBasis, matrix) -> MultiAnalyticOp:
    """Ampliation I_Gamma (x) X as a multi-analytic operator between coordinate spaces."""
    m = as_complex(matrix)
    return MultiAnalyticOp(basis, _coords(m.shape[1]), _coords(m.shape[0]), m[None])


def add(m1: MultiAnalyticOp, m2: MultiAnalyticOp) -> MultiAnalyticOp:
    """m1 + m2 coefficient-wise, the shorter operand zero-padded; both must
    share the truncation and the dimensions."""
    if m1.basis != m2.basis or m1.dom.dim != m2.dom.dim or m1.cod.dim != m2.cod.dim:
        raise DimMismatch("incompatible operands")
    out = np.zeros((max(len(m1.flat), len(m2.flat)), m1.cod.dim, m1.dom.dim), dtype=np.complex128)
    out[:len(m1.flat)] = m1.flat
    out[:len(m2.flat)] += m2.flat
    return MultiAnalyticOp(m1.basis, m1.dom, m1.cod, out)


def pair_products(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """All products t1[a] @ t2[:, b] of a matrix stack t1 (na, i, j) and the
    matrices side by side in t2 (j, nb, k), shape (na, nb, i, k).

    t2 is in the layout `rows(..., wide=True)` writes, which the GEMM reads
    in place; a stack s (nb, j, k) is passed as s.swapaxes(0, 1) and copied.
    With t1 the coefficients of the words a from the first one on, and t2
    those of the words b of one degree q, flattening the two leading axes
    puts the product at row g(a) d^q + g(b) - offsets[q]: the rank of a + b
    counted from offsets[q].  One GEMM.
    """
    (na, i, j), (_, nb, k) = t1.shape, t2.shape
    flat = t1.reshape(na * i, j) @ t2.reshape(j, nb * k)
    return flat.reshape(na, i, nb, k).transpose(0, 2, 1, 3)


def product(m1: MultiAnalyticOp, m2: MultiAnalyticOp) -> MultiAnalyticOp:
    """Composition m1 after m2; exact for all words of length <= N.

    Composition is by coordinates: m1.dom and m2.cod must have the same
    dimension, and the result keeps m2.dom and m1.cod as its labels.  The
    coefficient of w sums theta1_(a) theta2_(b) over the splittings
    w = a + b.  For the words b of one degree q, the products with
    |a| <= N - q fill one contiguous run from offsets[q] on, as
    g(a + b) = g(a) d^q + g(b); so each degree of m2 is one `pair_products`
    GEMM added there, and a constant m2 a single GEMM.  The output is
    allocated after the top degree's GEMM, whose copy of that degree is the
    largest temporary.

    The constant branch gives the loop's result bit for bit, but the loop
    would hold a zeroed output and the GEMM's copy of all of m1 at once.
    The resolvent's right side, a symbol times a constant, sets its group's
    memory peak there: without the branch the resolvent group at d=3, dims
    (2,2,2), `default_rng(7)` peaks at 6.75 MB traced at N=7 instead of
    5.91 MB, above the 6.5 MB gate of the tier-1 workflow (2.27 against
    1.99 MB at N=6).  The factorization group's peak is elsewhere.
    """
    if m1.basis != m2.basis:
        raise DimMismatch("operands live on different Fock truncations")
    if m1.dom.dim != m2.cod.dim:
        raise DimMismatch(f"m1.dom has dimension {m1.dom.dim}, m2.cod {m2.cod.dim}")
    off, top = m1.basis.offsets, m1.basis.N
    f1, g2 = m1.flat, m2.graded
    n1, i, j, k = len(m1.graded), m1.cod.dim, m1.dom.dim, m2.dom.dim
    if len(g2) == 1:
        out = (f1.reshape(len(f1) * i, j) @ g2[0][0]).reshape(len(f1), i, k)
        return MultiAnalyticOp(m1.basis, m2.dom, m1.cod, out)
    out = np.zeros((0, i, k), dtype=np.complex128)  # kept when either side stores nothing
    for q in reversed(range(len(g2) if n1 else 0)):
        term = pair_products(f1[:off[min(n1, top + 1 - q)]], g2[q].swapaxes(0, 1))  # |a| <= N - q
        if q == len(g2) - 1:
            out = np.zeros((off[min(n1 + q, top + 1)], i, k), dtype=np.complex128)
        acc = out[off[q]:off[q] + term.shape[0] * term.shape[1]].reshape(term.shape)
        acc += term
        del term, acc  # freed before the next GEMM
    return MultiAnalyticOp(m1.basis, m2.dom, m1.cod, out)


def block_diag_op(basis: FockBasis, *ops: MultiAnalyticOp) -> MultiAnalyticOp:
    """Direct sum of multi-analytic operators (block diagonal per word) in coordinates."""
    for op in ops:
        if op.basis != basis:
            raise DimMismatch("operands live on different Fock truncations")
    dom = _coords(sum(op.dom.dim for op in ops))
    cod = _coords(sum(op.cod.dim for op in ops))
    out = np.zeros((max((len(op.flat) for op in ops), default=0), cod.dim, dom.dim),
                   dtype=np.complex128)
    r = c = 0
    for op in ops:
        out[:len(op.flat), r:r + op.cod.dim, c:c + op.dom.dim] = op.flat
        r += op.cod.dim
        c += op.dom.dim
    return MultiAnalyticOp(basis, dom, cod, out)


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
    the output words from offsets[p] on.  Per coefficient degree the adjoint
    is one GEMM, and the forward map one batched matmul with a product per
    input word: cost grows with N d^N k_dom k_cod, and no (d^N k)^2 matrix
    is formed.
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
            nb, w = off[top + 1 - p], d**p  # words b with |b| + p <= N; words c of degree p
            if adjoint:
                # (nb cols, w k_in) @ (w k_in, k_out): one GEMM over every b
                y = block[off[p] * k_in:].reshape(nb, w * k_in, cols).transpose(0, 2, 1)
                r = y.reshape(nb * cols, w * k_in) @ t.reshape(w * k_in, k_out).conj()
                out[:nb * k_out] += r.reshape(nb, cols, k_out).transpose(0, 2, 1).reshape(
                    nb * k_out, cols)
            else:
                # one product per b: the same rounding wherever e_b sits, so R commutes
                # exactly with the creation operators
                x = block[:nb * k_in].reshape(nb, k_in, cols)
                out[off[p] * k_out:] += (t.reshape(w * k_out, k_in) @ x).reshape(
                    nb * w * k_out, cols)
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


def coeff_diff(lhs, *factors) -> float:
    """max_w ||lhs_(w) - (F1 F2 ...)_(w)|| over every word either side stores,
    for the composition of the factors, which is never formed.

    Each operand is a `MultiAnalyticOp` or a `TransferOp`, and is read only
    through its `rows`, so an operand held as a colligation is written one
    block at a time and never in full.  With one factor this compares two
    operators.  At most two factors A, B may store more than degree 0; the
    constants around them are applied to one block at a time, and with one
    such factor the constants after it take B's place.  The output words are
    walked in blocks: each degree below the top whole, and the top degree in
    d runs of words that share a first letter; a whole degree below the top
    is no longer than such a run.  As g(a + b) = g(a) d^|b| + g(b), each
    split degree q fills a block exactly with one `pair_products` GEMM: A's
    degree n - q words with the block's first letters against all of B's
    degree q words, read in the GEMM's layout, and for q = n A's vacuum
    against B's degree-n rows in the block's range.  lhs's rows are
    subtracted in place, and `max_operator_norm_of` reads the blocks one at a
    time, keeping only the matrices that could attain the maximum.  All
    operands must share the truncation, and the dimensions must chain.
    """
    basis = lhs.basis
    if (not factors or any(f.basis != basis for f in factors)
            or (lhs.cod.dim, lhs.dom.dim) != (factors[0].cod.dim, factors[-1].dom.dim)):
        raise DimMismatch("incompatible operands")
    for f, g in zip(factors, factors[1:]):
        if f.dom.dim != g.cod.dim:
            raise DimMismatch(f"a factor's dom has dimension {f.dom.dim}, the next one's cod "
                              f"{g.cod.dim}")
    d, off = basis.d, basis.offsets
    if not all(f.degrees for f in factors):  # a factor that stores nothing: the product is 0
        return max_operator_norm(lhs.rows(0, off[lhs.degrees]))
    deep = [p for p, f in enumerate(factors) if f.degrees > 1]
    if len(deep) > 2:
        raise DimMismatch("at most two factors may store more than degree 0")
    a, b = (deep + [None])[:2] if deep else (0, None)

    def consts(fs):  # the matrix of a run of constant factors; None for no factor
        return reduce(np.matmul, [f.rows(0, 1)[0] for f in fs]) if fs else None

    fa, left = factors[a], consts(factors[:a])
    if b is None:  # the trailing constants stand in for B, the identity if there are none
        tail = consts(factors[a + 1:])
        fb, mid, right = const_op(basis, np.eye(fa.dom.dim) if tail is None else tail), None, None
    else:
        fb, mid, right = factors[b], consts(factors[a + 1:b]), consts(factors[b + 1:])
    n_prod = min(fa.degrees + fb.degrees - 1, basis.N + 1)  # the degrees the product stores
    top = max(n_prod, lhs.degrees) - 1

    def blocks():
        for n in range(top + 1):
            w = d**(n - 1) if n else 1  # the degree-n words per first letter
            # the first letters c0 + 1 .. c1 of each block
            for c0, c1 in [(c, c + 1) for c in range(d)] if 0 < n == top else [(0, d if n else 1)]:
                r0, r1 = off[n] + c0 * w, off[n] + c1 * w
                if n >= n_prod:
                    yield lhs.rows(r0, r1)
                    continue
                acc = np.zeros((r1 - r0, lhs.cod.dim, fb.dom.dim), dtype=np.complex128)
                for q in reversed(range(max(0, n + 1 - fa.degrees), min(n, fb.degrees - 1) + 1)):
                    m = n - q  # A's degree: its words with those first letters, or the vacuum
                    s0, s1 = (off[m] + c0 * d**(m - 1), off[m] + c1 * d**(m - 1)) if m else (0, 1)
                    t1 = (fa.rows(s0, s1) if left is None
                          else pair_products(left[None], fa.rows(s0, s1, wide=True))[0])
                    if mid is not None:
                        t1 = pair_products(t1, mid[:, None])[:, 0]
                    t2 = fb.rows(off[q], off[q + 1], wide=True) if m else fb.rows(r0, r1, wide=True)
                    term = pair_products(t1, t2)
                    del t1, t2  # freed before the sum
                    view = acc.reshape(term.shape)
                    view += term
                    del term, view  # freed before the next GEMM
                if right is not None:
                    acc = pair_products(acc, right[:, None])[:, 0]
                if n < lhs.degrees:
                    acc -= lhs.rows(r0, r1)
                yield acc
                del acc  # freed before the next block

    return max_operator_norm_of(blocks())


def _probe(n: int, cols: int) -> np.ndarray:
    """Fixed, generic unit columns with entries exp(2 pi i frac(j g)) (1 + j mod 3).

    g is the golden-ratio conjugate, so the Weyl phases never repeat.  No
    random state is involved, and reports stay deterministic.  Read-only.
    """
    j = np.arange(n * cols)
    x = np.exp(2j * np.pi * np.modf(j * ((np.sqrt(5.0) - 1.0) / 2.0))[0]) * (1 + j % 3)
    x = x.reshape(n, cols)
    return readonly(x / np.linalg.norm(x, axis=0))


def realized_norm(m: MultiAnalyticOp, r: Realization | None = None) -> float:
    """Spectral norm of the truncated realization r of m (realize(m) when not
    given), by Lanczos on R*R.

    Full reorthogonalization; stops when the a-posteriori residual bound
    beta_k |s_k| of the largest Ritz value is <= LANCZOS_TOL * max(theta, 1)
    or the Krylov space is exhausted.  In exact arithmetic a Ritz value never
    exceeds the top eigenvalue, so the estimate converges from below.
    """
    r = realize(m) if r is None else r
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


def intertwining_residual(m: MultiAnalyticOp, r: Realization | None = None) -> float:
    """Max entry of R (L_i (x) I) X - (L_i (x) I) R X over the letters i, with
    R the realization r of m (realize(m) when not given).

    X is a fixed probe block.  Both sides go through the same matvec whose
    norm realized_norm certifies, so a realization that misplaces the
    coefficient word (prepends instead of appends it) fails.
    """
    r = realize(m) if r is None else r
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
