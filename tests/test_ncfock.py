import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftchar.errors import DimMismatch, TruncationTooLarge
from liftchar.ncfock import (
    FockBasis,
    MultiAnalyticOp,
    TransferOp,
    add,
    block_diag_op,
    coeff_diff,
    const_op,
    fock_basis,
    identity_op,
    intertwining_residual,
    product,
    realize,
    realized_norm,
)
from liftchar.numlin import (
    Subspace,
    block_diag,
    max_operator_norm,
    max_operator_norm_of,
    operator_norm,
)


def all_words(d, n):
    """Reference enumeration: the words of length <= n over 1..d in graded,
    then lexicographic order."""
    out = []
    for k in range(n + 1):
        out.extend(itertools.product(range(1, d + 1), repeat=k))
    return tuple(out)


def word_index(basis):
    """Reference map word -> position in the enumeration of `basis`."""
    return {w: i for i, w in enumerate(all_words(basis.d, basis.N))}


def from_words(basis, dom, cod, coeffs):
    """The operator with the given coefficient per word; absent words are zero."""
    index = word_index(basis)
    top = max((len(w) for w in coeffs), default=-1)
    flat = np.zeros((basis.offsets[top + 1], cod.dim, dom.dim), dtype=np.complex128)
    for w, m in coeffs.items():
        flat[index[tuple(w)]] = m
    return MultiAnalyticOp(basis, dom, cod, flat)


def creation(basis, side, i):
    """Dense creation operator: left prepends, right appends the letter; words
    that would exceed degree N map to 0."""
    if side not in ("left", "right"):
        raise DimMismatch("side must be 'left' or 'right'")
    index = word_index(basis)
    n = len(basis)
    m = np.zeros((n, n), dtype=np.complex128)
    for w, j in index.items():
        if len(w) >= basis.N:
            continue
        target = (i,) + w if side == "left" else w + (i,)
        m[index[target], j] = 1.0
    return m


def extract_coeffs(r):
    """Invert realize by reading the vacuum column block against e_{reverse(a)}."""
    basis, k_dom, k_cod = r.basis, r.k_dom, r.k_cod
    col = r.matvec(np.eye(r.shape[1], k_dom, dtype=np.complex128))
    index = word_index(basis)
    out = {}
    for a in index:
        i = index[a[::-1]]
        block = col[i * k_cod : (i + 1) * k_cod, :]
        if operator_norm(block) > 0.0:
            out[a] = block
    return out


def maop(d, n, dom_k, cod_k, coeffs):
    return from_words(fock_basis(d, n), Subspace.full(dom_k), Subspace.full(cod_k),
                      {w: np.asarray(m, dtype=complex) for w, m in coeffs.items()})


def random_maop(rng, d, n, dom_k, cod_k, density=0.6, top=None):
    """Random coefficients on about `density` of the words of length <= top (default n)."""
    basis = fock_basis(d, n)
    coeffs = {}
    for w in all_words(d, n):
        if len(w) <= (n if top is None else top) and rng.random() < density:
            coeffs[w] = rng.standard_normal((cod_k, dom_k)) + 1j * rng.standard_normal((cod_k, dom_k))
    return from_words(basis, Subspace.full(dom_k), Subspace.full(cod_k), coeffs)


def product_oracle(m1, m2):
    """Word-pair loop over the stored coefficients: theta1_(a) theta2_(b) adds to a + b."""
    out = {}
    for a, pa in m1.coeffs.items():
        for b, qb in m2.coeffs.items():
            if len(a) + len(b) > m1.basis.N:
                continue
            w = a + b
            acc = out.get(w)
            term = pa @ qb
            out[w] = term if acc is None else acc + term
    return out


def coeff_diff_oracle(m1, m2):
    """Per-word maximum of the operator-norm deviation."""
    words = set(m1.coeffs) | set(m2.coeffs)
    return max((operator_norm(m1.coeff(w) - m2.coeff(w)) for w in words), default=0.0)


def dense_oracle(m):
    """Independent dense realization: e_b (x) x -> sum_a e_{b + reverse(a)} (x) theta_(a) x."""
    basis = m.basis
    kd, kc = m.dom.dim, m.cod.dim
    nw = len(basis)
    index = word_index(basis)
    out = np.zeros((nw * kc, nw * kd), dtype=np.complex128)
    for a, mat in m.coeffs.items():
        ra = a[::-1]
        la = len(a)
        for b, j in index.items():
            if len(b) + la > basis.N:
                continue
            i = index[b + ra]
            out[i * kc : (i + 1) * kc, j * kd : (j + 1) * kd] += mat
    return out


def dense(r):
    """The matrix of a matrix-free realization, column by column."""
    return r.matvec(np.eye(r.shape[1]))


class TestWordArithmetic:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(7))
    def test_index_and_word_invert_the_reference_order(self, d, n):
        basis, words = fock_basis(d, n), all_words(d, n)
        assert len(basis) == len(words)
        assert tuple(basis.word(g) for g in range(len(basis))) == words
        assert all(basis.index(basis.word(g)) == g for g in range(len(basis)))
        assert basis.offsets == tuple(sum(len(w) < k for w in words) for k in range(n + 2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_words_outside_the_basis(self, d):
        m = random_maop(np.random.default_rng([25, d]), d, 3, 2, 1, density=1.0)
        zero = np.zeros((1, 2))
        for w in [(0,), (1, d + 1), (d + 1,), (1,) * 4, (d, 1, 1, d)]:
            assert m.basis.index(w) is None
            np.testing.assert_array_equal(m.coeff(w), zero)

    def test_deep_basis_holds_no_words(self):
        tracemalloc.start()
        try:
            basis = FockBasis(4, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis) == 349_525 and basis.word(len(basis) - 1) == (4,) * 9
        assert peak < 1e6

    def test_more_words_than_an_index_is_refused(self):
        limit = np.iinfo(np.intp).max
        with pytest.raises(TruncationTooLarge):
            fock_basis(2, 64)
        assert len(FockBasis(2, limit.bit_length() - 1)) == limit  # 2^63 - 1 words: the limit
        for d, n in [(2, limit.bit_length()), (3, 40), (1, limit)]:
            with pytest.raises(TruncationTooLarge):
                FockBasis(d, n)


class TestCreation:
    def test_single_letter_shift(self):
        b = fock_basis(1, 2)
        left = creation(b, "left", 1)
        right = creation(b, "right", 1)
        shift = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
        np.testing.assert_array_equal(left, shift)
        np.testing.assert_array_equal(right, shift)

    def test_truncation_edge(self):
        b = fock_basis(2, 1)
        l1 = creation(b, "left", 1)
        e_empty = np.eye(3)[0]
        e_1 = np.eye(3)[1]
        np.testing.assert_array_equal(l1 @ e_empty, e_1)
        np.testing.assert_array_equal(l1 @ e_1, 0 * e_1)

    def test_isometry_relation(self):
        b = fock_basis(2, 3)
        proj = np.zeros((len(b), len(b)))
        for w, i in word_index(b).items():
            if len(w) <= 2:
                proj[i, i] = 1.0
        for i in (1, 2):
            for j in (1, 2):
                li = creation(b, "left", i)
                lj = creation(b, "left", j)
                expected = proj if i == j else np.zeros_like(proj)
                np.testing.assert_allclose(li.conj().T @ lj, expected, atol=1e-14)


class TestRealize:
    def test_identity(self):
        m = maop(2, 2, 3, 3, {(): np.eye(3)})
        np.testing.assert_array_equal(dense(realize(m)), np.eye(7 * 3))

    def test_shift_symbol(self):
        m = maop(1, 2, 1, 1, {(1,): [[1.0]]})
        np.testing.assert_array_equal(dense(realize(m)), creation(fock_basis(1, 2), "right", 1))

    def test_vacuum_column_reproduces_symbol(self):
        # one-step lifting symbol table: 1/sqrt(3) at the vacuum, 1/sqrt(3)
        # at letter 1 from each of the two extra directions
        s3 = 1 / np.sqrt(3)
        m = maop(1, 2, 3, 1, {(): [[s3, 0, 0]], (1,): [[0, s3, s3]]})
        r = dense(realize(m))
        b = fock_basis(1, 2)
        for col, (word, value) in enumerate([((), s3), ((1,), s3), ((1,), s3)]):
            vec = r[:, col]  # e_0 (x) basis vector `col`
            assert abs(vec[word_index(b)[word]] - value) < 1e-14

    def test_extraction_inverts_realize(self):
        rng = np.random.default_rng(0)
        m = random_maop(rng, 2, 3, 2, 3)
        got = extract_coeffs(realize(m))
        for w in m.coeffs:
            np.testing.assert_array_equal(got[w], m.coeff(w))


class TestProduct:
    def test_identity_neutral(self):
        rng = np.random.default_rng(1)
        m = random_maop(rng, 2, 3, 2, 2)
        ident = identity_op(m.basis, m.dom.dim)
        assert coeff_diff(product(ident, m), m) == 0
        assert coeff_diff(product(m, ident), m) == 0

    def test_z_squared(self):
        z = maop(1, 3, 1, 1, {(1,): [[1.0]]})
        zz = product(z, z)
        assert set(zz.coeffs) == {(1, 1)}
        np.testing.assert_array_equal(zz.coeff((1, 1)), [[1.0]])

    def test_mismatch(self):
        with pytest.raises(DimMismatch):
            product(maop(1, 2, 2, 1, {}), maop(1, 2, 1, 3, {}))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3))
        m1 = random_maop(rng, d, 4, 2, 2)
        m2 = random_maop(rng, d, 4, 3, 2)
        m3 = random_maop(rng, d, 4, 1, 3)
        lhs = product(product(m1, m2), m3)
        rhs = product(m1, product(m2, m3))
        assert coeff_diff(lhs, rhs) < 1e-12

    def test_realize_compatible(self):
        rng = np.random.default_rng(2)
        m1 = random_maop(rng, 2, 3, 3, 2)
        m2 = random_maop(rng, 2, 3, 2, 3)
        lhs = dense(realize(product(m1, m2)))
        rhs = dense(realize(m1)) @ dense(realize(m2))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


SHAPES = [(1, 1), (2, 3), (3, 2), (0, 2), (2, 0)]


class TestMatrixFree:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 3, 4])
    @pytest.mark.parametrize("k_dom, k_cod", SHAPES)
    def test_matches_dense_oracle(self, d, n, k_dom, k_cod):
        rng = np.random.default_rng([d, n, k_dom, k_cod])
        m = random_maop(rng, d, n, k_dom, k_cod)
        oracle = dense_oracle(m)
        r = realize(m)
        assert r.shape == oracle.shape
        np.testing.assert_array_equal(r.matvec(np.eye(r.shape[1])), oracle)
        np.testing.assert_array_equal(r.rmatvec(np.eye(r.shape[0])), oracle.conj().T)
        x = rng.standard_normal(r.shape[1])
        np.testing.assert_array_equal(r.matvec(x), r.matvec(x[:, None])[:, 0])

    @pytest.mark.parametrize("d, n, k_dom, k_cod", [(1, 4, 2, 3), (2, 3, 3, 2), (2, 4, 1, 1),
                                                    (3, 3, 2, 2), (3, 2, 1, 3)])
    def test_norm_matches_dense(self, d, n, k_dom, k_cod):
        rng = np.random.default_rng([10, d, n, k_dom, k_cod])
        m = random_maop(rng, d, n, k_dom, k_cod)
        want = np.linalg.norm(dense_oracle(m), 2)
        assert abs(realized_norm(m) - want) <= 1e-12 * want

    def test_empty_sides(self):
        assert realized_norm(maop(2, 2, 0, 2, {})) == 0.0
        assert intertwining_residual(maop(2, 2, 2, 0, {})) == 0.0


def test_multi_analyticity_is_exact():
    rng = np.random.default_rng(3)
    m = random_maop(rng, 2, 3, 2, 2)
    assert intertwining_residual(m) == 0.0


class TestCoeffDiff:
    def test_self(self):
        m = maop(1, 2, 1, 1, {(): [[1.0]]})
        assert coeff_diff(m, m) == 0

    def test_vacuum_difference(self):
        m1 = maop(1, 2, 1, 1, {(): [[1.0]]})
        m2 = maop(1, 2, 1, 1, {})
        assert coeff_diff(m1, m2) == 1.0

    def test_different_truncations_are_refused(self):
        # as `add` and `product` refuse them: equal d alone does not make the
        # two coefficient arrays comparable
        m3, m5 = identity_op(fock_basis(2, 3), 2), identity_op(fock_basis(2, 5), 2)
        for combine in (coeff_diff, add):
            with pytest.raises(DimMismatch, match="incompatible operands"):
                combine(m3, m5)

    def test_refuses_what_it_cannot_compose(self):
        rng = np.random.default_rng(25)
        deep = [random_maop(rng, 2, 3, 2, 2) for _ in range(4)]
        with pytest.raises(DimMismatch, match="at most two factors"):
            coeff_diff(*deep)
        with pytest.raises(DimMismatch, match="next one's cod"):
            coeff_diff(random_maop(rng, 2, 3, 3, 2), deep[0], random_maop(rng, 2, 3, 3, 3))
        with pytest.raises(DimMismatch, match="incompatible operands"):
            coeff_diff(deep[0])


def chain_oracle(factors):
    """The composition of the factors by the word-pair loop, as an operator."""
    out = factors[0]
    for f in factors[1:]:
        out = from_words(out.basis, f.dom, out.cod, product_oracle(out, f))
    return out


def streamed_cases(d, n):
    """(m1, factors) pairs for coeff_diff(m1, *factors): two deep factors, each
    storing fewer degrees than m1 or more, one deep factor alone or between
    constants, a constant on either side of two deep ones, and zero
    dimensions."""
    rng = np.random.default_rng([26, d, n])
    short = max(n - 2, 0)
    deep = lambda k_dom, k_cod, top=None: random_maop(rng, d, n, k_dom, k_cod, top=top)
    const = lambda k_dom, k_cod: random_maop(rng, d, n, k_dom, k_cod, density=1.0, top=0)
    return {
        "factors_shorter": (deep(3, 2), [deep(1, 2, short), deep(3, 1, short)]),
        "factors_longer": (deep(3, 2, short), [deep(2, 2), deep(3, 2)]),
        "one_factor": (deep(2, 3), [deep(2, 3, short)]),
        "leading_constant": (deep(2, 2), [const(3, 2), deep(1, 3), deep(2, 1)]),
        "trailing_constant": (deep(2, 2), [deep(3, 2), deep(1, 3), const(2, 1)]),
        "constants_around_one": (deep(1, 2), [const(2, 2), const(3, 2), deep(2, 3), const(1, 2)]),
        "constant_between": (deep(2, 1), [deep(2, 1), const(3, 2), deep(2, 3)]),
        "constants_only": (deep(2, 2, short), [const(3, 2), const(2, 3)]),
        "zero_inner": (deep(2, 2), [deep(0, 2), deep(2, 0)]),
        "zero_outer": (deep(0, 2), [deep(3, 2), const(0, 3)]),
    }


CASES = sorted(streamed_cases(2, 1))


class TestStreamedCoeffDiff:
    """coeff_diff against a factored right side, which it never forms."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_formed_product_and_the_per_word_oracle(self, d, n, case):
        m1, factors = streamed_cases(d, n)[case]
        formed = factors[0]
        for f in factors[1:]:
            formed = product(formed, f)
        got = coeff_diff(m1, *factors)
        scale = max(max_operator_norm(m1.flat), max_operator_norm(formed.flat))
        for want in (coeff_diff(m1, formed), coeff_diff_oracle(m1, chain_oracle(factors))):
            assert abs(got - want) <= 1e-14 * (1 + scale)

    @pytest.mark.parametrize("where", ["vacuum", "top_first_block", "top_last_block"])
    @pytest.mark.parametrize("case",
                             ["trailing_constant", "leading_constant", "constants_around_one"])
    def test_a_planted_fault_reads_as_itself(self, where, case):
        d, n = 3, 4
        _, factors = streamed_cases(d, n)[case]
        formed = factors[0]
        for f in factors[1:]:
            formed = product(formed, f)
        assert len(formed.graded) == n + 1
        row = {"vacuum": 0, "top_first_block": formed.basis.offsets[n],
               "top_last_block": len(formed.flat) - 1}[where]
        flat = formed.flat.copy()
        flat[row, 0, 0] += 1e-6
        m1 = MultiAnalyticOp(formed.basis, formed.dom, formed.cod, flat)
        scale = max_operator_norm(formed.flat)
        assert coeff_diff(formed, *factors) <= 1e-14 * scale
        assert abs(coeff_diff(m1, *factors) - 1e-6) <= 1e-14 * scale

    def test_holds_less_than_one_copy_of_the_left_side(self):
        # the minimal group's comparison at d=3, dims (2,2,2), N=6: M_CEtilde
        # (1093 words of 6 x 18, 1.89 MB) against M_CE, M_EE' and the inverse
        # of sigma.  The call's traced peak above its operands was 1.69 MB
        # (numpy 2.4.6): a top-degree block, the GEMM's output for it and the
        # GEMM's copy of M_EE''s degree 5.  Forming the product first peaked
        # at 4.41 MB.
        from liftchar.charfact import lifting_char_fn, minimal_part
        from liftchar.gen import random_iterated_lifting

        it = random_iterated_lifting(np.random.default_rng([7, 0]), 3, (2, 2, 2))
        mp = minimal_part(it.first, it.second)
        m_ce, m_eep, m_ct = (lifting_char_fn(x, 6).op for x in (it.first, it.second,
                                                                mp.tilde_lifting))
        sig_inv = const_op(m_ct.basis, mp.sigma.op.matrix.conj().T[:, :m_ct.dom.dim])
        tracemalloc.start()
        try:
            residual = coeff_diff(m_ct, m_ce, m_eep, sig_inv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual < 1e-8
        assert peak < m_ct.flat.nbytes, f"traced peak {peak / 1e6:.2f} MB"


def random_colligation(rng, d, n, k_dom, k_cod, state=2):
    """A random transfer function in colligation form, and its coefficients
    word by word: C X_{w_1} ... X_{w_(n-1)} B_{w_n}, D at the empty word."""
    basis = fock_basis(d, n)
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    D, C, X, B = cplx(k_cod, k_dom), cplx(k_cod, state), cplx(d, state, state) / 2, cplx(d, state, k_dom)

    def cx(w):
        out = C
        for letter in w:
            out = out @ X[letter - 1]
        return out

    form = TransferOp(basis, D, np.stack([cx(w) for w in all_words(d, n - 1)], axis=1)
                      if n else np.zeros((k_cod, 0, state)), B)
    words = {w: (cx(w[:-1]) @ B[w[-1] - 1] if w else D) for w in all_words(d, n)}
    return form, words


def written_op(t):
    """A colligation-form operator written whole, as stored coefficients."""
    return MultiAnalyticOp(t.basis, t.dom, t.cod, t.rows(0, len(t.basis)))


def asked_ranges(basis):
    """Every run of rows coeff_diff asks an operand for: the vacuum, each whole
    degree, and each degree's runs of one first letter (single letters at degree 1)."""
    d, off = basis.d, basis.offsets
    out = [(0, 1)]
    for n in range(1, basis.N + 1):
        out.append((off[n], off[n + 1]))
        out += [(off[n] + c * d**(n - 1), off[n] + (c + 1) * d**(n - 1)) for c in range(d)]
    return out


class TestTransferOp:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("k_dom, k_cod, state", [(3, 2, 2), (0, 2, 2), (2, 0, 2), (2, 3, 0)])
    def test_rows_are_the_written_rows_in_either_layout(self, d, n, k_dom, k_cod, state):
        rng = np.random.default_rng([40, d, n, k_dom, k_cod, state])
        form, words = random_colligation(rng, d, n, k_dom, k_cod, state)
        # a run and the whole write may take different matmul kernels, so they
        # agree to rounding, not bit for bit
        full = form.rows(0, len(form.basis))
        want = np.stack([words[w] for w in all_words(d, n)])
        tol = 1e-14 * (1 + np.abs(want).max(initial=0.0))
        assert full.shape == want.shape
        assert np.abs(full - want).max(initial=0.0) <= tol
        for r0, r1 in asked_ranges(form.basis):
            for got in (form.rows(r0, r1), form.rows(r0, r1, wide=True).swapaxes(0, 1)):
                assert got.shape == full[r0:r1].shape
                assert np.abs(got - full[r0:r1]).max(initial=0.0) <= tol

    def test_then_folds_a_constant_into_every_coefficient(self):
        rng = np.random.default_rng(41)
        form, words = random_colligation(rng, 2, 3, 3, 2)
        right = rng.standard_normal((3, 4))
        got = form.then(right).rows(0, len(form.basis))
        want = np.stack([words[w] @ right for w in all_words(2, 3)])
        assert np.abs(got - want).max() <= 1e-14 * (1 + np.abs(want).max())

    def test_refuses_blocks_that_do_not_fit(self):
        rng = np.random.default_rng(42)
        form, _ = random_colligation(rng, 2, 3, 3, 2)
        with pytest.raises(DimMismatch, match="do not fit"):
            TransferOp(fock_basis(2, 4), form.D, form.cx, form.B)
        with pytest.raises(DimMismatch, match="do not fit"):
            TransferOp(form.basis, form.D, form.cx, form.B[:1])


def colligation_cases(d, n):
    """(lhs, factors) for coeff_diff with operands in colligation form: two
    of them, one between constants, a constant between two, one alone, the
    left side alone in that form, and zero dimensions."""
    rng = np.random.default_rng([43, d, n])
    coll = lambda k_dom, k_cod: random_colligation(rng, d, n, k_dom, k_cod)[0]
    const = lambda k_dom, k_cod: random_maop(rng, d, n, k_dom, k_cod, density=1.0, top=0)
    stored = lambda k_dom, k_cod: random_maop(rng, d, n, k_dom, k_cod)
    return {
        "two": (coll(3, 2), [coll(2, 2), coll(3, 2)]),
        "constants_around_one": (coll(1, 2), [const(2, 2), coll(3, 2), const(1, 3)]),
        "constant_between": (stored(2, 1), [coll(2, 1), const(3, 2), coll(2, 3)]),
        "one": (coll(2, 3), [coll(2, 3)]),
        "stored_factors": (coll(2, 2), [stored(3, 2), stored(2, 3)]),
        "mixed": (stored(3, 2), [stored(2, 2), coll(3, 2)]),
        "zero_inner": (coll(2, 2), [coll(0, 2), coll(2, 0)]),
        "zero_outer": (coll(0, 2), [coll(3, 2), const(0, 3)]),
    }


class TestColligationCoeffDiff:
    """coeff_diff reads an operand in colligation form through its writer."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("case", sorted(colligation_cases(2, 1)))
    def test_matches_the_written_operators(self, d, n, case):
        lhs, factors = colligation_cases(d, n)[case]
        as_op = lambda m: written_op(m) if isinstance(m, TransferOp) else m
        ops = [as_op(f) for f in factors]
        formed = ops[0]
        for f in ops[1:]:
            formed = product(formed, f)
        got = coeff_diff(lhs, *factors)
        scale = max(max_operator_norm(as_op(lhs).flat), max_operator_norm(formed.flat))
        for want in (coeff_diff(as_op(lhs), *ops), coeff_diff_oracle(as_op(lhs), formed)):
            assert abs(got - want) <= 1e-14 * (1 + scale)


def test_realized_norm_contraction():
    u = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    m = maop(2, 2, 3, 3, {(): u})
    assert abs(realized_norm(m) - 1) < 1e-12


# (k_dom, k_mid, k_cod): m1 maps k_mid -> k_cod, m2 maps k_dom -> k_mid
SPLITS = [(2, 3, 1), (1, 2, 3), (0, 2, 2), (2, 0, 3), (3, 2, 0)]


class TestGradedStorage:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_concatenation_is_an_index_product(self, d):
        # the graded index g(a + b) = g(a) d^|b| + g(b), on which `product` places
        # each degree of its right factor in one contiguous run
        index = word_index(fock_basis(d, 4))
        for a in index:
            for b in index:
                if len(a) + len(b) <= 4:
                    assert index[a + b] == index[a] * d**len(b) + index[b]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 3, 4])
    @pytest.mark.parametrize("k_dom, k_mid, k_cod", SPLITS)
    def test_product_matches_pair_loop(self, d, n, k_dom, k_mid, k_cod):
        rng = np.random.default_rng([20, d, n, k_dom, k_mid, k_cod])
        short = max(n - 2, 0)  # an operand whose top degree is below N
        cases = [(random_maop(rng, d, n, k_mid, k_cod), random_maop(rng, d, n, k_dom, k_mid)),
                 (random_maop(rng, d, n, k_mid, k_cod, top=short),
                  random_maop(rng, d, n, k_dom, k_mid)),
                 (random_maop(rng, d, n, k_mid, k_cod),
                  random_maop(rng, d, n, k_dom, k_mid, top=short))]
        if n >= 3:  # a constant on either side of a deep operand
            cases += [(random_maop(rng, d, n, k_mid, k_cod, density=1.0, top=0),
                       random_maop(rng, d, n, k_dom, k_mid)),
                      (random_maop(rng, d, n, k_mid, k_cod),
                       random_maop(rng, d, n, k_dom, k_mid, density=1.0, top=0))]
        zero = np.zeros((k_cod, k_dom))
        # entries stay below about 20 and each is a sum of at most 5 * 3 products, so
        # a changed summation order moves them by far less than 1e-12
        for m1, m2 in cases:
            got = product(m1, m2)
            want = product_oracle(m1, m2)
            assert (got.dom.dim, got.cod.dim) == (k_dom, k_cod)
            assert len(got.graded) <= n + 1
            for w in all_words(d, n):
                np.testing.assert_allclose(got.coeff(w), want.get(w, zero), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 3, 4])
    @pytest.mark.parametrize("k_dom, k_cod", SHAPES)
    def test_coeff_diff_matches_per_word(self, d, n, k_dom, k_cod):
        rng = np.random.default_rng([21, d, n, k_dom, k_cod])
        m1 = random_maop(rng, d, n, k_dom, k_cod)
        m2 = random_maop(rng, d, n, k_dom, k_cod, top=max(n - 1, 0))
        for a, b in ((m1, m2), (m2, m1), (m1, m1)):
            want = coeff_diff_oracle(a, b)
            assert abs(coeff_diff(a, b) - want) <= 1e-13 * want

    def test_add_and_block_diag_per_word(self):
        rng = np.random.default_rng(22)
        m1 = random_maop(rng, 2, 3, 2, 1)
        m2 = random_maop(rng, 2, 3, 2, 1, top=1)
        m3 = random_maop(rng, 2, 3, 0, 2, top=2)
        total = add(m1, m2)
        diag = block_diag_op(m1.basis, m2, m3, m1)
        for w in all_words(2, 3):
            np.testing.assert_array_equal(total.coeff(w), m1.coeff(w) + m2.coeff(w))
            np.testing.assert_array_equal(
                diag.coeff(w), block_diag(m2.coeff(w), m3.coeff(w), m1.coeff(w)))

    def test_constants_store_degree_zero_only(self):
        basis = fock_basis(3, 4)
        assert len(identity_op(basis, 2).graded) == 1
        assert len(const_op(basis, [[1, 2]]).graded) == 1

    def test_coeffs_view_contract(self):
        basis = fock_basis(2, 3)
        given = {(2, 1): [[1.0, 2.0]], (): [[0.0, 1j]], (1, 1, 2): [[3.0, 0.0]], (2,): [[0.0, 0.0]]}
        m = from_words(basis, Subspace.full(2), Subspace.full(1), given)
        assert list(m.coeffs) == [(), (2, 1), (1, 1, 2)]
        index = word_index(basis)
        for w, c in m.coeffs.items():
            np.testing.assert_array_equal(c, given[w])
            np.testing.assert_array_equal(m.graded[len(w)][index[w] - basis.offsets[len(w)]], c)
        with pytest.raises(TypeError):
            m.coeffs[(1,)] = np.zeros((1, 2))
        with pytest.raises(ValueError):
            m.coeffs[()][0, 0] = 5.0
        again = from_words(basis, m.dom, m.cod, m.coeffs)
        assert list(again.coeffs) == list(m.coeffs)
        for a, b in zip(again.graded, m.graded):
            np.testing.assert_array_equal(a, b)

    def test_coeffs_view_round_trips_random(self):
        rng = np.random.default_rng(23)
        m = random_maop(rng, 3, 3, 2, 2, density=0.3)
        want = [w for w in all_words(3, 3) if m.coeff(w).any()]
        assert list(m.coeffs) == want
        again = from_words(m.basis, m.dom, m.cod, m.coeffs)
        assert coeff_diff(again, m) == 0.0

    def test_rejects_misshapen_coefficients(self):
        basis, one = fock_basis(2, 2), Subspace.full(1)
        with pytest.raises(DimMismatch):
            MultiAnalyticOp(basis, one, one, (np.ones((1, 1, 1)), np.ones((1, 1, 1))))


def unpruned_max_operator_norm(stack):
    """max_operator_norm without pruning: every block through the Gram eigvalsh."""
    m = np.asarray(stack)
    if m.size == 0:
        return 0.0
    mh = m.conj().swapaxes(-1, -2)
    gram = m @ mh if m.shape[-2] <= m.shape[-1] else mh @ m
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[..., -1].max(), 0.0)))


def pruning_stacks():
    """Stacks where pruning could go wrong: near-ties, one dominant block,
    equal blocks, rank one (Frobenius equals spectral norm), noise level."""
    rng = np.random.default_rng(31)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def unitary(n):
        return np.linalg.qr(cplx(n, n))[0]

    stacks = {f"random{shape}": cplx(*shape)
              for shape in [(364, 6, 18), (50, 5, 3), (7, 1, 4), (9, 4, 1), (1, 3, 3)]}
    a = cplx(4, 6)
    tie = cplx(30, 4, 6) * 0.1
    tie[7], tie[19] = a, unitary(4) @ a @ unitary(6)  # equal norms up to rounding
    stacks["tie_rotated"] = tie
    tie2 = tie.copy()
    tie2[19] = a * (1 + 1e-14)
    stacks["tie_1e-14"] = tie2
    dom = cplx(100, 3, 5) * 1e-3
    dom[42] *= 1e5
    stacks["dominant"] = dom
    stacks["all_equal"] = np.broadcast_to(a, (12, 4, 6))
    r1 = cplx(40, 5, 1) @ cplx(40, 1, 7)
    stacks["rank_one"] = r1
    stacks["rank_one_tie"] = np.concatenate([r1, r1[::-1] * (1 + 1e-14)])
    stacks["rank_one_scaled"] = r1 * np.logspace(-8, 2, 40)[:, None, None]
    stacks["noise"] = cplx(64, 3, 3) * 1e-16
    stacks["noise_real"] = rng.standard_normal((64, 2, 5)) * 1e-16
    one_col = np.zeros((20, 4, 5), dtype=complex)
    one_col[:, :, 2] = cplx(20, 4)  # a column norm is the spectral norm
    stacks["one_column"] = one_col
    stacks["zero"] = np.zeros((6, 3, 2))
    stacks["one_matrix"] = a
    return stacks


class TestMaxOperatorNorm:
    @pytest.mark.parametrize("name", sorted(pruning_stacks()))
    def test_pruning_changes_no_value(self, name):
        stack = pruning_stacks()[name]
        assert max_operator_norm(stack) == unpruned_max_operator_norm(stack)

    def test_only_candidates_reach_eigvalsh(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            seen.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        stacks = pruning_stacks()
        max_operator_norm(stacks["dominant"])
        max_operator_norm(stacks["all_equal"])
        assert seen == [1, 12]

    @pytest.mark.parametrize("shape", [(364, 6, 18), (50, 5, 3), (7, 1, 4), (9, 4, 1), (1, 3, 3)])
    def test_random(self, shape):
        rng = np.random.default_rng(list(shape))
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = max(np.linalg.norm(m, 2) for m in stack)
        assert abs(max_operator_norm(stack) - want) <= 1e-13 * want

    def test_rank_deficient(self):
        rng = np.random.default_rng(24)
        u = rng.standard_normal((40, 5, 1)) + 1j * rng.standard_normal((40, 5, 1))
        v = rng.standard_normal((40, 1, 7))
        stack = u @ v * np.logspace(-8, 2, 40)[:, None, None]
        want = max(np.linalg.norm(m, 2) for m in stack)
        assert abs(max_operator_norm(stack) - want) <= 1e-13 * want
        assert abs(max_operator_norm(stack[:5]) - np.linalg.norm(stack[4], 2)) \
            <= 1e-13 * np.linalg.norm(stack[4], 2)

    @pytest.mark.parametrize("name", sorted(pruning_stacks()))
    def test_a_stack_read_in_parts_gives_the_same_value(self, name):
        stack = np.asarray(pruning_stacks()[name])
        flat = stack.reshape(-1, *stack.shape[-2:])
        parts = (flat[i:i + 7] for i in range(0, len(flat), 7))
        assert max_operator_norm_of(parts) == max_operator_norm(stack)

    def test_parts_keep_nan_and_empty(self):
        ok, bad = np.ones((3, 2, 2)), np.full((1, 2, 2), np.nan)
        assert np.isnan(max_operator_norm_of([ok, bad]))
        assert np.isnan(max_operator_norm_of([bad, ok]))
        assert max_operator_norm_of([]) == 0.0
        assert max_operator_norm_of([np.zeros((0, 2, 2)), np.zeros((3, 2, 2))]) == 0.0

    def test_zero_and_empty(self):
        assert max_operator_norm(np.zeros((6, 3, 2))) == 0.0
        for shape in [(0, 3, 3), (4, 0, 3), (4, 3, 0)]:
            assert max_operator_norm(np.zeros(shape)) == 0.0
