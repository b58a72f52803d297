import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftchar.errors import DimMismatch, IndexOutOfRange
from liftchar.ncfock import (
    MultiAnalyticOp,
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
from liftchar.numlin import Subspace, block_diag, max_operator_norm, operator_norm


def creation(basis, side, i):
    """Dense creation operator: left prepends, right appends the letter; words
    that would exceed degree N map to 0."""
    if not 1 <= i <= basis.d:
        raise IndexOutOfRange(f"letter {i} outside 1..{basis.d}")
    if side not in ("left", "right"):
        raise DimMismatch("side must be 'left' or 'right'")
    n = len(basis)
    m = np.zeros((n, n), dtype=np.complex128)
    for w, j in basis.index.items():
        if len(w) >= basis.N:
            continue
        target = (i,) + w if side == "left" else w + (i,)
        m[basis.index[target], j] = 1.0
    return m


def extract_coeffs(r):
    """Invert realize by reading the vacuum column block against e_{reverse(a)}."""
    basis, k_dom, k_cod = r.basis, r.k_dom, r.k_cod
    col = r.matvec(np.eye(r.shape[1], k_dom, dtype=np.complex128))
    out = {}
    for a in basis.words:
        i = basis.index[a[::-1]]
        block = col[i * k_cod : (i + 1) * k_cod, :]
        if operator_norm(block) > 0.0:
            out[a] = block
    return out


def maop(d, n, dom_k, cod_k, coeffs):
    return MultiAnalyticOp.from_words(fock_basis(d, n), Subspace.full(dom_k), Subspace.full(cod_k),
                                      {w: np.asarray(m, dtype=complex) for w, m in coeffs.items()})


def random_maop(rng, d, n, dom_k, cod_k, density=0.6, top=None):
    """Random coefficients on about `density` of the words of length <= top (default n)."""
    basis = fock_basis(d, n)
    coeffs = {}
    for w in basis.words:
        if len(w) <= (n if top is None else top) and rng.random() < density:
            coeffs[w] = rng.standard_normal((cod_k, dom_k)) + 1j * rng.standard_normal((cod_k, dom_k))
    return MultiAnalyticOp.from_words(basis, Subspace.full(dom_k), Subspace.full(cod_k), coeffs)


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
    out = np.zeros((nw * kc, nw * kd), dtype=np.complex128)
    for a, mat in m.coeffs.items():
        ra = a[::-1]
        la = len(a)
        for b, j in basis.index.items():
            if len(b) + la > basis.N:
                continue
            i = basis.index[b + ra]
            out[i * kc : (i + 1) * kc, j * kd : (j + 1) * kd] += mat
    return out


def dense(r):
    """The matrix of a matrix-free realization, column by column."""
    return r.matvec(np.eye(r.shape[1]))


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
        for w, i in b.index.items():
            if len(w) <= 2:
                proj[i, i] = 1.0
        for i in (1, 2):
            for j in (1, 2):
                li = creation(b, "left", i)
                lj = creation(b, "left", j)
                expected = proj if i == j else np.zeros_like(proj)
                np.testing.assert_allclose(li.conj().T @ lj, expected, atol=1e-14)

    def test_bad_letter(self):
        with pytest.raises(IndexOutOfRange):
            creation(fock_basis(2, 1), "left", 3)


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
            assert abs(vec[b.index[word]] - value) < 1e-14

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


def test_realized_norm_contraction():
    u = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    m = maop(2, 2, 3, 3, {(): u})
    assert abs(realized_norm(m) - 1) < 1e-12


# (k_dom, k_mid, k_cod): m1 maps k_mid -> k_cod, m2 maps k_dom -> k_mid
SPLITS = [(2, 3, 1), (1, 2, 3), (0, 2, 2), (2, 0, 3), (3, 2, 0)]


class TestGradedStorage:
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
        zero = np.zeros((k_cod, k_dom))
        # entries stay below about 20 and each is a sum of at most 5 * 3 products, so
        # a changed summation order moves them by far less than 1e-12
        for m1, m2 in cases:
            got = product(m1, m2)
            want = product_oracle(m1, m2)
            assert (got.dom.dim, got.cod.dim) == (k_dom, k_cod)
            assert len(got.graded) <= n + 1
            for w in m1.basis.words:
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
        for w in m1.basis.words:
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
        m = MultiAnalyticOp.from_words(basis, Subspace.full(2), Subspace.full(1), given)
        assert list(m.coeffs) == [(), (2, 1), (1, 1, 2)]
        for w, c in m.coeffs.items():
            np.testing.assert_array_equal(c, given[w])
            np.testing.assert_array_equal(m.graded[len(w)][basis.index[w] - basis.offsets[len(w)]], c)
        with pytest.raises(TypeError):
            m.coeffs[(1,)] = np.zeros((1, 2))
        with pytest.raises(ValueError):
            m.coeffs[()][0, 0] = 5.0
        again = MultiAnalyticOp.from_words(basis, m.dom, m.cod, m.coeffs)
        assert list(again.coeffs) == list(m.coeffs)
        for a, b in zip(again.graded, m.graded):
            np.testing.assert_array_equal(a, b)

    def test_coeffs_view_round_trips_random(self):
        rng = np.random.default_rng(23)
        m = random_maop(rng, 3, 3, 2, 2, density=0.3)
        want = [w for w in m.basis.words if m.coeff(w).any()]
        assert list(m.coeffs) == want
        again = MultiAnalyticOp.from_words(m.basis, m.dom, m.cod, m.coeffs)
        assert coeff_diff(again, m) == 0.0

    def test_from_words_rejects_bad_input(self):
        basis, one = fock_basis(2, 2), Subspace.full(1)
        with pytest.raises(DimMismatch):
            MultiAnalyticOp.from_words(basis, one, one, {(1, 1, 1): [[1.0]]})
        with pytest.raises(IndexOutOfRange):
            MultiAnalyticOp.from_words(basis, one, one, {(3,): [[1.0]]})
        with pytest.raises(DimMismatch):
            MultiAnalyticOp.from_words(basis, one, one, {(1,): [[1.0, 2.0]]})
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
    def test_list_of_stacks_equals_their_concatenation(self, name):
        # a residual over all degrees is one call over the per-degree stacks: the
        # bound is global, so the value is exactly that of the concatenated stack
        stack = np.asarray(pruning_stacks()[name])
        stack = stack.reshape(-1, *stack.shape[-2:])
        cuts = [0, 1, len(stack) // 3, len(stack) // 2, len(stack)]
        parts = [stack[a:b] for a, b in zip(cuts, cuts[1:])]
        want = max_operator_norm(np.concatenate(parts))
        assert max_operator_norm(parts) == want
        assert max_operator_norm(iter(parts[::-1])) == want
        assert max_operator_norm([stack[i] for i in range(len(stack))]) == want

    def test_only_candidates_of_a_list_reach_eigvalsh(self, monkeypatch):
        # blocks kept before the dominant one is read are dropped by the final
        # bound, and blocks read after it by the bound carried across stacks
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            seen.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        parts = np.split(pruning_stacks()["dominant"], [10, 30, 60])
        max_operator_norm(parts)
        max_operator_norm(iter(parts[::-1]))
        assert seen == [1, 1]

    def test_empty_iterables(self):
        assert max_operator_norm([]) == max_operator_norm([np.zeros((0, 3, 3))]) == 0.0

    def test_zero_and_empty(self):
        assert max_operator_norm(np.zeros((6, 3, 2))) == 0.0
        for shape in [(0, 3, 3), (4, 0, 3), (4, 3, 0)]:
            assert max_operator_norm(np.zeros(shape)) == 0.0
