import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftchar.errors import DimMismatch, IndexOutOfRange
from liftchar.ncfock import (
    MultiAnalyticOp,
    ampliate,
    coeff_diff,
    creation,
    extract_coeffs,
    fock_basis,
    identity_op,
    intertwining_residual,
    product,
    realize,
    realized_norm,
)
from liftchar.numlin import Subspace
from liftchar.rowcon import reverse_word


def maop(d, n, dom_k, cod_k, coeffs):
    return MultiAnalyticOp(fock_basis(d, n), Subspace.full(dom_k), Subspace.full(cod_k),
                           {w: np.asarray(m, dtype=complex) for w, m in coeffs.items()})


def random_maop(rng, d, n, dom_k, cod_k, density=0.6):
    basis = fock_basis(d, n)
    coeffs = {}
    for w in basis.words:
        if rng.random() < density:
            coeffs[w] = rng.standard_normal((cod_k, dom_k)) + 1j * rng.standard_normal((cod_k, dom_k))
    return MultiAnalyticOp(basis, Subspace.full(dom_k), Subspace.full(cod_k), coeffs)


def dense_oracle(m):
    """Independent dense realization: e_b (x) x -> sum_a e_{b + reverse(a)} (x) theta_(a) x."""
    basis = m.basis
    kd, kc = m.dom.dim, m.cod.dim
    nw = len(basis)
    out = np.zeros((nw * kc, nw * kd), dtype=np.complex128)
    for a, mat in m.coeffs.items():
        ra = reverse_word(a)
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
        ident = identity_op(m.basis, m.dom)
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


class TestAmpliate:
    def test_identity(self):
        np.testing.assert_array_equal(ampliate(fock_basis(2, 1), np.eye(2)), np.eye(6))

    def test_block_structure(self):
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        out = ampliate(fock_basis(1, 1), x)
        assert out.shape == (4, 4)
        np.testing.assert_array_equal(out[:2, :2], x)
        np.testing.assert_array_equal(out[2:, 2:], x)
        np.testing.assert_array_equal(out[:2, 2:], 0 * x)

    def test_multiplicative(self):
        rng = np.random.default_rng(4)
        b = fock_basis(2, 2)
        x = rng.standard_normal((3, 3))
        np.testing.assert_allclose(ampliate(b, x) @ ampliate(b, x), ampliate(b, x @ x),
                                   atol=1e-12)


class TestCoeffDiff:
    def test_self(self):
        m = maop(1, 2, 1, 1, {(): [[1.0]]})
        assert coeff_diff(m, m) == 0

    def test_vacuum_difference(self):
        m1 = maop(1, 2, 1, 1, {(): [[1.0]]})
        m2 = maop(1, 2, 1, 1, {})
        assert coeff_diff(m1, m2) == 1.0

    def test_degree_cap(self):
        m1 = maop(1, 3, 1, 1, {(1, 1, 1): [[5.0]]})
        m2 = maop(1, 3, 1, 1, {})
        assert coeff_diff(m1, m2, up_to=2) == 0
        assert coeff_diff(m1, m2, up_to=3) == 5.0


def test_realized_norm_contraction():
    u = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    m = maop(2, 2, 3, 3, {(): u})
    assert abs(realized_norm(m) - 1) < 1e-12
