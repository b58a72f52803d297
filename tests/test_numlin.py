import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftchar.errors import NotHermitian, NotPSD, NotSquare
from liftchar.numlin import (
    Subspace,
    SubOperator,
    block_shuffle,
    operator_norm,
    pinv,
    psd_root_range,
    unitarity_residual,
)


def random_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T / n


class TestHermitianSqrt:
    """The clamped positive root returned by psd_root_range."""

    def test_scalar(self):
        np.testing.assert_allclose(psd_root_range(np.array([[0.36]]))[0], [[0.6]], atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(psd_root_range(np.eye(3))[0], np.eye(3), atol=1e-14)

    def test_worked_example_defect(self):
        # I - E'* E' for the three-dimensional one-step lifting with all
        # couplings 1/2 has the exact root diag(1/2, 1, 1)
        ep = 0.5 * np.array([[1, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=complex)
        m = np.eye(3) - ep.conj().T @ ep
        np.testing.assert_allclose(psd_root_range(m)[0], np.diag([0.5, 1, 1]), atol=1e-12)

    def test_square_root_property(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = random_psd(rng, n)
            r = psd_root_range(m)[0]
            assert operator_norm(r @ r - m) <= 1e-10 * max(operator_norm(m), 1.0)
            assert operator_norm(r - r.conj().T) < 1e-13

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            psd_root_range(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            psd_root_range(np.diag([1.0, -0.5]))

    def test_small_negative_clamped(self):
        r = psd_root_range(np.diag([1.0, -1e-13]))[0]
        np.testing.assert_allclose(r, np.diag([1.0, 0.0]), atol=1e-6)


class TestPinv:
    def test_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_unitary(self):
        u = np.array([[0, 1j], [1, 0]], dtype=complex)
        np.testing.assert_allclose(pinv(u), u.conj().T, atol=1e-14)

    def test_zero(self):
        np.testing.assert_allclose(pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_full_rank_tall(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        np.testing.assert_allclose(pinv(m) @ m, np.eye(2), atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))
    def test_penrose_identities(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        p = pinv(m)
        assert operator_norm(m @ p @ m - m) < 1e-10
        assert operator_norm(p @ m @ p - p) < 1e-10
        assert operator_norm((m @ p).conj().T - m @ p) < 1e-10
        assert operator_norm((p @ m).conj().T - p @ m) < 1e-10


class TestRangeSubspace:
    """The range basis returned by psd_root_range."""

    def test_coordinate_projection(self):
        s = psd_root_range(np.diag([1.0, 0.0]))[1]
        assert s.dim == 1
        np.testing.assert_allclose(np.abs(s.basis[:, 0]), [1, 0], atol=1e-14)

    def test_rank_two_defect(self):
        # diag(0, 1, 1) from the worked minimal-part example
        s = psd_root_range(np.diag([0.0, 1.0, 1.0]))[1]
        assert s.dim == 2
        assert s.contains_residual(np.array([[0.0, 0], [1, 0], [0, 1]])) < 1e-12

    def test_rank_one_star_defect_of_coupling(self):
        g = np.array([[1 / np.sqrt(3), 1 / np.sqrt(3)]])
        m = np.eye(1) - g @ g.conj().T
        d, s = psd_root_range(m)
        assert s.dim == 1
        np.testing.assert_allclose(d, [[1 / np.sqrt(3)]], atol=1e-12)

    def test_zero(self):
        assert psd_root_range(np.zeros((3, 3)))[1].dim == 0

    def test_basis_in_column_space(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_psd(rng, int(rng.integers(1, 6)))
            s = psd_root_range(m)[1]
            proj = m @ pinv(m)
            assert operator_norm(s.basis - proj @ s.basis) < 1e-10

    def test_phase_convention(self):
        # first nonzero coordinate of each basis vector is real positive
        rng = np.random.default_rng(3)
        m = random_psd(rng, 4)
        s = psd_root_range(m)[1]
        for j in range(s.dim):
            col = s.basis[:, j]
            piv = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(piv.imag) < 1e-12 and piv.real > 0


class TestUnitarityResidual:
    def test_identity(self):
        assert unitarity_residual(np.eye(2)) == 0

    def test_rotation_block(self):
        s = 1 / np.sqrt(2)
        p = np.array([[1, 0, 0], [0, s, -s], [0, s, s]])
        assert unitarity_residual(p) < 1e-12

    def test_shear_fails(self):
        assert unitarity_residual(np.array([[1.0, 1.0], [0.0, 1.0]])) >= 1.0

    def test_not_square(self):
        with pytest.raises(NotSquare):
            unitarity_residual(np.zeros((2, 3)))


def test_subspace_validation():
    with pytest.raises(Exception):
        Subspace(2, np.array([[1.0], [1.0]]))  # not orthonormal
    s = Subspace.full(3)
    assert s.dim == 3
    assert Subspace.zero(3).dim == 0


def test_suboperator_ambient_roundtrip():
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    dom = Subspace(4, q)
    cod = Subspace.full(3)
    m = rng.standard_normal((3, 2))
    op = SubOperator(dom, cod, m)
    amb = op.as_ambient()
    np.testing.assert_allclose(cod.basis.conj().T @ amb @ dom.basis, m, atol=1e-12)


def test_block_shuffle_regroups():
    # (C + A)^d -> C^d + A^d with C of dim 1 and A of dim 2, d = 2
    idx = block_shuffle([1, 2], 2)
    x = np.array([10, 20, 21, 30, 40, 41])  # two stacked copies of (c, a1, a2)
    np.testing.assert_array_equal(x[idx], [10, 30, 20, 21, 40, 41])
