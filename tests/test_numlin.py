import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftchar import numlin, rowcon
from liftchar.errors import DimMismatch, NotContraction, NotHermitian, NotPSD, NotSquare
from liftchar.numlin import (
    ORTH_TOL,
    RANK_TOL,
    DefectData,
    Subspace,
    SubOperator,
    _below_psd,
    block_shuffle,
    norm_exceeds,
    operator_norm,
    pinv,
    psd_root_range,
    require_contraction,
    unitarity_residual,
)


def isometry_residual(m) -> float:
    """||M*M - I|| for a tall-or-square matrix (columns orthonormal)."""
    m = np.asarray(m, dtype=np.complex128)
    return operator_norm(m.conj().T @ m - np.eye(m.shape[1]))


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

    def test_non_finite_refused_without_warning(self):
        # the Hermitian gate's SVD does not converge on these
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (np.array([[np.inf]]), np.array([[np.nan]]),
                      np.array([[1.0, np.nan], [np.nan, 1.0]]), np.diag([1.0, -np.inf * 1j])):
                with pytest.raises(NotPSD, match="non-finite"):
                    psd_root_range(m)

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
        v = np.array([[0.0, 0], [1, 0], [0, 1]])
        assert operator_norm(v - s.basis @ (s.basis.conj().T @ v)) < 1e-12

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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_phase_fix_matches_the_per_column_loop_bit_for_bit(self, n):
        # reference: one scalar abs and one column product per column
        def per_column(v):
            v = v.copy()
            for j in range(v.shape[1]):
                col = v[:, j]
                pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                v[:, j] = col * (abs(pivot) / pivot)
            return v

        rng = np.random.default_rng(n)
        for k in range(n + 1):
            for _ in range(20):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                v = np.linalg.qr(g)[0][:, :k]
                v[0, :k // 2] = 0.0  # some pivots below the first row
                got, want = numlin._fix_phases(v), per_column(v)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()


class TestComplement:
    """Subspace.complement, the range of I - QQ*."""

    @pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (3, 0), (3, 1), (4, 2), (3, 3)])
    def test_orthonormal_orthogonal_and_dimensions_add_up(self, n, k):
        rng = np.random.default_rng([n, k])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = Subspace(n, np.linalg.qr(g)[0][:, :k])
        c = s.complement()
        assert c.ambient_dim == n
        assert s.dim + c.dim == n
        assert isometry_residual(c.basis) < 1e-12
        assert operator_norm(s.basis.conj().T @ c.basis) < 1e-12

    def test_zero_subspace_has_everything(self):
        c = Subspace.zero(3).complement()
        assert c.dim == 3
        assert operator_norm(np.eye(3) - c.basis @ c.basis.conj().T) < 1e-12

    def test_full_subspace_has_nothing(self):
        assert Subspace.full(3).complement().dim == 0
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        assert Subspace(2, h).complement().dim == 0


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

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_one_side_equals_both(self, n):
        # M*M - I and MM* - I share the singular values |s_i^2 - 1| when M is
        # square, normal or not, so one side gives the maximum over both
        rng = np.random.default_rng([11, n])
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        q = np.linalg.qr(g)[0]
        eye = np.eye(n)
        for m in (g, 3.0 * g, np.triu(g), q + 1e-8 * np.triu(g), q @ np.diag(np.linspace(0.5, 1.5, n))):
            both = max(operator_norm(m.conj().T @ m - eye), operator_norm(m @ m.conj().T - eye))
            assert abs(unitarity_residual(m) - both) <= 1e-14 * (1 + operator_norm(m) ** 2)


def test_operator_norm_is_top_singular_value():
    rng = np.random.default_rng(5)
    for shape in ((4, 4), (8, 8), (3, 7), (7, 3), (1, 1)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert operator_norm(m) == np.linalg.norm(m, 2)
    assert operator_norm(np.eye(3)) == 1.0
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert operator_norm(np.zeros(shape)) == 0.0


def test_subspace_validation():
    with pytest.raises(Exception):
        Subspace(2, np.array([[1.0], [1.0]]))  # not orthonormal
    s = Subspace.full(3)
    assert s.dim == 3
    assert Subspace.zero(3).dim == 0


class TestNormGates:
    """Threshold gates decide by the Frobenius norm first; the decision must be
    the spectral norm's, also where the Frobenius norm exceeds the bound."""

    @staticmethod
    def perturbed_basis(target):
        """A dense orthonormal 6 x 3 basis with one entry moved so that its
        isometry residual (rank two, Frobenius above spectral) is target."""
        rng = np.random.default_rng(8)
        q = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))[0]

        def moved(delta):
            b = q.copy()
            b[2, 1] += delta
            return b

        # the residual is linear in delta to 1e-12 relative at this size
        return moved(1e-12 * target / isometry_residual(moved(1e-12)))

    def test_subspace_gate_at_orth_tol(self):
        above, below = self.perturbed_basis(1.01 * ORTH_TOL), self.perturbed_basis(0.99 * ORTH_TOL)
        assert isometry_residual(above) > ORTH_TOL > isometry_residual(below)
        gram_err = below.conj().T @ below - np.eye(3)
        assert np.linalg.norm(gram_err) > ORTH_TOL  # the Frobenius norm cannot decide
        with pytest.raises(DimMismatch):
            Subspace(6, above)
        assert Subspace(6, below).dim == 3

    @pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6])
    def test_hermitian_gate_at_rank_tol(self, factor):
        # ||G - G*|| = 2t with Frobenius norm 2t sqrt(2); scale is 1
        t = factor * RANK_TOL / 2
        gram = np.diag([0.5 + 1j * t, 0.3 - 1j * t, 0.2])
        assert np.linalg.norm(gram - gram.conj().T) > RANK_TOL
        if factor > 1:
            with pytest.raises(NotHermitian):
                psd_root_range(gram)
        else:
            assert psd_root_range(gram)[1].dim == 3

    def test_norm_exceeds_matches_svd(self):
        rng = np.random.default_rng(9)
        for shape in ((4, 4), (3, 7), (7, 3), (1, 1), (5, 1)):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            s, f = operator_norm(m), np.linalg.norm(m)
            for bound in (0.5 * s, s * (1 - 1e-15), s, s * (1 + 1e-15), 0.5 * (s + f), f, 2 * f):
                assert norm_exceeds(m, bound) == (s > bound)
        assert not norm_exceeds(np.zeros((3, 0)), 0.0)
        assert not norm_exceeds(np.zeros((2, 2)), 0.0)


class TestRequireContraction:
    """The one contraction test, under psd_root_range's PSD gate (its agreement
    with the norm away from the boundary is pinned in test_lifting)."""

    @staticmethod
    def accepts(m) -> bool:
        try:
            require_contraction(m)
        except NotContraction:
            return False
        return True

    def test_boundary_matches_the_defect_gate(self):
        # the cut, near norm 1 + RANK_TOL / 2, is the one psd_root_range makes
        # on the defect Gram matrix
        decided = []
        for t in (1e-11, 4e-11, 6e-11, 8e-11, 1e-9):
            m = np.array([[1.0 + t, 0.0], [0.0, 0.3]])
            try:
                psd_root_range(np.eye(2) - m.conj().T @ m)
                decided.append(True)
            except NotPSD:
                decided.append(False)
            assert self.accepts(m) == decided[-1]
            assert self.accepts(m[:1]) == decided[-1]
        assert decided == [True, True, False, False, False]

    def test_message_and_type(self):
        with pytest.raises(NotContraction, match=r"not contractive \(norm 1\.000000000080\)"):
            require_contraction(np.array([[1 + 8e-11, 0.0]]))
        assert issubclass(NotContraction, NotPSD)
        require_contraction(np.zeros((0, 3)))
        require_contraction(np.eye(3))

    def test_overflowing_gram_fails(self):
        # an entry above about 1.3e154 overflows the Gram matrix: its eigenvalues
        # are -inf or NaN, which the comparison alone would let pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (np.array([[1e155]]), np.array([[0.5 + 1e300j]]), np.full((2, 3), 1e300)):
                with pytest.raises(NotContraction, match=r"not contractive \(norm inf\)"):
                    require_contraction(m)
        assert _below_psd(np.array([-np.inf, 0.0]))
        assert _below_psd(np.array([np.nan, np.nan]))
        assert not _below_psd(np.array([0.0, 1.0]))


def test_suboperator_ambient_roundtrip():
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    dom = Subspace(4, q)
    cod = Subspace.full(3)
    m = rng.standard_normal((3, 2))
    op = SubOperator(dom, cod, m)
    amb = op.as_ambient()
    np.testing.assert_allclose(cod.basis.conj().T @ amb @ dom.basis, m, atol=1e-12)


def _unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def _degenerate(name):
    """(M, rank of D_M, rank of D_M*) for a contraction at the rank boundary."""
    rng = np.random.default_rng(5)
    if name == "zero":
        return np.zeros((2, 4)), 4, 2
    if name == "unitary":
        return _unitary(rng, 2), 0, 0
    if name == "isometry":
        return _unitary(rng, 3)[:, :2], 0, 1
    if name == "coisometry":
        return _unitary(rng, 4)[:2, :], 2, 0
    # norm 1 and rank 2: 1 - s^2 is (0, 0.64, 1) on both sides
    return _unitary(rng, 3) @ np.diag([1.0, 0.6, 0.0]) @ _unitary(rng, 3), 2, 2


DEGENERATE = ["zero", "unitary", "isometry", "coisometry", "rank-deficient"]


class TestDefectData:
    """Both defects of degenerate contractions, as couplings and as row contractions."""

    @staticmethod
    def _coupling(m):
        return SubOperator(Subspace.full(m.shape[1]), Subspace.full(m.shape[0]), m)

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_coupling_defects(self, name):
        m, rank, star_rank = _degenerate(name)
        op = self._coupling(m)
        mh = m.conj().T
        sides = ((op.defect, np.eye(m.shape[1]) - mh @ m, rank),
                 (op.star_defect, np.eye(m.shape[0]) - m @ mh, star_rank))
        for dd, gram, want in sides:
            np.testing.assert_allclose(dd.D @ dd.D, gram, atol=1e-12)
            q = dd.space.basis
            assert dd.rank == want and q.shape == (gram.shape[0], want)
            np.testing.assert_allclose(q.conj().T @ q, np.eye(want), atol=1e-12)
            np.testing.assert_allclose(dd.pinv @ dd.D, q @ q.conj().T, atol=1e-12)

    @pytest.mark.parametrize("name", ["zero", "unitary", "coisometry", "rank-deficient"])
    def test_row_contraction_agrees_with_coupling(self, name):
        # the same matrix as row(S) of a d-tuple: d = 1 when square, d = 2 when 2 x 4
        m = _degenerate(name)[0]
        n = m.shape[0]
        s = rowcon.RowContraction(tuple(m[:, i * n:(i + 1) * n] for i in range(m.shape[1] // n)))
        op = self._coupling(m)
        for row_side, op_side in ((rowcon.defect(s), op.defect),
                                  (rowcon.star_defect(s), op.star_defect)):
            assert isinstance(row_side, DefectData)
            np.testing.assert_array_equal(row_side.D, op_side.D)
            np.testing.assert_array_equal(row_side.space.basis, op_side.space.basis)

    def test_each_side_built_on_first_use(self, monkeypatch):
        calls = []

        def recording(m, *args, _fn=numlin.psd_root_range):
            calls.append(m.shape)
            return _fn(m, *args)

        monkeypatch.setattr(numlin, "psd_root_range", recording)
        op = self._coupling(_degenerate("isometry")[0])
        assert op.star_defect is op.star_defect
        assert calls == [(3, 3)]
        assert op.defect.rank == 0
        assert calls == [(3, 3), (2, 2)]


def test_block_shuffle_regroups():
    # (C + A)^d -> C^d + A^d with C of dim 1 and A of dim 2, d = 2
    idx = block_shuffle([1, 2], 2)
    x = np.array([10, 20, 21, 30, 40, 41])  # two stacked copies of (c, a1, a2)
    np.testing.assert_array_equal(x[idx], [10, 30, 20, 21, 40, 41])
