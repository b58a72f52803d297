import numpy as np
import pytest

from liftchar.errors import NotPSD
from liftchar.ncfock import fock_basis
from liftchar.numlin import operator_norm
from liftchar.rowcon import (
    RowContraction,
    defect,
    star_defect,
    word_to_str,
)


S2 = 1 / np.sqrt(2)


def rc(*mats):
    return RowContraction(tuple(np.asarray(m, dtype=complex) for m in mats))


def random_rc(rng, d, dim):
    g = rng.standard_normal((dim, d * dim)) + 1j * rng.standard_normal((dim, d * dim))
    g /= operator_norm(g) + 0.2
    return RowContraction(tuple(g[:, i * dim : (i + 1) * dim] for i in range(d)))


def test_row_contraction_rejects_expansive():
    with pytest.raises(NotPSD):
        rc([[1.5]])


def str_to_word(s):
    """Reference inverse of word_to_str."""
    return tuple(int(c) for c in s)


def words(d, n):
    """The words of fock_basis(d, n) in index order."""
    basis = fock_basis(d, n)
    return tuple(basis.word(g) for g in range(len(basis)))


def test_words():
    assert words(2, 2) == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))
    assert word_to_str((1, 2), 2) == "12"
    assert word_to_str((), 3) == ""
    assert all(str_to_word(word_to_str(w, 3)) == w for w in words(3, 3))


class TestDefects:
    def test_zero_tuple(self):
        dd = defect(rc([[0.0]], [[0.0]]))
        np.testing.assert_allclose(dd.D, np.eye(2), atol=1e-14)
        assert dd.space.dim == 2

    def test_column_defect_of_rank_one_column(self):
        ep = rc(0.5 * np.array([[1, 0, 0], [1, 0, 0], [1, 0, 0]]))
        np.testing.assert_allclose(defect(ep).D, np.diag([0.5, 1, 1]), atol=1e-12)

    def test_column_identity(self):
        rng = np.random.default_rng(0)
        s = random_rc(rng, 2, 2)
        dd = defect(s)
        row = s.row
        np.testing.assert_allclose(dd.D @ dd.D + row.conj().T @ row, np.eye(4), atol=1e-10)

    def test_star_scalar(self):
        dd = star_defect(rc([[0.0]]))
        np.testing.assert_allclose(dd.D, [[1.0]])

    def test_star_zero_two_by_two(self):
        dd = star_defect(rc(np.zeros((2, 2))))
        np.testing.assert_allclose(dd.D, np.eye(2))

    def test_star_identity(self):
        rng = np.random.default_rng(1)
        s = random_rc(rng, 3, 2)
        dd = star_defect(s)
        row = s.row
        np.testing.assert_allclose(dd.D @ dd.D, np.eye(2) - row @ row.conj().T, atol=1e-10)


class TestStoredOnce:
    def test_ops_are_one_stack_and_the_row_is_kept(self):
        s = random_rc(np.random.default_rng(4), 3, 2)
        assert s.ops.shape == (3, 2, 2)
        assert s.row is s.row
        np.testing.assert_array_equal(s.row, np.hstack(list(s.ops)))
        with pytest.raises(ValueError):
            s.row[0, 0] = 0.0

    def test_ops_are_read_only_views(self):
        m = np.array([[0.5, 0.0], [0.0, 0.25]], dtype=complex)
        s = RowContraction((m,))
        with pytest.raises(ValueError):
            s.ops[0][0, 0] = 0.9
        dd = defect(s)
        m[1, 1] = 0.1  # the caller's array stays writable, and is not aliased
        assert s.ops[0][1, 1] == 0.25
        assert defect(s) is dd
        np.testing.assert_allclose(dd.D @ dd.D + s.row.conj().T @ s.row, np.eye(2), atol=1e-12)
        with pytest.raises(ValueError):
            dd.D[0, 0] = 2.0
        with pytest.raises(ValueError):
            dd.space.basis[0, 0] = 2.0

    def test_defects_are_kept_per_rank_tol(self):
        s = random_rc(np.random.default_rng(3), 2, 2)
        # one rank tolerance (numlin.RANK_TOL), so one stored value of each
        assert defect(s) is defect(s)
        assert star_defect(s) is star_defect(s)
        # another instance with the same entries keeps its own store
        assert defect(RowContraction(s.ops)) is not defect(s)

    def test_pseudo_inverse_is_stored_once(self):
        # a rank-one column defect, so the pseudo-inverse is not an inverse
        dd = defect(rc([[S2]], [[S2]]))
        assert dd.rank == 1
        assert dd.pinv is dd.pinv
        np.testing.assert_allclose(dd.pinv @ dd.D @ dd.pinv, dd.pinv, atol=1e-14)
        np.testing.assert_allclose(dd.D @ dd.pinv @ dd.D, dd.D, atol=1e-14)
        with pytest.raises(ValueError):
            dd.pinv[0, 0] = 2.0
