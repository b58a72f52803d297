import numpy as np
import pytest

from liftchar.errors import IndexOutOfRange, NotPSD
from liftchar.numlin import operator_norm
from liftchar.rowcon import (
    RowContraction,
    all_words,
    column_embed,
    defect,
    is_cnc,
    joint_isometry_residual,
    minimal_isometric_dilation,
    reverse_word,
    star_defect,
    str_to_word,
    word_to_str,
)


def rc(*mats):
    return RowContraction(tuple(np.asarray(m, dtype=complex) for m in mats))


def random_rc(rng, d, dim):
    g = rng.standard_normal((dim, d * dim)) + 1j * rng.standard_normal((dim, d * dim))
    g /= operator_norm(g) + 0.2
    return RowContraction(tuple(g[:, i * dim : (i + 1) * dim] for i in range(d)))


def test_row_contraction_rejects_expansive():
    with pytest.raises(NotPSD):
        rc([[1.5]])


def test_words():
    assert all_words(2, 2) == ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))
    assert reverse_word((1, 2, 2)) == (2, 2, 1)
    assert word_to_str((1, 2), 2) == "12"
    assert str_to_word("", 3) == ()
    assert str_to_word("31", 3) == (3, 1)
    with pytest.raises(IndexOutOfRange):
        str_to_word("4", 3)


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
    def test_ops_are_read_only_views(self):
        m = np.array([[0.5, 0.0], [0.0, 0.25]], dtype=complex)
        s = RowContraction((m,))
        with pytest.raises(ValueError):
            s.ops[0][0, 0] = 0.9
        m[1, 1] = 0.1  # the caller's array stays writable
        assert s.ops[0][1, 1] == 0.1
        dd = defect(s)
        with pytest.raises(ValueError):
            dd.D[0, 0] = 2.0
        with pytest.raises(ValueError):
            dd.space.basis[0, 0] = 2.0

    def test_defects_are_kept_per_rank_tol(self):
        s = random_rc(np.random.default_rng(3), 2, 2)
        assert defect(s) is defect(s)
        assert defect(s, 1e-10) is defect(s)
        assert defect(s, 1e-8) is not defect(s)
        assert star_defect(s) is star_defect(s)
        assert star_defect(s, 1e-8) is not star_defect(s)
        assert defect(s).kind == "column" and star_defect(s).kind == "star"
        # another instance with the same entries keeps its own store
        assert defect(RowContraction(s.ops)) is not defect(s)


def test_column_embed():
    np.testing.assert_array_equal(column_embed(2, 1, [1, 0]), [1, 0, 0, 0])
    np.testing.assert_array_equal(column_embed(2, 2, [0, 1]), [0, 0, 0, 1])
    np.testing.assert_array_equal(column_embed(3, 2, [1]), [0, 1, 0])
    with pytest.raises(IndexOutOfRange):
        column_embed(2, 3, [1.0])


class TestDilation:
    def test_shift(self):
        td = minimal_isometric_dilation(rc([[0.0]]), 2)
        v = td.matrices[0]
        assert v.shape == (4, 4)
        for k in range(3):
            e = np.zeros(4)
            e[k] = 1
            np.testing.assert_allclose(v @ e, np.eye(4)[k + 1], atol=1e-14)
        np.testing.assert_allclose(v @ np.eye(4)[3], 0, atol=1e-14)

    def test_isometry_has_empty_fock_part(self):
        td = minimal_isometric_dilation(rc([[1.0]]), 3)
        assert td.matrices[0].shape == (1, 1)
        np.testing.assert_allclose(td.matrices[0], [[1.0]])

    def test_columns_isometric_below_truncation(self):
        td = minimal_isometric_dilation(rc([[0.5]]), 3)
        v = td.matrices[0]
        # H + degrees < 3 is 1 + 3 coordinates of the 5-dim truncated space
        sub = 4
        for k in range(sub):
            assert abs(np.linalg.norm(v[:, k]) - 1) < 1e-12
        assert joint_isometry_residual(list(td.matrices), sub) < 1e-12

    def test_joint_isometry_multiletter(self):
        rng = np.random.default_rng(2)
        s = random_rc(rng, 2, 2)
        td = minimal_isometric_dilation(s, 2)
        k = td.defect_data.rank
        sub = s.dim + (1 + 2) * k  # H plus degrees < 2
        assert joint_isometry_residual(list(td.matrices), sub) < 1e-10


class TestCnc:
    def test_zero_is_cnc(self):
        ok, wit = is_cnc(rc([[0.0]], [[0.0]]))
        assert ok and wit.dim == 0

    def test_coisometry_is_not(self):
        ok, wit = is_cnc(rc([[1.0]]))
        assert not ok and wit.dim == 1

    def test_block_witness(self):
        # unitary block + strict block: the witness is the unitary part
        th = 0.7
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        s = np.zeros((3, 3), dtype=complex)
        s[:2, :2] = u
        s[2, 2] = 0.5
        ok, wit = is_cnc(rc(s))
        assert not ok
        assert wit.dim == 2
        assert wit.contains_residual(np.eye(3)[:, :2]) < 1e-8

    def test_kernel_chain_decreasing(self):
        # oracle: iterate Q_n directly and watch the kernel dimensions
        rng = np.random.default_rng(3)
        s = random_rc(rng, 2, 3)
        q = np.eye(3, dtype=complex)
        dims = []
        for _ in range(6):
            q = sum(s.ops[i] @ q @ s.ops[i].conj().T for i in range(2))
            w = np.linalg.eigvalsh(np.eye(3) - (q + q.conj().T) / 2)
            dims.append(int(np.sum(w < 1e-10)))
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        ok, wit = is_cnc(s)
        assert ok and wit.dim == 0
