import numpy as np
import pytest

from liftchar import charfact
from liftchar.charfact import (
    assemble_factorization,
    lifting_char_fn,
    minimal_part,
    resolvent_identity_residual,
    row_char_fn,
    synthesize_lifting,
    verify_factorization,
    verify_minimal_product,
)
from liftchar.errors import (
    NotContraction,
    NotPurelyContractive,
    OracleMismatch,
    ResidualTooLarge,
)
from liftchar.gen import (
    random_iterated_lifting,
    random_lifting,
    random_row_contraction,
    random_synthesis_data,
)
from liftchar.lifting import iterate_liftings, lifting_from_blocks, make_lifting
from liftchar.ncfock import coeff_diff, intertwining_residual, realized_norm
from liftchar.numlin import SubOperator, operator_norm
from liftchar.rowcon import RowContraction, all_words, defect, star_defect

S2 = 1 / np.sqrt(2)
S3 = 1 / np.sqrt(3)


def rc(*mats):
    return RowContraction(tuple(np.asarray(m, dtype=complex) for m in mats))


def example1_iterated():
    first = lifting_from_blocks(rc([[0.5]]), rc([[0.0]]), [np.array([[0.5]])])
    second = lifting_from_blocks(first.E, rc([[0.0]]), [np.array([[0.5, 0.0]])])
    return iterate_liftings(first, second)


def example2_iterated():
    first = lifting_from_blocks(rc([[0.0]]), rc([[0.0]]), [np.array([[S2]])])
    second = lifting_from_blocks(first.E, rc([[0.0]]), [np.array([[S2, 0.0]])])
    return iterate_liftings(first, second)


class TestRowCharFn:
    def test_zero_gives_shift(self):
        fn = row_char_fn(rc([[0.0]]), 3)
        assert set(fn.op.coeffs) == {(1,)}
        np.testing.assert_allclose(fn.op.coeff((1,)), [[1.0]], atol=1e-14)

    def test_isometry_empty_domain(self):
        fn = row_char_fn(rc([[1.0]]), 3)
        assert fn.op.dom.dim == 0
        assert fn.op.coeffs == {}

    def test_scalar_series(self):
        # independent oracle: the scalar geometric series D (a)^{k-1} D
        a_val = 0.5
        d_val = np.sqrt(1 - a_val**2)
        expected = {(): -a_val}
        for k in range(1, 5):
            expected[(1,) * k] = d_val * a_val ** (k - 1) * d_val
        fn = row_char_fn(rc([[a_val]]), 4)
        for w, val in expected.items():
            assert abs(fn.op.coeff(w)[0, 0] - val) < 1e-14
        # frozen values from the closed form
        np.testing.assert_allclose(
            [fn.op.coeff((1,) * k)[0, 0].real for k in (1, 2, 3)],
            [3 / 4, 3 / 8, 3 / 16], atol=1e-14)

    def test_crosscheck_small(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_row_contraction(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            fn = row_char_fn(a, 4)
            assert fn.crosscheck_residual < 1e-12

    def test_contractive_realization(self):
        rng = np.random.default_rng(1)
        a = random_row_contraction(rng, 2, 2)
        fn = row_char_fn(a, 4)
        assert realized_norm(fn.op) <= 1 + 5e-10
        assert intertwining_residual(fn.op) == 0.0


class TestLiftingCharFn:
    def test_one_step_symbols(self):
        it = example2_iterated()
        fce = lifting_char_fn(it.first, 2)
        sym = fce.ambient_symbol()
        np.testing.assert_allclose(sym[()], [[S2, 0]], atol=1e-12)
        np.testing.assert_allclose(sym[(1,)], [[0, S2]], atol=1e-12)

    def test_two_row_symbol(self):
        it = example2_iterated()
        feep = lifting_char_fn(it.second, 2)
        sym = feep.ambient_symbol()
        np.testing.assert_allclose(sym[()], [[0, 0, 0], [0, 1, 0]], atol=1e-12)
        np.testing.assert_allclose(sym[(1,)], [[0, 0, 1], [0, 0, 0]], atol=1e-12)

    def test_decoupled_symbol_is_defect_projection(self):
        c, a = rc([[0.5]]), rc([[1 / 3]])
        gamma = SubOperator(star_defect(a).space, defect(c).space, np.zeros((1, 1)))
        lift = make_lifting(c, a, gamma)
        fn = lifting_char_fn(lift, 3)
        sym = fn.ambient_symbol()
        assert set(sym) == {()}
        # vacuum coefficient: the projection onto the column-defect space of C
        # on the H_C columns, zero on the H_A columns
        np.testing.assert_allclose(sym[()], [[1.0, 0.0]], atol=1e-12)

    def test_row_char_fn_special_case(self):
        # with C = 0 the A-columns of (symbol o D) factor through the
        # characteristic function of A composed with the coupling
        rng = np.random.default_rng(2)
        c = rc(np.zeros((2, 2)))
        a = random_row_contraction(rng, 1, 2)
        lift = random_lifting(rng, c, a)
        fn = lifting_char_fn(lift, 4)
        base = row_char_fn(a, 4)
        g_amb = lift.gamma_ambient
        q_ch = lift.dC.space.basis.conj().T
        q_sa = lift.dstarA.space.basis
        da = lift.dA.D
        idx_c, idx_a = lift.column_split()
        for w in set(fn.comp.coeffs) | set(base.comp.coeffs):
            lhs = fn.comp.coeff(w)[:, idx_a]
            rhs = q_ch @ g_amb @ q_sa @ (base.comp.coeff(w) @ da)
            assert operator_norm(lhs - rhs) < 1e-11

    def test_crosscheck_and_kernel(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            c = random_row_contraction(rng, d, int(rng.integers(1, 3)))
            a = random_row_contraction(rng, d, int(rng.integers(1, 3)))
            fn = lifting_char_fn(random_lifting(rng, c, a), 4)
            assert fn.crosscheck_residual < 1e-12
            assert fn.kernel_residual < 1e-12
            assert realized_norm(fn.op) <= 1 + 5e-10


class TestColligationEngine:
    def test_reversed_word_route_is_caught(self, monkeypatch):
        rng = np.random.default_rng(12)
        it = random_iterated_lifting(rng, 2, (1, 2, 1))
        a = it.first.A
        assert operator_norm(a.ops[0] @ a.ops[1] - a.ops[1] @ a.ops[0]) > 1e-3
        # the word route walks the words reversed; the degree recursion does not
        monkeypatch.setattr(charfact, "all_words",
                            lambda d, n: tuple(w[::-1] for w in all_words(d, n)))
        with pytest.raises(OracleMismatch):
            row_char_fn(a, 3)
        with pytest.raises(OracleMismatch):
            lifting_char_fn(it.first, 3)

    def test_scaled_colligation_fails_certificate(self, monkeypatch):
        # both routes see the same faulty C, so only the certificate can object
        engine = charfact.transfer_coeffs
        monkeypatch.setattr(charfact, "transfer_coeffs",
                            lambda D, C, B, X, n, **kw: engine(D, 1.01 * C, B, X, n, **kw))
        it = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        with pytest.raises(ResidualTooLarge, match="not unitary"):
            row_char_fn(it.first.A, 3)
        with pytest.raises(ResidualTooLarge, match="not contractive"):
            lifting_char_fn(it.first, 3)


class TestResolventIdentity:
    def test_zero(self):
        assert resolvent_identity_residual(rc([[0.0]]), 4) == 0

    def test_scalar(self):
        assert resolvent_identity_residual(rc([[0.5]]), 6) < 1e-10

    def test_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_row_contraction(rng, 2, 2)
            assert resolvent_identity_residual(a, 5) < 1e-8


class TestFactorization:
    def test_worked_example(self):
        rep = verify_factorization(example1_iterated(), 2, 1e-10)
        assert rep.passed
        assert rep.residual < 1e-10
        assert all(v < 1e-10 for v in rep.residual_columns.values())

    def test_assembled_symbol_matches_display(self):
        rhs = assemble_factorization(example1_iterated(), 2)
        np.testing.assert_allclose(rhs.coeff(()), [[1 / (2 * S3 * 3), 0, 0]], atol=1e-12)
        np.testing.assert_allclose(rhs.coeff((1,)), [[0, S3, S3]], atol=1e-12)

    def test_fully_decoupled_passes(self):
        c, a, a2 = rc([[0.5]]), rc([[0.3]]), rc([[0.2]])
        first = lifting_from_blocks(c, a, [np.zeros((1, 1))])
        second = lifting_from_blocks(first.E, a2, [np.zeros((1, 2))])
        rep = verify_factorization(iterate_liftings(first, second), 4, 1e-10)
        assert rep.passed

    def test_decoupled_second_level_at_n4(self):
        rng = np.random.default_rng(5)
        c = random_row_contraction(rng, 1, 2)
        a = random_row_contraction(rng, 1, 2)
        first = random_lifting(rng, c, a)
        a2 = random_row_contraction(rng, 1, 1)
        second = lifting_from_blocks(first.E, a2, [np.zeros((1, 4))])
        it = iterate_liftings(first, second)
        lhs = lifting_char_fn(it.as_c_lifting, 4).comp
        rhs = assemble_factorization(it, 4)
        assert coeff_diff(lhs, rhs, 4) < 1e-10

    def test_scalar_random_at_n5(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            it = random_iterated_lifting(rng, 1, (1, 1, 1))
            rep = verify_factorization(it, 5, 1e-9)
            assert rep.residual < 1e-9

    def test_random_multiletter(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            it = random_iterated_lifting(rng, 2, (2, 1, 2))
            rep = verify_factorization(it, 5, 1e-8)
            assert rep.passed, f"seed {seed}: {rep.residual}"


class TestMinimalPart:
    def test_worked_example(self):
        it = example2_iterated()
        mp = minimal_part(it.first, it.second)
        # the orbit of H_C is spanned by e1 and (0, 1, 1)/sqrt(2)
        expect = np.array([[1, 0], [0, S2], [0, S2]])
        np.testing.assert_allclose(mp.space.basis, expect, atol=1e-12)
        np.testing.assert_allclose(mp.e_tilde.ops[0], [[0, 0], [1, 0]], atol=1e-12)
        np.testing.assert_allclose(mp.tilde_lifting.gamma.matrix, [[1.0]], atol=1e-12)
        # symbol of the minimal part
        sym = lifting_char_fn(mp.tilde_lifting, 2).ambient_symbol()
        np.testing.assert_allclose(sym[(1,)], [[0, 1]], atol=1e-12)
        assert () not in sym
        rep = verify_minimal_product(it.first, it.second, 2, 1e-10)
        assert rep.passed and rep.residual < 1e-10

    def test_splitting_matches_basis_change(self):
        # the inverse of the splitting unitary acts as the recorded basis
        # change; orientation of the complement vector is a phase convention
        it = example2_iterated()
        mp = minimal_part(it.first, it.second)
        p = np.array([[1, 0, 0], [0, S2, -S2], [0, S2, S2]])
        amb = mp.sigma.op.domain.basis @ mp.sigma.op.matrix.conj().T
        np.testing.assert_allclose(amb[:, 0], p[:, 1], atol=1e-12)
        assert abs(abs(amb[:, 1] @ p[:, 2].conj()) - 1) < 1e-12

    def test_trivial_second_level(self):
        rng = np.random.default_rng(8)
        first = random_lifting(rng, random_row_contraction(rng, 1, 1),
                               random_row_contraction(rng, 1, 2))
        if not __import__("liftchar").is_minimal_lifting(first):
            pytest.skip("drew a non-minimal first lifting")
        a2 = rc(np.zeros((0, 0)))
        second = lifting_from_blocks(first.E, a2, [np.zeros((0, 3))])
        mp = minimal_part(first, second)
        assert mp.space.dim == 3
        rep = verify_minimal_product(first, second, 4, 1e-10)
        assert rep.passed

    def test_decoupled_second_level_keeps_orbit_in_he(self):
        rng = np.random.default_rng(9)
        first = random_lifting(rng, random_row_contraction(rng, 1, 1),
                               random_row_contraction(rng, 1, 2))
        assert __import__("liftchar").is_minimal_lifting(first)
        a2 = random_row_contraction(rng, 1, 1)
        second = lifting_from_blocks(first.E, a2, [np.zeros((1, 3))])
        mp = minimal_part(first, second)
        assert mp.space.dim == first.E.dim
        assert mp.space.contains_residual(np.eye(4)[:, :3]) < 1e-9

    def test_random(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            it = random_iterated_lifting(rng, 2, (1, 2, 1))
            rep = verify_minimal_product(it.first, it.second, 5, 1e-8)
            assert rep.passed


class TestSynthesize:
    def test_reconstructs_worked_example(self):
        c, z1 = rc([[0.5]]), rc([[0.0]])
        lam = np.array([[S3, S3]])
        ep, rep = synthesize_lifting(c, z1, z1, lam, np.eye(2), 3, 1e-10)
        np.testing.assert_allclose(np.hstack(ep.B), [[0.5], [0.5]], atol=1e-12)
        assert rep.passed and rep.purely_contractive
        np.testing.assert_allclose(rep.symbol.coeff(()), [[S3, 0, 0]], atol=1e-12)
        np.testing.assert_allclose(rep.symbol.coeff((1,)), [[0, S3, S3]], atol=1e-12)

    def test_swap_data_block_diagonal(self):
        # an off-diagonal unitary with zero lam: couplings with C vanish and
        # the target operator degenerates to the projection onto its C slot
        c, z1 = rc([[0.5]]), rc([[0.0]])
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        ep, rep = synthesize_lifting(c, z1, z1, np.zeros((1, 2)), u, 3, 1e-10,
                                     require_pure=False)
        assert not rep.purely_contractive
        assert rep.passed
        assert operator_norm(np.hstack(ep.B)) < 1e-12
        np.testing.assert_allclose(rep.symbol.coeff(()), [[1, 0, 0]], atol=1e-12)
        with pytest.raises(NotPurelyContractive):
            synthesize_lifting(c, z1, z1, np.zeros((1, 2)), u, 3, 1e-10)

    def test_rejects_expansive_lam(self):
        c, z1 = rc([[0.5]]), rc([[0.0]])
        with pytest.raises(NotContraction):
            synthesize_lifting(c, z1, z1, np.array([[0.9, 0.9]]), np.eye(2), 2, 1e-8)

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            dims = tuple(int(rng.integers(1, 3)) for _ in range(3))
            data = random_synthesis_data(rng, d, dims)
            _, rep = synthesize_lifting(*data, 4, 1e-8)
            assert rep.passed and rep.purely_contractive
