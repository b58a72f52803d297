import dataclasses

import numpy as np
import pytest

from liftchar import charfact
from liftchar.charfact import (
    lifting_char_fn,
    minimal_part,
    resolvent_identity_residual,
    row_char_fn,
    synthesize_lifting,
    verify_factorization,
    verify_minimal_product,
    word_stack,
)
from liftchar.errors import (
    Mismatch,
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
from liftchar.cli import _packaged_scenario, parse_scenario, run_battery
from liftchar.lifting import (
    defect_unitary,
    iterate_liftings,
    lifting_from_blocks,
    make_lifting,
    star_defect_unitary,
)
from liftchar.ncfock import (
    _reversal,
    coeff_diff,
    intertwining_residual,
    pair_products,
    realized_norm,
)
from liftchar.numlin import SubOperator, max_operator_norm, operator_norm, svd_rank
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
    # each test builds its instance after patching, so no symbol cached on it
    # before the patch can answer in place of the faulty engine
    def test_reversed_word_route_is_caught(self, monkeypatch):
        # the word route prepends each letter, at rank (k-1) d^n + idx(w), instead of
        # appending it; the degree recursion is left alone
        monkeypatch.setattr(charfact, "pair_products",
                            lambda t1, t2: pair_products(t1, t2).swapaxes(0, 1))
        it = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        a = it.first.A
        assert operator_norm(a.ops[0] @ a.ops[1] - a.ops[1] @ a.ops[0]) > 1e-3
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


class TestWordStack:
    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_is_the_explicit_products(self, d):
        a = random_row_contraction(np.random.default_rng([5, d]), d, 3)
        stack, resid = word_stack(a, 5)
        words = all_words(d, 4)
        assert stack.shape == (len(words), 3, 3) and resid <= 1e-15
        for i, w in enumerate(words):
            want = np.eye(3)
            for letter in w:
                want = want @ a.ops[letter - 1].conj().T
            assert np.abs(stack[i] - want).max() <= 1e-15

    def test_zero_dimensional_state(self):
        a = RowContraction((np.zeros((0, 0)), np.zeros((0, 0))))
        stack, resid = word_stack(a, 3)
        assert stack.shape == (7, 0, 0) and resid == 0.0

    def test_battery_builds_one_stack_per_row_contraction(self, monkeypatch):
        # the ten engine calls of TestMemo run over four row contractions: A, A', A-hat, A-tilde
        seen = []
        stack = charfact.word_stack

        def recording(a, n_deg):
            seen.append((a, stack(a, n_deg)))
            return seen[-1][1]

        monkeypatch.setattr(charfact, "word_stack", recording)
        it = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        run_battery(it.first, it, 4, 1e-8, "all")
        assert len(seen) == 10
        owners = {id(a) for a, _ in seen}
        assert len(owners) == len({id(r[0]) for _, r in seen}) == 4
        assert {id(it.first.A), id(it.second.A), id(it.a_hat)} < owners

    @pytest.mark.parametrize("i", range(5))
    def test_reversed_assembly_fails_the_identities(self, monkeypatch, i):
        # the engine's cross-check covers the word stack, not the assembly from it:
        # an assembly that reverses each degree's words must fail the identity lines
        engine = charfact.transfer_coeffs

        def reversed_rows(D, C, B, a, n, **kw):
            coeffs, resid = engine(D, C, B, a, n, **kw)
            return tuple(t[_reversal(B.shape[0], p)] for p, t in enumerate(coeffs)), resid

        monkeypatch.setattr(charfact, "transfer_coeffs", reversed_rows)
        it = random_iterated_lifting(np.random.default_rng([12, i]), 2, (1, 2, 1))
        failed = {c.name for c in run_battery(it.first, it, 4, 1e-8, "all") if not c.passed}
        assert any(name.startswith("charfn-norm") for name in failed)
        assert {"factorization", "minimal-product"} <= failed


def _kernel_residual_by_projector(lift, fn):
    """The kernel check as it was computed before: ||T_w (I - Q_E Q_E*)|| over all words."""
    q_e = lift.dE.space.basis
    p_ker = np.eye(q_e.shape[0]) - q_e @ q_e.conj().T
    return max(max_operator_norm(t @ p_ker) for t in fn.comp.graded)


def _worked_example_liftings():
    out = []
    for it in (example1_iterated(), example2_iterated()):
        mp = minimal_part(it.first, it.second)
        out += [it.first, it.second, it.as_c_lifting, mp.tilde_lifting]
    return out


class TestKernelCheck:
    def test_kernel_basis_agrees_with_projector(self):
        # the worked examples include rank-deficient column defects (example2's E')
        lifts = _worked_example_liftings()
        assert any(lift.dE.rank < lift.d * lift.E.dim for lift in lifts)
        for lift in lifts:
            fn = lifting_char_fn(lift, 3)
            old = _kernel_residual_by_projector(lift, fn)
            assert fn.kernel_residual <= 1e-15 and old <= 1e-15
            assert abs(fn.kernel_residual - old) <= 1e-15

    def test_full_rank_defect_reads_exactly_zero(self):
        lift = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1)).first
        assert lift.dE.rank == lift.d * lift.E.dim
        assert lifting_char_fn(lift, 3).kernel_residual == 0.0

    def test_component_on_kernel_is_caught(self, monkeypatch):
        # example2's E' has a one-dimensional ker D_E
        rank, vh = svd_rank(example2_iterated().second.dE.space.basis.conj().T)
        ker = vh[rank:].conj().T
        assert ker.shape[1] == 1
        engine = charfact.transfer_coeffs

        def leaking(D, C, B, X, n, **kw):
            coeffs, resid = engine(D, C, B, X, n, **kw)
            # add a vacuum component x -> 1e-6 <x, k> (1, ..., 1) along ker D_E
            t0 = coeffs[0] + 1e-6 * np.outer(np.ones(coeffs[0].shape[1]), ker[:, 0].conj())
            return (t0, *coeffs[1:]), resid

        monkeypatch.setattr(charfact, "transfer_coeffs", leaking)
        with pytest.raises(ResidualTooLarge, match="ker D_E"):
            lifting_char_fn(example2_iterated().second, 3)
        lift = example2_iterated().second  # fresh: nothing cached on it
        monkeypatch.setattr(charfact, "KERNEL_TOL", 1.0)
        fn = lifting_char_fn(lift, 3)
        old = _kernel_residual_by_projector(lift, fn)
        assert 0.5e-6 < fn.kernel_residual == pytest.approx(old, rel=1e-12)


class TestMemo:
    def test_battery_computes_each_symbol_once(self, monkeypatch):
        # seven characteristic functions and three resolvent left sides are distinct;
        # without sharing, the four check groups made 17 engine calls
        calls = []
        engine = charfact.transfer_coeffs

        def counting(*args, **kw):
            calls.append(kw.get("certify"))
            return engine(*args, **kw)

        monkeypatch.setattr(charfact, "transfer_coeffs", counting)
        it = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        checks = run_battery(it.first, it, 4, 1e-8, "all")
        assert all(c.passed for c in checks)
        assert len(calls) == 10
        assert calls.count("unitary") == 3       # M_A, M_A', M_Ahat
        assert calls.count("contractive") == 4   # M_CE, M_EE', M_CE', M_CEtilde
        assert calls.count(None) == 3            # resolvent left sides

    def test_repeat_returns_the_stored_object(self):
        it = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        a, lift = it.first.A, it.first
        assert row_char_fn(a, 3) is row_char_fn(a, 3)
        assert row_char_fn(a, 4) is not row_char_fn(a, 3)
        assert row_char_fn(a, 4).op.basis.N == 4
        fn = lifting_char_fn(lift, 3)
        assert lifting_char_fn(lift, 3) is fn
        assert lifting_char_fn(lift, 2) is not fn
        assert defect_unitary(lift) is defect_unitary(lift)
        assert star_defect_unitary(lift) is star_defect_unitary(lift)
        # the lifting's defects are those of its row contractions
        assert lift.dA is defect(a) and lift.dstarA is star_defect(a)
        assert it.ahat_lifting is it.ahat_lifting
        assert it.ahat_lifting.E is it.a_hat

    def test_derived_liftings_share_their_objects(self):
        # A-hat and E' over C are each one object, so their defects
        # are decomposed once
        it = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        assert it.as_c_lifting.E is it.second.E
        assert it.ahat_lifting.E is it.a_hat
        assert it.delta is it.ahat_lifting.gamma
        assert it.gamma_hat is it.as_c_lifting.gamma
        assert it.as_c_lifting.A is it.a_hat

    def test_factorization_reports_the_judged_sigma(self):
        # example2's tolerance (1e-10) is not the one sigma is built under, yet
        # the factorization records the very unitary the sigma lines judged
        scen = parse_scenario(_packaged_scenario("example2.json"))
        assert scen.tolerance == 1e-10
        reports = []
        run_battery(scen.first, scen.iterated, scen.degree, scen.tolerance, "all", reports)
        rep = next(r for r in reports if r.name == "factorization")
        assert rep.factors["sigma_Eprime"] is defect_unitary(scen.iterated.as_c_lifting).op.matrix

    def test_equal_objects_do_not_share(self):
        # the store belongs to the instance, not to equal values
        make = lambda: random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        assert row_char_fn(make().first.A, 3) is not row_char_fn(make().first.A, 3)

    @pytest.mark.parametrize("source", ["example2", "generated"])
    def test_one_battery_equals_cold_group_runs(self, source):
        def fresh():
            if source == "example2":
                scen = parse_scenario(_packaged_scenario("example2.json"))
                return scen.first, scen.iterated, scen.degree, scen.tolerance
            it = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
            return it.first, it, 4, 1e-8

        lines = lambda checks: [(c.name, c.residual, c.tol) for c in checks]
        together = lines(run_battery(*fresh(), "all"))
        apart = []
        for group in ("sigmas", "resolvent", "factorization", "minimal"):
            apart += lines(run_battery(*fresh(), group))
        assert sorted(together) == sorted(apart)
        assert len(together) == len(apart) > 30


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

    def test_projection_leak_fails_its_own_line(self, monkeypatch):
        # delta = 1, so D_delta = 0 and the whole third block of the composite
        # is leak; perturbing the Julia-Halmos matrix puts 1e-3 there, which
        # the projection then removes from both sides of the identity
        first = lifting_from_blocks(rc([[0.5]]), rc([[0.0]]), [np.array([[0.5]])])
        second = lifting_from_blocks(first.E, rc([[0.0]]), [np.array([[0.0, 1.0]])])
        it = iterate_liftings(first, second)
        assert abs(it.delta.matrix[0, 0] - 1.0) < 1e-12
        julia_halmos = charfact.julia_halmos

        def perturbed(op):
            jh = julia_halmos(op)
            j = jh.J.copy()
            j[-1, :] += 1e-3
            return dataclasses.replace(jh, J=j)

        monkeypatch.setattr(charfact, "julia_halmos", perturbed)
        checks = {c.name: c for c in run_battery(first, it, 3, 1e-8, "factorization")}
        leak = checks["factorization-leak"]
        assert leak.residual == pytest.approx(1e-3, rel=1e-9)
        assert not leak.passed
        assert [name for name, c in checks.items() if not c.passed] == ["factorization-leak"]
        for name in ("factorization", "factorization[HC_columns]",
                     "factorization[HAhat_columns]"):
            assert checks[name].residual < 1e-14

    def test_assembled_symbol_matches_display(self):
        rhs = verify_factorization(example1_iterated(), 2).rhs
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
        rhs = verify_factorization(it, 4).rhs
        assert coeff_diff(lhs, rhs) < 1e-10

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
        np.testing.assert_allclose(mp.tilde_lifting.E.ops[0], [[0, 0], [1, 0]], atol=1e-12)
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

    def test_second_lifting_of_another_e_is_refused(self):
        # the two liftings of C by A have defect spaces of one dimension but
        # different bases, so only the basis comparison can tell them apart
        rng = np.random.default_rng(3)
        c, a = random_row_contraction(rng, 2, 1), random_row_contraction(rng, 2, 1)
        first, other = random_lifting(rng, c, a), random_lifting(rng, c, a)
        second = random_lifting(rng, other.E, random_row_contraction(rng, 2, 1))
        assert first.dE.rank == other.dE.rank
        with pytest.raises(Mismatch, match="does not lift the first one's E"):
            verify_minimal_product(first, second, 3)

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
        assert rep.passed
        np.testing.assert_allclose(rep.symbol.coeff(()), [[S3, 0, 0]], atol=1e-12)
        np.testing.assert_allclose(rep.symbol.coeff((1,)), [[0, S3, S3]], atol=1e-12)

    def test_swap_data_block_diagonal(self):
        # an off-diagonal unitary puts rank-deficient corner blocks in the
        # inner factored operator, which is then not purely contractive
        c, z1 = rc([[0.5]]), rc([[0.0]])
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotPurelyContractive):
            synthesize_lifting(c, z1, z1, np.zeros((1, 2)), u, 3, 1e-10)

    def test_rejects_expansive_lam(self):
        c, z1 = rc([[0.5]]), rc([[0.0]])
        with pytest.raises(NotContraction):
            synthesize_lifting(c, z1, z1, np.array([[0.9, 0.9]]), np.eye(2), 2, 1e-8)

    def test_rejects_lam_just_above_norm_one(self):
        # 1 + 8e-11 is below the old 1 + 1e-10 slack, but its defect is not PSD
        c, z1 = rc([[0.5]]), rc([[0.0]])
        with pytest.raises(NotContraction, match="norm 1.000000000080"):
            synthesize_lifting(c, z1, z1, np.array([[1 + 8e-11, 0.0]]), np.eye(2), 2, 1e-8)

    def test_tolerance_below_rounding_reports_failure(self):
        # the tolerance judges the symbol residual only; the u, u1/u2 and
        # leak gates build under BUILD_TOL
        data = random_synthesis_data(np.random.default_rng([11, 0]), 2, (1, 1, 1))
        _, rep = synthesize_lifting(*data, 4, tol=1e-18)
        assert rep.passed is False and rep.residual > 1e-18

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            dims = tuple(int(rng.integers(1, 3)) for _ in range(3))
            data = random_synthesis_data(rng, d, dims)
            _, rep = synthesize_lifting(*data, 4, 1e-8)
            assert rep.passed


def test_constants_fold_before_products(monkeypatch):
    # a product of two constants is one matmul, never a `product` call
    product = charfact.product
    degrees = []

    def recording(m1, m2):
        degrees.append((len(m1.graded), len(m2.graded)))
        return product(m1, m2)

    monkeypatch.setattr(charfact, "product", recording)
    it = random_iterated_lifting(np.random.default_rng(4), 2, (2, 2, 2))
    run_battery(it.first, it, 4, 1e-8, "all")
    _, rep = synthesize_lifting(*random_synthesis_data(np.random.default_rng(11), 2, (1, 1, 1)),
                                4, 1e-8)
    assert rep.passed and degrees
    assert (1, 1) not in degrees
