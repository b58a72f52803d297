import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from liftchar import charfact
from liftchar.charfact import (
    CROSSCHECK_TOL,
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
)
from liftchar.gen import (
    random_iterated_lifting,
    random_lifting,
    random_row_contraction,
    random_synthesis_data,
)
from liftchar.cli import _packaged_scenario, main, mat_to_json, parse_scenario, run_battery
from liftchar.lifting import (
    defect_unitary,
    iterate_liftings,
    lifting_from_blocks,
    make_lifting,
    star_defect_unitary,
)
from liftchar.ncfock import (
    MultiAnalyticOp,
    TransferOp,
    _reversal,
    block_diag_op,
    coeff_diff,
    const_op,
    fock_basis,
    identity_op,
    intertwining_residual,
    pair_products,
    product,
    realized_norm,
)
from liftchar.numlin import (
    DefectData,
    SubOperator,
    Subspace,
    max_operator_norm,
    operator_norm,
    svd_rank,
)
from liftchar.rowcon import RowContraction, defect, star_defect

S2 = 1 / np.sqrt(2)
S3 = 1 / np.sqrt(3)


def rc(*mats):
    return RowContraction(tuple(np.asarray(m, dtype=complex) for m in mats))


def written(form):
    """Every coefficient row of a symbol in colligation form, as one array."""
    return form.rows(0, len(form.basis))


def composed(fn, dfct):
    """fn's symbol composed with its domain's defect operator D, on the ambient
    space: the coefficients op Q* D, Q the range basis of D."""
    op = fn.op
    return MultiAnalyticOp(op.basis, Subspace.full(dfct.D.shape[1]), op.cod,
                           op.flat @ (dfct.space.basis.conj().T @ dfct.D))


def ambient_symbol(fn):
    """fn's coefficients as ambient-space matrices (zero off the defect spaces)."""
    op = fn.op
    return {w: op.cod.basis @ c @ op.dom.basis.conj().T for w, c in op.coeffs.items()}


def scenario_file(tmp_path, it, degree=3):
    """`it` as a two-level scenario file, each level given by its B blocks."""
    first, second = it.first, it.second
    doc = {"schema": 1, "d": first.d, "degree": degree,
           **{key: [mat_to_json(m) for m in ops] for key, ops in (
               ("C", first.C.ops), ("A", first.A.ops), ("B", first.B),
               ("Aprime", second.A.ops), ("Bprime", second.B))}}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    return str(path)


def verify_failures(capsys, path):
    """`liftchar verify` on a scenario file: its exit code and the names of the
    lines that read FAIL.  An `error:` line fails the test."""
    code = main(["verify", path])
    out, err = capsys.readouterr()
    assert "error:" not in err
    return code, {ln.split()[0] for ln in out.splitlines() if ln.endswith("  FAIL")}


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
        sym = ambient_symbol(fce)
        np.testing.assert_allclose(sym[()], [[S2, 0]], atol=1e-12)
        np.testing.assert_allclose(sym[(1,)], [[0, S2]], atol=1e-12)

    def test_two_row_symbol(self):
        it = example2_iterated()
        feep = lifting_char_fn(it.second, 2)
        sym = ambient_symbol(feep)
        np.testing.assert_allclose(sym[()], [[0, 0, 0], [0, 1, 0]], atol=1e-12)
        np.testing.assert_allclose(sym[(1,)], [[0, 0, 1], [0, 0, 0]], atol=1e-12)

    def test_decoupled_symbol_is_defect_projection(self):
        c, a = rc([[0.5]]), rc([[1 / 3]])
        gamma = SubOperator(star_defect(a).space, defect(c).space, np.zeros((1, 1)))
        lift = make_lifting(c, a, gamma)
        fn = lifting_char_fn(lift, 3)
        sym = ambient_symbol(fn)
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
        fn_comp, base_comp = composed(fn, lift.dE), composed(base, defect(a))
        idx_c, idx_a = np.split(lift.shuffle, [lift.d * lift.C.dim])  # H_C^d and H_A^d columns
        for w in set(fn_comp.coeffs) | set(base_comp.coeffs):
            lhs = fn_comp.coeff(w)[:, idx_a]
            rhs = q_ch @ g_amb @ q_sa @ base_comp.coeff(w)
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
    # each faulty engine is judged by report lines: `verify` exits 1 with the
    # named lines failing, and prints no error.  Every instance is built after
    # patching, so no symbol cached on it before the patch can answer in place
    # of the faulty engine.
    def test_reversed_word_route_is_caught(self, monkeypatch, capsys, tmp_path):
        # the append route of the word stack prepends each letter, at rank
        # (k-1) d^n + idx(w), instead of appending it; the prepend route and
        # the assembly from the stack are left alone
        stack = charfact.word_stack

        def reversed_route(a, n_deg):
            with monkeypatch.context() as m:
                m.setattr(charfact, "pair_products",
                          lambda t1, t2: pair_products(t1, t2).swapaxes(0, 1))
                return stack(a, n_deg)

        monkeypatch.setattr(charfact, "word_stack", reversed_route)
        make = lambda: random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        it = make()
        a = it.first.A
        assert operator_norm(a.ops[0] @ a.ops[1] - a.ops[1] @ a.ops[0]) > 1e-3
        assert row_char_fn(a, 3).crosscheck_residual > CROSSCHECK_TOL
        assert lifting_char_fn(it.first, 3).crosscheck_residual > CROSSCHECK_TOL
        code, failed = verify_failures(capsys, scenario_file(tmp_path, make()))
        assert code == 1
        assert {"charfn-crosscheck[M_A]", "charfn-crosscheck[M_CE]", "resolvent-crosscheck",
                "factorization-crosscheck", "minimal-crosscheck"} <= failed

    def test_scaled_colligation_fails_certificate(self, monkeypatch, capsys, tmp_path):
        # both routes see the same faulty C, so only the certificate can object:
        # the Julia-Halmos colligation is not unitary, the lifting's not contractive
        engine = charfact.transfer_coeffs
        monkeypatch.setattr(charfact, "transfer_coeffs",
                            lambda D, C, B, X, n, **kw: engine(D, 1.01 * C, B, X, n, **kw))
        make = lambda: random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
        it = make()
        assert word_stack(it.first.A, 3)[1] <= CROSSCHECK_TOL
        assert row_char_fn(it.first.A, 3).crosscheck_residual > CROSSCHECK_TOL
        assert lifting_char_fn(it.first, 3).crosscheck_residual > CROSSCHECK_TOL
        code, failed = verify_failures(capsys, scenario_file(tmp_path, make()))
        assert code == 1
        assert {"charfn-crosscheck[M_A]", "charfn-crosscheck[M_CE]"} <= failed


class TestWordStack:
    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_is_the_explicit_products(self, d):
        a = random_row_contraction(np.random.default_rng([5, d]), d, 3)
        stack, resid = word_stack(a, 5)
        words = [w for n in range(5) for w in itertools.product(range(1, d + 1), repeat=n)]
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
        # an assembly that reverses each degree's words must fail the identity lines.
        # The symbols are written only by their colligation form's writer, so
        # the fault is planted there: every run of rows it writes, in either
        # layout, is read from the symbol with each degree's words reversed
        engine = charfact.transfer_coeffs

        class ReversedRows(TransferOp):
            def rows(self, start, stop, *, wide=False):
                off, d = self.basis.offsets, self.basis.d
                coeffs = super().rows(0, len(self.basis))
                out = coeffs[np.concatenate([off[p] + _reversal(d, p)
                                             for p in range(self.basis.N + 1)])][start:stop]
                return np.ascontiguousarray(out.swapaxes(0, 1)) if wide else out

        def reversed_rows(D, C, B, a, n, **kw):
            form, resid = engine(D, C, B, a, n, **kw)
            return ReversedRows(form.basis, form.D, form.cx, form.B), resid

        monkeypatch.setattr(charfact, "transfer_coeffs", reversed_rows)
        it = random_iterated_lifting(np.random.default_rng([12, i]), 2, (1, 2, 1))
        failed = {c.name for c in run_battery(it.first, it, 4, 1e-8, "all") if not c.passed}
        assert any(name.startswith("charfn-norm") for name in failed)
        assert {"factorization", "minimal-product"} <= failed


def _kernel_residual_by_projector(lift, n_deg):
    """The kernel check as it was computed before: ||T_w (I - Q_E Q_E*)|| over all
    words of the engine's own output, the symbol composed with D_E."""
    q_e = lift.dE.space.basis
    p_ker = np.eye(q_e.shape[0]) - q_e @ q_e.conj().T
    form, _ = charfact.transfer_coeffs(*charfact._lifting_colligation(lift), lift.A, n_deg)
    return max_operator_norm(written(form) @ p_ker)


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
            old = _kernel_residual_by_projector(lift, 3)
            assert fn.kernel_residual <= 1e-15 and old <= 1e-15
            assert abs(fn.kernel_residual - old) <= 1e-15

    def test_full_rank_defect_reads_exactly_zero(self):
        lift = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1)).first
        assert lift.dE.rank == lift.d * lift.E.dim
        assert lifting_char_fn(lift, 3).kernel_residual == 0.0

    def test_component_on_kernel_is_caught(self, monkeypatch, capsys):
        # example2's E' has a one-dimensional ker D_E; the symbols over E' (of E'
        # over E and over C) gain a component along it, which only the kernel
        # residual sees, and both identities fold it into their residuals
        scen = _packaged_scenario("example2.json")
        rank, vh = svd_rank(parse_scenario(scen).second.dE.space.basis.conj().T)
        ker = vh[rank:].conj().T
        assert ker.shape[1] == 1
        engine = charfact.transfer_coeffs

        def leaking(D, C, B, X, n, **kw):
            if D.shape[1] == ker.shape[0]:
                # add a vacuum component x -> 1e-6 <x, k> (1, ..., 1) along ker D_E
                D = D + 1e-6 * np.outer(np.ones(D.shape[0]), ker[:, 0].conj())
            return engine(D, C, B, X, n, **kw)

        monkeypatch.setattr(charfact, "transfer_coeffs", leaking)
        code, failed = verify_failures(capsys, scen)
        assert code == 1
        assert {"factorization", "minimal-product"} <= failed
        lift = example2_iterated().second
        fn = lifting_char_fn(lift, 3)
        old = _kernel_residual_by_projector(lift, 3)
        assert 0.5e-6 < fn.kernel_residual == pytest.approx(old, rel=1e-12)


def _recorded_engine_calls(monkeypatch):
    """Patch the engine to record, for each call, its left and right factors,
    its output and the output of the same call with no basis change."""
    calls = []
    engine = charfact.transfer_coeffs

    def recording(D, C, B, a, n_deg, **kw):
        out = engine(D, C, B, a, n_deg, **kw)
        calls.append((kw.get("left"), kw.get("right"), written(out[0]),
                      written(engine(D, C, B, a, n_deg)[0])))
        return out

    monkeypatch.setattr(charfact, "transfer_coeffs", recording)
    return calls


def assert_folded(call, left, right):
    """The call's factors are exactly left and right, and its output is left T right."""
    got_left, got_right, folded, t = call
    for got, want in ((got_left, left), (got_right, right)):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got, want)
    want = t if left is None else np.einsum("ij,njk->nik", left, t)
    want = want if right is None else np.einsum("nij,jk->nik", want, right)
    assert folded.shape == want.shape
    assert np.abs(folded - want).max(initial=0.0) <= 1e-14


def _per_row_reference(D, C, B, a, n_deg, left=None, right=None):
    """The engine's output as one matmul per letter and per row of C, each
    over all words."""
    if left is not None:
        D, C = left @ D, left @ C
    if right is not None:
        D, B = D @ right, B @ right
    if n_deg == 0:
        return D[None]
    words, _ = word_stack(a, n_deg)
    (d, s, m), c, n_w = B.shape, C.shape[0], len(words)
    cx = (C @ words.transpose(1, 0, 2).reshape(s, n_w * s)).reshape(c, n_w, s)
    out = np.empty((1 + n_w * d, c, m), dtype=np.complex128)
    out[0] = D
    slots = out[1:].reshape(n_w, d, c, m)
    for k in range(d):
        for i in range(c):
            np.matmul(cx[i], B[k], out=slots[:, k, i])
    return out


class TestFoldedBases:
    # the engine applies the basis changes to D, C and B, where its certificate
    # does not see them, so each output is checked against left T right, T the
    # engine's output for the same colligation with no basis change
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_row_char_fn(self, monkeypatch, n):
        calls = _recorded_engine_calls(monkeypatch)
        for a in (random_row_contraction(np.random.default_rng([9, n]), 2, 3),
                  example2_iterated().second.A):
            fn = row_char_fn(a, n)
            q_sa, q_a = star_defect(a).space.basis, defect(a).space.basis
            assert_folded(calls[-1], q_sa.conj().T, q_a)
            np.testing.assert_array_equal(fn.op.flat, calls[-1][2])

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_lifting_char_fn_and_its_kernel_residual(self, monkeypatch, n):
        # one engine run per symbol, with or without ker D_E: the right factor
        # is pinv(D_E) Q_E followed by a basis K of ker D_E (no columns when
        # D_E is injective); the symbol is the leading rank columns, and the
        # kernel residual is the largest ||T_w K||
        calls = _recorded_engine_calls(monkeypatch)
        lifts = [random_iterated_lifting(np.random.default_rng([9, n]), 2, (1, 2, 1)).second,
                 example2_iterated().second]
        assert lifts[0].dE.rank == lifts[0].dE.space.ambient_dim
        assert lifts[1].dE.rank < lifts[1].dE.space.ambient_dim
        for lift in lifts:
            first = len(calls)
            fn = lifting_char_fn(lift, n)
            de = lift.dE
            ker = de.space.complement().basis
            assert len(calls) == first + 1
            assert_folded(calls[first], None, np.hstack([de.pinv @ de.space.basis, ker]))
            np.testing.assert_array_equal(fn.op.flat, calls[first][2][..., :de.rank])
            assert abs(fn.kernel_residual - max_operator_norm(calls[first][3] @ ker)) <= 1e-14
            if de.rank == de.space.ambient_dim:
                assert fn.kernel_residual == 0.0

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_resolvent_left_side(self, monkeypatch, n):
        calls = _recorded_engine_calls(monkeypatch)
        a = random_row_contraction(np.random.default_rng([9, n]), 2, 3)
        resolvent_identity_residual(a, n)
        q = star_defect(a).space.basis
        # the left side, then M_A
        assert len(calls) == 2
        assert_folded(calls[0], q.conj().T, q)
        assert_folded(calls[1], q.conj().T, defect(a).space.basis)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_one_matmul_per_letter_equals_one_per_row(self, monkeypatch, n):
        # the engine's batched call runs one GEMM per row of C, each the call
        # the per-row loop makes, so every symbol is the same bit for bit
        seen = []
        engine = charfact.transfer_coeffs

        def recording(D, C, B, a, n_deg, **kw):
            out = engine(D, C, B, a, n_deg, **kw)
            seen.append((written(out[0]),
                         _per_row_reference(D, C, B, a, n_deg, kw.get("left"), kw.get("right"))))
            return out

        monkeypatch.setattr(charfact, "transfer_coeffs", recording)
        a = random_row_contraction(np.random.default_rng([9, n]), 2, 3)
        row_char_fn(a, n)
        lifting_char_fn(random_iterated_lifting(np.random.default_rng([9, n]), 2, (1, 2, 1)).second, n)
        lifting_char_fn(example2_iterated().second, n)
        resolvent_identity_residual(a, n)
        # M_A, M_CE, example2's M_EE' with its kernel columns, the resolvent left side
        assert len(seen) == 4
        for got, want in seen:
            assert np.array_equal(got, want)

    def test_symbol_is_held_once(self):
        # with the defects and the word stack in place, building M_EE' and
        # writing it whole holds no full-size temporary beside the array that
        # stores it
        lift = random_iterated_lifting(np.random.default_rng(7), 3, (2, 2, 2)).second
        lift.dE.pinv, lift.dC, lift.dA, lift.dstarA, lift.gamma_ambient, lift.shuffle
        word_stack(lift.A, 6)
        tracemalloc.start()
        try:
            fn = lifting_char_fn(lift, 6)
            fn.op
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * fn.op.flat.nbytes


def _scaled_colligation_b(monkeypatch):
    colligation = charfact._lifting_colligation

    def scaled(lift):
        vac, c, b = colligation(lift)
        return vac, c, b * 1.001

    monkeypatch.setattr(charfact, "_lifting_colligation", scaled)


def _row_left_basis_transposed(monkeypatch):
    # only the row symbols are certified unitary: their left factor Q* becomes Q^T
    engine = charfact.transfer_coeffs

    def transposed(*args, **kw):
        if kw.get("certify") == "unitary":
            kw["left"] = kw["left"].conj()
        return engine(*args, **kw)

    monkeypatch.setattr(charfact, "transfer_coeffs", transposed)


def _lifting_symbols_scaled(monkeypatch):
    # only the lifting symbols are certified contractive: each becomes theta (1 + 1e-6),
    # planted in its colligation form (every coefficient is D or C X_w B_k)
    engine = charfact.transfer_coeffs

    def scaled(*args, **kw):
        form, resid = engine(*args, **kw)
        if kw.get("certify") == "contractive":
            form = dataclasses.replace(form, D=form.D * (1 + 1e-6), B=form.B * (1 + 1e-6))
        return form, resid

    monkeypatch.setattr(charfact, "transfer_coeffs", scaled)


FACTORIZATION_LINES = ["factorization", "factorization[HC_columns]", "factorization[HAhat_columns]"]


@pytest.mark.parametrize("mutate, lines", [
    pytest.param(_scaled_colligation_b, [
        "charfn-norm[M_CE]", "charfn-crosscheck[M_CE]",
        "charfn-norm[M_EEprime]", "charfn-crosscheck[M_EEprime]",
        "charfn-norm[M_CEprime]", "charfn-crosscheck[M_CEprime]",
        *FACTORIZATION_LINES, "factorization-crosscheck", "minimal-product", "minimal-crosscheck",
    ], id="colligation-B-times-1.001"),
    pytest.param(_row_left_basis_transposed, [
        "resolvent-identity[A]", "resolvent-identity[Aprime]", "resolvent-identity[Ahat]",
        *FACTORIZATION_LINES,
    ], id="row-symbol-left-basis-transposed"),
    pytest.param(_lifting_symbols_scaled, [
        "charfn-norm[M_CE]", "charfn-norm[M_EEprime]", "charfn-norm[M_CEprime]",
        *FACTORIZATION_LINES, "minimal-product",
    ], id="lifting-symbols-times-1+1e-6"),
])
def test_mutation_fails_exactly_these_lines(monkeypatch, mutate, lines):
    # the lines each fault fails over three d=2 (2,2,2) draws at N=4, in
    # report order: a replacement of the truncated realization or of the
    # lifting symbols' route must keep failing all of them
    mutate(monkeypatch)
    failed, order = set(), []
    for s in range(3):
        it = random_iterated_lifting(np.random.default_rng([13, s]), 2, (2, 2, 2))
        checks = run_battery(it.first, it, 4, 1e-8, "all")
        order = [c.name for c in checks]
        failed |= {c.name for c in checks if not c.passed}
    assert [name for name in order if name in failed] == lines


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

    def test_wrong_degree_two_coefficient_is_caught(self, monkeypatch):
        # M_A with its degree-2 coefficients scaled by 1 + 1e-6: the right
        # side I + M_A A* is then off at degree 2, by 1.6e-7 to 2.5e-7 here.
        # M_A is written only by its colligation form's writer, so the fault
        # is planted there
        row_fn = charfact.row_char_fn

        class DegreeTwoScaled(TransferOp):
            def rows(self, start, stop, *, wide=False):
                out = super().rows(start, stop, wide=wide)
                off = self.basis.offsets
                lo = max(off[2], start) - start
                hi = max(min(off[3], stop) - start, lo)
                view = out[:, lo:hi] if wide else out[lo:hi]
                view *= 1 + 1e-6
                return out

        def scaled(a, n_deg):
            fn = row_fn(a, n_deg)
            f = fn.form
            return dataclasses.replace(fn, form=DegreeTwoScaled(f.basis, f.D, f.cx, f.B))

        monkeypatch.setattr(charfact, "row_char_fn", scaled)
        rng = np.random.default_rng(4)
        for _ in range(10):
            assert resolvent_identity_residual(random_row_contraction(rng, 2, 2), 5) > 1e-7


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
        rhs = charfact._assemble(example1_iterated(), 2)[0]
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
        lhs = composed(lifting_char_fn(it.as_c_lifting, 4), it.as_c_lifting.dE)
        rhs = charfact._assemble(it, 4)[0]
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
        sym = ambient_symbol(lifting_char_fn(mp.tilde_lifting, 2))
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
        q, v = mp.space.basis, np.eye(4)[:, :3]
        assert operator_norm(v - q @ (q.conj().T @ v)) < 1e-9

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


class TestColligationForm:
    @pytest.mark.parametrize("source", ["example2", "generated", "generated_d3"])
    def test_minimal_product_in_colligation_form_matches_the_written_symbols(self, source):
        # example2's E' has a non-injective D_E, whose kernel columns the
        # symbol's form must leave out
        it = {"example2": example2_iterated,
              "generated": lambda: random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1)),
              "generated_d3": lambda: random_iterated_lifting(np.random.default_rng(7), 3, (2, 1, 2)),
              }[source]()
        if source == "example2":
            assert it.second.dE.rank < it.second.dE.space.ambient_dim
        n = 4
        mp = minimal_part(it.first, it.second)
        m_ce, m_eep, m_ct = (lifting_char_fn(x, n) for x in (it.first, it.second, mp.tilde_lifting))
        sig_inv = mp.sigma.op.matrix.conj().T[:, :mp.tilde_lifting.dE.rank]
        got = coeff_diff(m_ct.form, m_ce.form, m_eep.form.then(sig_inv))
        want = coeff_diff(m_ct.op, m_ce.op, m_eep.op, const_op(m_ct.op.basis, sig_inv))
        formed = product(product(m_ce.op, m_eep.op), const_op(m_ct.op.basis, sig_inv))
        scale = max(max_operator_norm(m_ct.op.flat), max_operator_norm(formed.flat))
        assert abs(got - want) <= 1e-14 * (1 + scale)
        # a planted fault reads the same through either form
        fault = dataclasses.replace(m_ct.form, D=m_ct.form.D + 1e-6)
        faulty = MultiAnalyticOp(m_ct.op.basis, m_ct.op.dom, m_ct.op.cod, written(fault))
        got = coeff_diff(fault, m_ce.form, m_eep.form.then(sig_inv))
        want = coeff_diff(faulty, m_ce.op, m_eep.op, const_op(m_ct.op.basis, sig_inv))
        assert got > 1e-7 and abs(got - want) <= 1e-14 * (1 + scale)

    def test_minimal_group_holds_less_than_its_largest_symbol(self):
        # d=3, dims (2,2,2), N=6: the minimal group reads M_CE, M_EE' and the
        # minimal part's symbol through their writers and materializes none.
        # Its traced peak was 2.28 MB (numpy 2.4.6), below the 3.78 MB of
        # M_EE' alone and the 6.93 MB of the three; with the three symbols
        # stored whole and compared as such it was 8.84 MB
        it = random_iterated_lifting(np.random.default_rng([7, 0]), 3, (2, 2, 2))
        tracemalloc.start()
        try:
            checks = run_battery(it.first, it, 6, 1e-8, "minimal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in checks)
        mp = minimal_part(it.first, it.second)
        sizes = [lifting_char_fn(x, 6).op.flat.nbytes
                 for x in (it.first, it.second, mp.tilde_lifting)]
        assert peak < max(sizes) < sum(sizes), f"traced peak {peak / 1e6:.2f} MB, symbols {sizes}"


class TestSynthesize:
    def test_reconstructs_worked_example(self):
        c, z1 = rc([[0.5]]), rc([[0.0]])
        lam = np.array([[S3, S3]])
        ep, rep = synthesize_lifting(c, z1, z1, lam, np.eye(2), 3, 1e-10)
        np.testing.assert_allclose(np.hstack(ep.B), [[0.5], [0.5]], atol=1e-12)
        assert rep.passed
        # the prescribed operator [D_{*lam}, lam] (I (+) (M_A (+) I) u (I (+) M_A'))
        basis, m_z = fock_basis(1, 3), row_char_fn(z1, 3).op
        symbol = product(const_op(basis, np.hstack([DefectData.of(lam.conj().T).D, lam])),
                         block_diag_op(basis, identity_op(basis, 1),
                                       charfact._cascade(basis, m_z, np.eye(2), m_z)))
        np.testing.assert_allclose(symbol.coeff(()), [[S3, 0, 0]], atol=1e-12)
        np.testing.assert_allclose(symbol.coeff((1,)), [[0, S3, S3]], atol=1e-12)
        # the synthesized lifting's own symbol shows the same display
        amb = ambient_symbol(lifting_char_fn(ep, 3))
        np.testing.assert_allclose(amb[()], [[S3, 0, 0]], atol=1e-12)
        np.testing.assert_allclose(amb[(1,)], [[0, S3, S3]], atol=1e-12)

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
        # the tolerance judges the symbol residual only; the u and leak
        # gates build under BUILD_TOL
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
            # the isometry extensions are polar factors: recorded, not gated
            assert max(rep.checks["u1_unitary"], rep.checks["u2_unitary"]) < 1e-14


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
