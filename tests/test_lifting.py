import itertools
import logging
import re

import numpy as np
import pytest

from liftchar import lifting
from liftchar.cli import run_battery
from liftchar.errors import DimMismatch, Mismatch, NotContraction, NotPSD
from liftchar.gen import random_iterated_lifting, random_lifting, random_row_contraction
from liftchar.lifting import (
    SPAN_TOL,
    defect_unitary,
    extract_gamma,
    head_orbit,
    is_minimal_lifting,
    iterate_liftings,
    julia_halmos,
    krylov_span,
    lifting_from_blocks,
    make_lifting,
    star_defect_unitary,
)
from liftchar.numlin import (
    DefectData, SubOperator, Subspace, operator_norm, unitarity_residual,
)
from liftchar.rowcon import RowContraction, defect, star_defect

S2 = 1 / np.sqrt(2)
S3 = 1 / np.sqrt(3)


def rc(*mats):
    return RowContraction(tuple(np.asarray(m, dtype=complex) for m in mats))


def scalar_lift(c_val, a_val, b_val):
    return lifting_from_blocks(rc([[c_val]]), rc([[a_val]]), [np.array([[b_val]])])


def word_product(a, w):
    """A_w = A_{w_1} ... A_{w_n} (identity for the empty word)."""
    out = np.eye(a.dim, dtype=complex)
    for c in w:
        out = out @ a.ops[c - 1]
    return out


def null_subspace(m, rank_tol):
    """Null space of m from its SVD, cut at rank_tol * s_max."""
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > rank_tol * s.max(initial=0.0)))
    return Subspace(vh.shape[0], vh[rank:].conj().T)


def is_resolving(gamma, a, tol=1e-8):
    """Reference test that ker contains ker: gamma D_{*,A} A_w* h = 0 for all w
    forces D_{*,A} A_w* h = 0 for all w.

    Stacks observability blocks for word lengths <= L, growing L until the
    kernel of the gamma-composed stack stabilizes (one confirming sweep).
    """
    dsa = star_defect(a)
    if not gamma.domain.same_basis(dsa.space):
        raise DimMismatch("gamma domain must be the star-defect space of a")
    g_amb = gamma.as_ambient()
    prev_dim, level = None, 0
    while True:
        blocks = [dsa.D @ word_product(a, w).conj().T for n in range(level + 1)
                  for w in itertools.product(range(1, a.d + 1), repeat=n)]
        o_stack = np.vstack(blocks)
        ker = null_subspace(np.vstack([g_amb @ blk for blk in blocks]), 1e-12)
        if prev_dim is not None and ker.dim == prev_dim:
            break
        prev_dim = ker.dim
        level += 1
        if level > a.dim + 1:
            break
    return ker.dim == 0 or operator_norm(o_stack @ ker.basis) <= tol


class TestContractionAwayFromTheBoundary:
    """Row tuples and couplings of norm 1 +- 1e-6 are accepted exactly when the
    norm is at most 1."""

    @staticmethod
    def scaled(rng, shape, norm):
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return g * (norm / operator_norm(g))

    @pytest.mark.parametrize("norm", [1 - 1e-6, 1 + 1e-6])
    def test_couplings(self, norm):
        rng = np.random.default_rng(13)
        for _ in range(100):
            k_cod, k_dom = (int(k) for k in rng.integers(1, 5, size=2))
            c, a = rc(np.zeros((k_cod, k_cod))), rc(np.zeros((k_dom, k_dom)))
            m = self.scaled(rng, (k_cod, k_dom), norm)
            try:
                make_lifting(c, a, SubOperator(star_defect(a).space, defect(c).space, m))
                accepted = True
            except NotContraction:
                accepted = False
            assert accepted == (operator_norm(m) <= 1.0)

    @pytest.mark.parametrize("norm", [1 - 1e-6, 1 + 1e-6])
    def test_row_tuples(self, norm):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d, n = (int(k) for k in rng.integers(1, 4, size=2))
            row = self.scaled(rng, (n, d * n), norm)
            try:
                RowContraction(tuple(row[:, i * n : (i + 1) * n] for i in range(d)))
                accepted = True
            except NotPSD:
                accepted = False
            assert accepted == (operator_norm(row) <= 1.0)


class TestMakeExtract:
    def test_half_coupling(self):
        # C = 1/2, A = 0: B = 1/2 corresponds to coupling 1/sqrt(3)
        c, a = rc([[0.5]]), rc([[0.0]])
        gamma, resid = extract_gamma(c, a, [np.array([[0.5]])])
        assert resid < 1e-12
        np.testing.assert_allclose(gamma.matrix, [[S3]], atol=1e-12)
        lift = make_lifting(c, a, gamma)
        np.testing.assert_allclose(np.hstack(lift.E.ops), 0.5 * np.array([[1, 0], [1, 0]]),
                                   atol=1e-12)

    def test_zero_coupling_block_diagonal(self):
        c, a = rc([[0.5]]), rc([[0.3]])
        gamma = SubOperator(star_defect(a).space, defect(c).space, np.zeros((1, 1)))
        lift = make_lifting(c, a, gamma)
        np.testing.assert_allclose(lift.B[0], [[0.0]])
        np.testing.assert_allclose(lift.E.ops[0], np.diag([0.5, 0.3]))

    def test_isometric_coupling(self):
        c, a = rc([[0.0]]), rc([[0.0]])
        gamma = SubOperator(star_defect(a).space, defect(c).space, np.array([[S2]]))
        lift = make_lifting(c, a, gamma)
        np.testing.assert_allclose(np.hstack(lift.E.ops), S2 * np.array([[0, 0], [1, 0]]),
                                   atol=1e-12)

    def test_gamma_hat_from_stacked_coupling(self):
        c = rc([[0.5]])
        a_hat = rc(np.zeros((2, 2)))
        gamma, resid = extract_gamma(c, a_hat, [np.array([[0.5], [0.5]])])
        assert resid < 1e-12
        np.testing.assert_allclose(gamma.as_ambient(), [[S3, S3]], atol=1e-12)

    def test_zero_b(self):
        gamma, resid = extract_gamma(rc([[0.5]]), rc([[0.3]]), [np.zeros((1, 1))])
        assert resid < 1e-14 and operator_norm(gamma.matrix) < 1e-14

    def test_second_level_coupling(self):
        e = rc(S2 * np.array([[0, 0], [1, 0]]))
        a2 = rc([[0.0]])
        gamma, resid = extract_gamma(e, a2, [np.array([[S2, 0.0]])])
        assert resid < 1e-12
        # in ambient terms the coupling hits only the first defect direction
        np.testing.assert_allclose(gamma.as_ambient(), [[1.0], [0.0]], atol=1e-12)

    def test_not_contractive(self):
        c, a = rc([[0.0]]), rc([[0.0]])
        gamma = SubOperator(star_defect(a).space, defect(c).space, np.array([[1.2]]))
        with pytest.raises(NotContraction):
            make_lifting(c, a, gamma)

    @pytest.mark.parametrize("shapes", [((1, 1), (1, 2)), ((1, 1), (2, 1))], ids=["cols", "rows"])
    def test_ragged_blocks_raise_dim_mismatch(self, shapes):
        c, a = rc([[0.5]], [[0.1]]), rc([[0.0]], [[0.0]])
        with pytest.raises(DimMismatch):
            lifting_from_blocks(c, a, [np.zeros(sh) for sh in shapes])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = int(rng.integers(1, 3))
            c = random_row_contraction(rng, d, int(rng.integers(1, 3)))
            a = random_row_contraction(rng, d, int(rng.integers(1, 3)))
            lift = random_lifting(rng, c, a)
            rebuilt = make_lifting(c, a, extract_gamma(c, a, lift.B)[0])
            assert operator_norm(np.hstack(rebuilt.B) - np.hstack(lift.B)) < 1e-10


class TestSigmaUnitaries:
    def test_identity_case(self):
        # lifting of C = 1/2 by the 2x2 zero tuple with B-hat = (1/2, 1/2):
        # the defect unitary acts as the identity on the ambient space
        c = rc([[0.5]])
        a_hat = rc(np.zeros((2, 2)))
        lift = lifting_from_blocks(c, a_hat, [np.array([[0.5], [0.5]])])
        s = defect_unitary(lift)
        np.testing.assert_allclose(s.op.as_ambient(), np.eye(3), atol=1e-12)
        assert s.unitary_residual < 1e-12

    def test_star_identity_case(self):
        a = rc([[0.0]])
        a2 = rc([[0.0]])
        lift = lifting_from_blocks(a, a2, [np.zeros((1, 1))])
        st = star_defect_unitary(lift)
        np.testing.assert_allclose(st.op.as_ambient(), np.eye(2), atol=1e-12)

    def test_decoupled_block_diagonal(self):
        c, a = rc([[0.4]]), rc([[0.6]])
        gamma = SubOperator(star_defect(a).space, defect(c).space, np.zeros((1, 1)))
        lift = make_lifting(c, a, gamma)
        s = defect_unitary(lift)
        target = np.zeros((2, 2), dtype=complex)
        target[0, 0] = lift.dC.D[0, 0]
        target[1, 1] = lift.dA.D[0, 0]
        np.testing.assert_allclose(s.op.as_ambient() @ lift.dE.D, target, atol=1e-12)
        st = star_defect_unitary(lift)
        target2 = np.diag([lift.dstarC.D[0, 0], lift.dstarA.D[0, 0]])
        np.testing.assert_allclose(st.op.as_ambient() @ lift.dstarE.D, target2, atol=1e-12)

    def test_norm_identity_on_random_vectors(self):
        rng = np.random.default_rng(1)
        c = random_row_contraction(rng, 1, 2)
        a = random_row_contraction(rng, 1, 2)
        lift = random_lifting(rng, c, a)
        s = defect_unitary(lift)
        amb = s.op.as_ambient()
        for _ in range(100):
            h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = lift.dE.D @ h
            assert abs(np.linalg.norm(amb @ x) - np.linalg.norm(x)) < 1e-10

    def test_isometry_both_ways(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            d = int(rng.integers(1, 3))
            c = random_row_contraction(rng, d, int(rng.integers(1, 3)))
            a = random_row_contraction(rng, d, int(rng.integers(1, 3)))
            lift = random_lifting(rng, c, a)
            for s in (defect_unitary(lift), star_defect_unitary(lift)):
                m = s.op.matrix
                assert unitarity_residual(m) < 1e-10
                assert s.defining_residual < 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_polar_polishing_near_the_rank_boundary(self, seed):
        # row(A) rescaled to norm 1 - 1e-4: I - AA* has an eigenvalue near 2e-4,
        # so D_E is ill-conditioned; each defect unitary is the polar factor of
        # its target, unitary to rounding however small D_E's least eigenvalue
        rng = np.random.default_rng([7, seed])
        c = random_row_contraction(rng, 2, 2)
        a = random_row_contraction(rng, 2, 2)
        a = RowContraction(tuple(m * (1 - 1e-4) / operator_norm(a.row) for m in a.ops))
        first = random_lifting(rng, c, a)
        second = random_lifting(rng, first.E, random_row_contraction(rng, 2, 2))
        it = iterate_liftings(first, second)
        checks = run_battery(first, it, 3, 1e-8, "all")
        unitary = [ch.residual for ch in checks
                   if re.fullmatch(r"(minimal-)?sigma-(star-)?unitary(\[.*\])?", ch.name)]
        assert len(unitary) == 7  # six battery unitaries and the minimal part's
        assert max(unitary) <= 1e-14
        assert [ch.name for ch in checks if not ch.passed] == []

    @pytest.mark.parametrize("m, cod", [
        (np.diag([0.6, 1.0]), Subspace.full(2)),                 # tall: rank 1 onto rank 2
        (0.6 * np.eye(2), Subspace(2, np.array([[1.0], [0.0]]))),  # wide: rank 2 onto rank 1
    ], ids=["tall", "wide"])
    def test_rank_deficit_reads_infinite_unitary_residual(self, caplog, m, cod):
        # the defining relation holds exactly, but no unitary joins spaces of
        # different dimensions; the report says so, and nothing is logged
        dd = DefectData.of(m)
        target = np.diag([0.8, 0.0])
        with caplog.at_level(logging.DEBUG):
            s = lifting._certified_sigma(target, dd, cod)
        assert s.defining_residual < 1e-15
        assert s.unitary_residual == np.inf
        assert not caplog.records


class TestIterate:
    def test_stacked_structure(self):
        first = scalar_lift(0.5, 0.0, 0.5)
        second = lifting_from_blocks(first.E, rc([[0.0]]), [np.array([[0.5, 0.0]])])
        it = iterate_liftings(first, second)
        np.testing.assert_allclose(np.hstack(it.a_hat.ops), np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(it.as_c_lifting.B[0], [[0.5], [0.5]], atol=1e-14)
        np.testing.assert_allclose(it.gamma_hat.as_ambient(), [[S3, S3]], atol=1e-12)
        cl = it.as_c_lifting
        np.testing.assert_allclose(np.hstack(cl.E.ops), np.hstack(second.E.ops), atol=1e-14)

    def test_decoupled_second_level(self):
        rng = np.random.default_rng(3)
        first = random_lifting(rng, random_row_contraction(rng, 1, 2),
                               random_row_contraction(rng, 1, 2))
        a2 = random_row_contraction(rng, 1, 1)
        second = lifting_from_blocks(first.E, a2, [np.zeros((1, 4))])
        it = iterate_liftings(first, second)
        assert operator_norm(it.delta.matrix) < 1e-12
        # gamma-hat acts like gamma on the A-defect block and kills the A' block
        gh = it.gamma_hat.as_ambient()   # H_A + H_A' -> column defect of C
        g = first.gamma.as_ambient()
        na = first.A.dim
        assert operator_norm(gh[:, :na] - g) < 1e-10
        assert operator_norm(gh[:, na:]) < 1e-10

    def test_mismatch(self):
        first = scalar_lift(0.5, 0.0, 0.5)
        other = scalar_lift(0.4, 0.0, 0.5)
        with pytest.raises(Mismatch):
            iterate_liftings(first, lifting_from_blocks(other.E, rc([[0.0]]),
                                                        [np.array([[0.1, 0.0]])]))


class TestJuliaHalmos:
    def test_zero(self):
        jh = julia_halmos(_scalar_op(0.0))
        np.testing.assert_allclose(jh.J, np.eye(2), atol=1e-14)

    def test_isometry(self):
        jh = julia_halmos(_scalar_op(1.0))
        np.testing.assert_allclose(jh.J, [[0, 1], [-1, 0]], atol=1e-12)

    def test_rotation(self):
        jh = julia_halmos(_scalar_op(S2))
        np.testing.assert_allclose(jh.J, [[S2, S2], [-S2, S2]], atol=1e-12)
        assert jh.residual < 1e-12

    def test_random_unitarity(self):
        rng = np.random.default_rng(4)

        for _ in range(1000):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            g /= operator_norm(g) + 0.1
            jh = julia_halmos(SubOperator(Subspace.full(cols), Subspace.full(rows), g))
            assert jh.residual < 1e-10

    def test_not_contraction(self):
        with pytest.raises(NotContraction):
            julia_halmos(_scalar_op(1.5))


def _scalar_op(v):
    return SubOperator(Subspace.full(1), Subspace.full(1), np.array([[v]]))


class TestResolvingMinimal:
    def test_injective_coupling_resolves(self):
        rng = np.random.default_rng(5)
        a = random_row_contraction(rng, 1, 2)
        dom = star_defect(a).space

        g = rng.standard_normal((2, dom.dim)) + 1j * rng.standard_normal((2, dom.dim))
        g /= operator_norm(g) + 0.1
        gamma = SubOperator(dom, Subspace.full(2), g)
        assert is_resolving(gamma, a)

    def test_zero_coupling_does_not(self):
        a = rc([[0.0]])

        gamma = SubOperator(star_defect(a).space, Subspace.full(1), np.zeros((1, 1)))
        assert not is_resolving(gamma, a)

    def test_scalar_resolving(self):
        a = rc([[0.0]])

        gamma = SubOperator(star_defect(a).space, Subspace.full(1), np.array([[S2]]))
        assert is_resolving(gamma, a)

    def test_minimal_examples(self):
        first = scalar_lift(0.0, 0.0, S2)
        assert is_minimal_lifting(first)
        second = lifting_from_blocks(first.E, rc([[0.0]]), [np.array([[S2, 0.0]])])
        assert is_minimal_lifting(second)
        # E' viewed over C directly is not minimal
        it = iterate_liftings(first, second)
        assert not is_minimal_lifting(it.as_c_lifting)

    def test_zero_b_not_minimal(self):
        c, a = rc([[0.5]]), rc([[0.3]])
        gamma = SubOperator(star_defect(a).space, defect(c).space, np.zeros((1, 1)))
        assert not is_minimal_lifting(make_lifting(c, a, gamma))

    def test_three_dim_span(self):
        first = scalar_lift(0.5, 0.0, 0.5)
        second = lifting_from_blocks(first.E, rc([[0.0]]), [np.array([[0.5, 0.0]])])
        assert is_minimal_lifting(second)

    def test_reduced_equals_minimal(self):
        # with A completely non-coisometric (here ||row(A)|| < 1), minimal <=> the
        # coupling resolves
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            c = random_row_contraction(rng, d, int(rng.integers(1, 3)))
            a = random_row_contraction(rng, d, int(rng.integers(1, 3)))
            lift = random_lifting(rng, c, a)
            assert operator_norm(a.row) < 1
            assert is_minimal_lifting(lift) == is_resolving(lift.gamma, a)


def krylov_levels(mats, seed):
    """Reference for krylov_span: the orbit grown level by level, every matrix
    applied to the vectors the previous level kept, with the same two-pass
    Gram-Schmidt and SPAN_TOL cut."""
    n = mats[0].shape[0] if mats else seed.shape[0]
    basis = []

    def absorb(vec):
        v = vec.astype(np.complex128).copy()
        for _ in range(2):
            for b in basis:
                v -= b * (b.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm <= SPAN_TOL:
            return False
        basis.append(v / nrm)
        return True

    fresh = []
    for j in range(seed.shape[1]):
        if absorb(seed[:, j]):
            fresh.append(basis[-1])
    while fresh and len(basis) < n:
        next_fresh = []
        for v in fresh:
            for m in mats:
                if absorb(m @ v):
                    next_fresh.append(basis[-1])
        fresh = next_fresh
    return np.column_stack(basis) if basis else np.zeros((n, 0), dtype=np.complex128)


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKrylovSpan:
    """krylov_span against the level-by-level reference, bit for bit."""

    def assert_same(self, mats, seed):
        got, want = krylov_span(mats, seed), krylov_levels(mats, seed)
        assert got.shape == want.shape
        assert (got == want).all()
        return got

    def test_random_tuples(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            mats = list(random_row_contraction(rng, d, n).ops)
            self.assert_same(mats, complex_normal(rng, n, int(rng.integers(1, n + 1))))

    def test_invariant_block(self):
        # upper-triangular matrices leave the first k coordinates invariant, so
        # a seed there spans only them
        rng = np.random.default_rng(22)
        for k, n in ((1, 3), (2, 4), (2, 5)):
            mats = [np.triu(complex_normal(rng, n, n)) for _ in range(2)]
            for m in mats:
                m[k:, :k] = 0
            seed = np.zeros((n, 1), dtype=complex)
            seed[:k, 0] = complex_normal(rng, k)
            assert self.assert_same(mats, seed).shape[1] <= k

    def test_rank_deficient_seed(self):
        rng = np.random.default_rng(23)
        v, w = complex_normal(rng, 4), complex_normal(rng, 4)
        seed = np.column_stack([v, 2 * v, w, v - w, np.zeros(4)])
        mats = list(random_row_contraction(rng, 2, 4).ops)
        self.assert_same(mats, seed)
        assert krylov_span([np.zeros((4, 4))], seed).shape[1] == 2

    def test_zero_matrices(self):
        rng = np.random.default_rng(24)
        seed = complex_normal(rng, 5, 3)
        span = self.assert_same([np.zeros((5, 5))] * 3, seed)
        assert span.shape[1] == 3

    def test_seed_spans_everything(self):
        rng = np.random.default_rng(25)
        mats = list(random_row_contraction(rng, 2, 3).ops)
        span = self.assert_same(mats, complex_normal(rng, 3, 3))
        assert span.shape[1] == 3
        assert self.assert_same(mats, np.eye(3)).shape[1] == 3

    def test_head_orbit_starts_with_the_seed_coordinates(self):
        # minimal_part reads the orbit's first k columns as H_C itself
        for s in range(6):
            d = 1 + s % 2
            it = random_iterated_lifting(np.random.default_rng([26, s]), d, (d, 2, 1))
            for e, k in ((it.second.E, it.first.C.dim), (it.first.E, it.first.C.dim),
                         (it.second.E, it.first.E.dim)):
                q = head_orbit(e, k)
                assert (q[:, :k] == np.eye(e.dim)[:, :k]).all()
                seed = np.eye(e.dim, k, dtype=complex)
                assert (q == krylov_levels(list(e.ops), seed)).all()


def test_b_is_a_read_only_view_of_the_stored_row():
    rng = np.random.default_rng(5)
    lift = random_lifting(rng, random_row_contraction(rng, 3, 1), random_row_contraction(rng, 3, 2))
    assert lift.B.shape == (3, 2, 1) and np.shares_memory(lift.B, lift.b_row)
    np.testing.assert_array_equal(np.hstack(list(lift.B)), lift.b_row)
    with pytest.raises(ValueError):
        lift.b_row[0, 0] = 0.0


def test_coupling_arrays_are_read_only():
    b = np.array([[0.5]], dtype=complex)
    lift = lifting_from_blocks(rc([[0.5]]), rc([[0.0]]), [b])
    for arr in (lift.B[0], lift.gamma.matrix, lift.E.ops[0]):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    b[0, 0] = 0.0  # the caller's array stays writable, and is not aliased
    assert lift.B[0][0, 0] == 0.5
    g = np.zeros((1, 1), dtype=complex)
    op = SubOperator(Subspace.full(1), Subspace.full(1), g)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0
    g[0, 0] = 0.5
    assert op.matrix[0, 0] == 0
