"""Characteristic functions of row contractions and of contractive liftings,
and the verifiable operator identities built from them.

Every characteristic function is the transfer function of a colligation with
state space H_A and state operators X_j = A_j*, and one engine
(`transfer_coeffs`) computes all of them.  The word products X_w depend on A
alone: `word_stack` grows them once per row contraction and degree by two
routes, one appending letters and one prepending them, that are
cross-checked; this is the main defense against coefficient-reversal and
ordering bugs, which the conventions here make easy to commit.  Each
function is then one assembly, (C X_w) B_k in two GEMMs, and the engine
certifies its colligation (unitary or contractive), which catches assembly
errors in D, C or B that the word stack cannot see.  An assembly that
misplaces whole words is left to the identity checks.

Degree language replaces the radial limit r -> 1 throughout: an identity
X(r) = Y(r) for all r in [0,1) is asserted as coefficient equality per
word, which is equivalent at a finite truncation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    Mismatch,
    NotPurelyContractive,
    OracleMismatch,
    ResidualTooLarge,
    SubspaceLeak,
    UnitaryExtensionFailure,
    ValidationError,
)
from .lifting import (
    BUILD_TOL,
    Lifting,
    IteratedLifting,
    SigmaUnitary,
    SPAN_TOL,
    _certified_sigma,
    defect_unitary,
    extract_gamma,
    is_minimal_lifting,
    julia_halmos,
    krylov_span,
    lifting_from_blocks,
    make_lifting,
    star_defect_unitary,
)
from .ncfock import (
    DEFAULT_DEGREE,
    MultiAnalyticOp,
    add,
    block_diag_op,
    coeff_diff,
    const_op,
    degree_diffs,
    fock_basis,
    identity_op,
    pair_products,
    product,
)
from .numlin import (
    Subspace,
    SubOperator,
    as_complex,
    block_diag,
    block_shuffle,
    max_operator_norm,
    memo,
    operator_norm,
    pinv,
    psd_root_range,
    readonly,
    require_contraction,
    svd_rank,
    unitarity_residual,
)
from .rowcon import RowContraction, Word, defect, star_defect

log = logging.getLogger(__name__)

CROSSCHECK_TOL = 1e-10
KERNEL_TOL = 1e-8  # bound on a lifting symbol's component along ker D_E
PURE_MARGIN = 1e-8  # least 1 - ||vacuum coefficient|| of a purely contractive synthesis


# ---------------------------------------------------------------------------
# the colligation engine: every characteristic function is a transfer function

def word_stack(a: RowContraction, n_deg: int) -> tuple[np.ndarray, float]:
    """The state-word products X_w = X_{w_1} ... X_{w_n}, X_j = A_j*, of every
    word with |w| < n_deg (n_deg >= 1), stacked in graded lexicographic order
    with X_() = I, and the residual of the two routes that grow them.

    The append route grows P_{n+1}[(w, k)] = P_n[w] X_k at rank idx(w) d + k - 1
    (`pair_products`).  The prepend route grows T_{n+1}[(k, w)] = X_k T_n[w] at
    rank (k-1) d^n + idx(w), by a GEMM of its own.  A disagreement beyond
    CROSSCHECK_TOL raises OracleMismatch: it catches a letter-order fault in
    either.  Every colligation over A shares the stack, so it is computed
    once per row contraction and degree.
    """
    def compute():
        d, s = a.d, a.dim
        x = _adjoints(a)
        x_wide = x.reshape(d * s, s)
        tiers = [np.eye(s, dtype=np.complex128)[None]]
        pre, diffs = tiers[0], []
        for n in range(1, n_deg):
            tiers.append(pair_products(tiers[-1], x).reshape(d**n, s, s))
            pre = (x_wide @ pre.transpose(1, 0, 2).reshape(s, d**(n - 1) * s)).reshape(
                d, s, d**(n - 1), s).transpose(0, 2, 1, 3).reshape(d**n, s, s)
            diffs.append(tiers[-1] - pre)
        resid = max_operator_norm(diffs)
        if resid > CROSSCHECK_TOL:
            raise OracleMismatch(f"word-product routes disagree by {resid:.3e}")
        return readonly(np.concatenate(tiers)), resid
    return memo(a, ("word_stack", n_deg), compute)


def transfer_coeffs(D: np.ndarray, C: np.ndarray, B: np.ndarray, a: RowContraction, n_deg: int,
                    *, certify: str | None = None) -> tuple[tuple[np.ndarray, ...], float]:
    """Degree tensors of the transfer function D + C (I - sum Z_j X_j)^{-1} sum Z_j B_j
    of the colligation M = [[D, C], [B, X]] over A, X_j = A_j*, with B stacked
    per letter in shape (d, s, m).

    Degree n holds, at row idx(a), the stored coefficient of the word
    a = (a_1, ..., a_n): C X_{a_1} ... X_{a_{n-1}} B_{a_n}; degree 0 is D.  The
    products X_w come from `word_stack`, whose two routes are cross-checked;
    degrees 1..n_deg are then (C X_w) B_k at rank idx(w) d + k - 1, two GEMMs.
    `certify` ("unitary" or "contractive") checks M itself, which catches an
    assembly error the cross-check cannot see.  Returns (degree tensors
    0..n_deg, the word stack's cross-check residual).
    """
    d, s, m = B.shape
    if certify is not None:
        col = np.block([[D, C], [B.reshape(d * s, m), _adjoints(a).reshape(d * s, s)]])
        r = unitarity_residual(col) if certify == "unitary" else operator_norm(col) - 1.0
        if r > CROSSCHECK_TOL:
            raise ResidualTooLarge(f"colligation is not {certify} (residual {r:.3e})")
    if n_deg == 0:
        return (D[None],), 0.0
    words, resid = word_stack(a, n_deg)
    c, n_w = C.shape[0], len(words)
    cx = pair_products(C[None], words).reshape(n_w, c, s)
    coeffs = pair_products(cx, B).reshape(n_w * d, c, m)
    off = fock_basis(d, n_deg).offsets  # coeffs starts at degree 1, global index 1
    return (D[None], *(coeffs[off[n] - 1:off[n + 1] - 1] for n in range(1, n_deg + 1))), resid


def _adjoints(a: RowContraction) -> np.ndarray:
    """(A_1*, ..., A_d*) stacked, the state operators X_j of every colligation here."""
    return np.stack([s.conj().T for s in a.ops])


def _sandwich(left: np.ndarray | None, graded, right: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """left @ t @ right for every degree tensor t, a side left out when None:
    one reshaped GEMM per side and degree, and no copy of all degrees at once."""
    out = []
    for t in graded:
        if left is not None:
            t = np.ascontiguousarray(pair_products(left[None], t)[0])
        if right is not None:
            n, r, c = t.shape
            t = (t.reshape(n * r, c) @ right).reshape(n, r, right.shape[1])
        out.append(t)
    return tuple(out)


# ---------------------------------------------------------------------------
# characteristic functions of a row contraction and of a contractive lifting

@dataclass(frozen=True)
class CharFn:
    """A characteristic function as a multi-analytic operator.

    `op` acts between defect-space coordinates; `comp` is the same symbol
    composed with the relevant defect operator, kept on the full ambient
    space (that is the form the factorization identities are stated in).
    """

    op: MultiAnalyticOp
    comp: MultiAnalyticOp
    crosscheck_residual: float
    kernel_residual: float = 0.0

    def ambient_symbol(self) -> dict[Word, np.ndarray]:
        """Coefficients as ambient-space matrices (zero off the defect spaces)."""
        return {w: self.op.ambient_coeff(w) for w in self.op.coeffs}


def row_char_fn(a: RowContraction, n_deg: int = DEFAULT_DEGREE) -> CharFn:
    """Characteristic function of a row contraction on the truncated Fock space.

    The transfer function of the Julia-Halmos colligation of row(A):
    D = -row(A), C = D_{*,A}, B_j = (D_A)_j, X_j = A_j*, certified unitary.
    Computed once per row contraction and degree.
    """
    def compute():
        basis = fock_basis(a.d, n_deg)
        da, dsa = defect(a), star_defect(a)
        n = a.dim
        amb, resid = transfer_coeffs(-a.row, dsa.D, da.D.reshape(a.d, n, a.d * n),
                                     a, n_deg, certify="unitary")
        comp_coeffs = _sandwich(dsa.space.basis.conj().T, amb, None)
        op = MultiAnalyticOp(basis, da.space, dsa.space,
                             _sandwich(None, comp_coeffs, da.space.basis))
        comp = MultiAnalyticOp(basis, Subspace.full(a.d * n), dsa.space, comp_coeffs)
        return CharFn(op, comp, resid)
    return memo(a, ("row_char_fn", n_deg), compute)


def lifting_char_fn(lift: Lifting, n_deg: int = DEFAULT_DEGREE) -> CharFn:
    """Characteristic function of a contractive lifting, domain the column-defect
    space of E, codomain the column-defect space of C.

    The symbol composed with D_E is the transfer function of the contractive
    colligation with X_j = A_j*, C = Q_C* gamma D_{*,A},
    D = Q_C* [D_C - gamma D_{*,A} row(B), -gamma row(A) D_A] and
    B_j = [-A_j* row(B), (D_A^2)_j], columns reordered from H_C^d + H_A^d to
    H_E^d; it is then divided by D_E on its range.  It must vanish on
    ker D_E: the largest ||T_w K|| over the coefficients, K an orthonormal
    basis of that kernel, is the kernel residual (exactly 0, and not
    computed, when D_E is injective) and must not exceed KERNEL_TOL.
    Computed once per lifting and degree.
    """
    def compute():
        basis = fock_basis(lift.d, n_deg)
        a, d = lift.A, lift.d
        dc, da, dsa = lift.dC, lift.dA, lift.dstarA
        q_ch = dc.space.basis.conj().T
        g = q_ch @ lift.gamma_ambient
        inv = np.argsort(lift.shuffle)
        x = _adjoints(a)
        vac = np.hstack([q_ch @ dc.D - g @ dsa.D @ lift.b_row, -g @ a.row @ da.D])[:, inv]
        b = np.concatenate([-x @ lift.b_row, (da.D @ da.D).reshape(d, a.dim, d * a.dim)],
                           axis=2)[:, :, inv]
        comp_coeffs, resid = transfer_coeffs(vac, g @ dsa.D, b, a, n_deg, certify="contractive")

        cols = d * lift.E.dim
        q_e = lift.dE.space.basis
        k_res = 0.0
        if lift.dE.rank < cols:
            _, ker = psd_root_range(np.eye(cols) - q_e @ q_e.conj().T)
            k_res = max_operator_norm(_sandwich(None, comp_coeffs, ker.basis))
        if k_res > KERNEL_TOL:
            raise ResidualTooLarge(
                f"symbol-times-defect does not vanish on ker D_E (residual {k_res:.3e})")

        de_pinv_q = lift.dE.pinv @ q_e
        op = MultiAnalyticOp(basis, lift.dE.space, lift.dC.space,
                             _sandwich(None, comp_coeffs, de_pinv_q))
        comp = MultiAnalyticOp(basis, Subspace.full(cols), lift.dC.space, comp_coeffs)
        return CharFn(op, comp, resid, k_res)
    return memo(lift, ("lifting_char_fn", n_deg), compute)


# ---------------------------------------------------------------------------
# the resolvent identity used by every factorization proof

def resolvent_identity_residual(a: RowContraction, n_deg: int = DEFAULT_DEGREE) -> float:
    """Degree-wise residual of
        D_*A (I - R A*)^{-1} D_*A  =  I  +  M_A A*
    on the star-defect space, with both sides expanded to degree N.  The
    left side is the transfer function with D = D_*A^2, C = D_*A,
    B_j = A_j* D_*A, X_j = A_j*.
    """
    basis = fock_basis(a.d, n_deg)
    dsa = star_defect(a)
    lhs_full, _ = transfer_coeffs(dsa.D @ dsa.D, dsa.D, _adjoints(a) @ dsa.D, a, n_deg)
    q = dsa.space.basis
    lhs = MultiAnalyticOp(basis, dsa.space, dsa.space, _sandwich(q.conj().T, lhs_full, q))

    chf = row_char_fn(a, n_deg)
    da = defect(a)
    a_star = const_op(basis, da.space.coords(a.row.conj().T @ q))
    rhs = add(identity_op(basis, dsa.rank), product(chf.op, a_star))
    return coeff_diff(lhs, rhs)


# ---------------------------------------------------------------------------
# factorization of the characteristic function of a two-step lifting

@dataclass
class FactorizationReport:
    """Outcome of one verified operator identity, with its recorded pieces."""

    name: str
    residual: float
    degree: int
    tolerance: float
    passed: bool
    residual_columns: dict[str, float] = field(default_factory=dict)
    checks: dict[str, float] = field(default_factory=dict)
    factors: dict[str, np.ndarray] = field(default_factory=dict)
    bases: dict[str, np.ndarray] = field(default_factory=dict)
    rhs: MultiAnalyticOp | None = None


def _cascade(basis, m_a: MultiAnalyticOp, u: np.ndarray,
             m_ap: MultiAnalyticOp) -> MultiAnalyticOp:
    """(M_A (+) I) u (I (+) M_A'): the A-hat slot of both factored forms, with
    the identities sized by u."""
    left = block_diag_op(basis, m_a, identity_op(basis, u.shape[0] - m_a.dom.dim))
    right = block_diag_op(basis, identity_op(basis, u.shape[1] - m_ap.cod.dim), m_ap)
    return product(left, product(const_op(basis, u), right))


def _assemble(it: IteratedLifting, n_deg: int):
    """The factored right-hand side for the two-step lifting, plus diagnostics:
    the constant C-slot D_*gamma-hat m7[:k_c] plus the A-hat slot
    gamma-hat m2 _cascade(J(delta)) m6 m7[k_c:], m7 splitting D_E' in two."""
    basis = fock_basis(it.first.d, n_deg)
    cl = it.as_c_lifting
    lift_ahat = it.ahat_lifting

    sig_ep = defect_unitary(cl)
    sig_ah = defect_unitary(lift_ahat)
    sig_star_ah = star_defect_unitary(lift_ahat)
    jh = julia_halmos(it.delta)

    k_c = cl.dC.rank
    k_ahat = cl.dA.rank          # column defect of A-hat
    k_sa = lift_ahat.dstarC.rank
    k_ap = lift_ahat.dA.rank
    k_sap = lift_ahat.dstarA.rank

    g_hat = it.gamma_hat.matrix
    _, _, dstar_ghat, sg_range = it.gamma_hat.defects
    q_star_ghat = sg_range.basis

    dl = it.delta.matrix
    _, d_range, _, ds_range = it.delta.defects
    q_star_delta = ds_range.basis
    q_delta = d_range.basis

    m_a = row_char_fn(it.first.A, n_deg)
    m_ap = row_char_fn(it.second.A, n_deg)

    m7 = block_diag(q_star_ghat, np.eye(k_ahat)) @ sig_ep.op.matrix \
        @ cl.dE.space.basis.conj().T @ cl.dE.D
    m6 = block_diag(q_star_delta, np.eye(k_ap)) @ sig_ah.op.matrix
    m2 = sig_star_ah.op.matrix.conj().T @ block_diag(np.eye(k_sa), q_delta.conj().T)
    core = product(_cascade(basis, m_a.op, jh.J, m_ap.op), const_op(basis, m6 @ m7[k_c:]))
    # the inverse of sigma'_Ahat is only defined on D_*A + D_delta; measure how
    # far the A-hat slot's D_*A' block leaves D_delta before m2 projects it
    # (the report's factorization-leak line judges it)
    proj = np.eye(k_sap) - q_delta @ q_delta.conj().T
    leak = max_operator_norm(proj @ t[:, k_sa:, :] for t in core.graded)
    rhs = add(const_op(basis, dstar_ghat @ m7[:k_c]), product(const_op(basis, g_hat @ m2), core))

    info = {
        "checks": {
            "sigma_Eprime_unitary": sig_ep.unitary_residual,
            "sigma_Eprime_defining": sig_ep.defining_residual,
            "sigma_Ahat_unitary": sig_ah.unitary_residual,
            "sigma_Ahat_defining": sig_ah.defining_residual,
            "sigma_star_Ahat_unitary": sig_star_ah.unitary_residual,
            "sigma_star_Ahat_defining": sig_star_ah.defining_residual,
            "julia_unitarity": jh.residual,
            "projection_leak": leak,
        },
        "factors": {
            "sigma_Eprime": sig_ep.op.matrix,
            "sigma_Ahat": sig_ah.op.matrix,
            "sigma_star_Ahat": sig_star_ah.op.matrix,
            "julia_core": jh.J,
            "gamma_hat": g_hat,
            "Dstar_gamma_hat": dstar_ghat,
            "delta": dl,
            "MA_vacuum": m_a.op.coeff(()),
            "MAprime_vacuum": m_ap.op.coeff(()),
        },
        "bases": {
            "D_Eprime": cl.dE.space.basis,
            "D_C": cl.dC.space.basis,
            "D_Ahat": cl.dA.space.basis,
            "Dstar_Ahat": cl.dstarA.space.basis,
            "D_A": lift_ahat.dC.space.basis,
            "Dstar_Aprime": lift_ahat.dstarA.space.basis,
        },
    }
    return rhs, info


def verify_factorization(it: IteratedLifting, n_deg: int = DEFAULT_DEGREE,
                         tol: float = 1e-8) -> FactorizationReport:
    """Compare the directly computed symbol of the two-step lifting against its
    factored form, overall and restricted to the H_C and H_A-hat column groups."""
    cl = it.as_c_lifting
    chf = lifting_char_fn(cl, n_deg)
    rhs, info = _assemble(it, n_deg)
    idx_c, idx_ah = cl.column_split()
    # each residual is one batched norm over all degrees; the differences are
    # made again for each, so that only one degree's difference is held at a time
    residual = max_operator_norm(degree_diffs(chf.comp, rhs))
    res_c = max_operator_norm(t[:, :, idx_c] for t in degree_diffs(chf.comp, rhs))
    res_ah = max_operator_norm(t[:, :, idx_ah] for t in degree_diffs(chf.comp, rhs))
    checks = dict(info["checks"])
    checks["charfn_crosscheck"] = chf.crosscheck_residual
    checks["charfn_kernel"] = chf.kernel_residual
    return FactorizationReport(
        name="factorization",
        residual=residual,
        degree=n_deg,
        tolerance=tol,
        passed=residual <= tol,
        residual_columns={"HC_columns": res_c, "HAhat_columns": res_ah},
        checks=checks,
        factors=info["factors"],
        bases=info["bases"],
        rhs=rhs,
    )


# ---------------------------------------------------------------------------
# minimal part of an iterated lifting

@dataclass(frozen=True)
class MinimalPart:
    """Restriction of a two-step lifting to the orbit of H_C, with its data."""

    space: Subspace          # the orbit subspace of H_E'
    complement: Subspace
    gamma: SubOperator       # coupling of the upper-triangular corner
    sigma: SigmaUnitary      # column-defect space of E' onto D_Etilde + D_gamma
    tilde_lifting: Lifting   # the restriction, in orbit coordinates, as a lifting of C
    invariance_residual: float
    gamma_residual: float
    minimal: bool


def minimal_part(first: Lifting, second: Lifting) -> MinimalPart:
    """Split H_E' into the E'-orbit of H_C and its complement, extract the
    corner coupling and the defect-space unitary of the splitting; each gate
    refuses above BUILD_TOL."""
    if not is_minimal_lifting(first):
        log.warning("first lifting is not minimal; the product identity assumes it")
    if not is_minimal_lifting(second):
        log.warning("second lifting is not minimal; the product identity assumes it")
    ep = second.E
    n, nc, d = ep.dim, first.C.dim, first.d
    seed = np.zeros((n, nc), dtype=np.complex128)
    seed[:nc, :] = np.eye(nc)
    q_t = krylov_span(list(ep.ops), seed)
    t = q_t.shape[1]
    space = Subspace(n, q_t)
    _, complement = psd_root_range(np.eye(n) - q_t @ q_t.conj().T, SPAN_TOL)
    q_p = complement.basis

    inv_res = max(operator_norm(q_p.conj().T @ ep.ops[i] @ q_t) for i in range(d))
    if inv_res > BUILD_TOL:
        raise ResidualTooLarge(f"orbit subspace not invariant (residual {inv_res:.3e})")

    # the restriction to the orbit (H_C block first) is a lifting of C; the
    # lifting built from its blocks is the one E-tilde the code uses
    restricted = [q_t.conj().T @ ep.ops[i] @ q_t for i in range(d)]
    off = max(operator_norm(r[:nc, nc:]) for r in restricted) if t > nc else 0.0
    if off > BUILD_TOL:
        raise ResidualTooLarge(f"restriction is not a lifting of C (corner {off:.3e})")
    a_inner = RowContraction(tuple(r[nc:, nc:] for r in restricted))
    tilde_lifting = lifting_from_blocks(first.C, a_inner, [r[nc:, :nc] for r in restricted])
    e_tilde = tilde_lifting.E
    a_tilde = RowContraction(tuple(q_p.conj().T @ ep.ops[i] @ q_p for i in range(d)))
    x_row = np.hstack([q_t.conj().T @ ep.ops[i] @ q_p for i in range(d)])

    # the corner factors as x_row = D_{*,Etilde} gamma D_Atilde: the adjoint of
    # the coupling of a lifting of Atilde by Etilde with blocks x_row
    coupling, g_res = extract_gamma(a_tilde, e_tilde, x_row)
    gamma = coupling.adjoint()
    if g_res > BUILD_TOL * max(1.0, operator_norm(x_row)):
        raise ResidualTooLarge(f"corner coupling residual {g_res:.3e}")

    det, dat = defect(e_tilde), defect(a_tilde)
    d_gamma, dg_range, _, _ = gamma.defects
    q_at = dat.space.basis
    top = np.hstack([det.D, -e_tilde.row.conj().T @ gamma.as_ambient() @ dat.D])
    bot = np.hstack([np.zeros((d * (n - t), d * t)), q_at @ d_gamma @ q_at.conj().T @ dat.D])
    w_split = np.hstack([q_t, q_p])
    conv = np.eye(n * d)[block_shuffle([t, n - t], d)] @ np.kron(np.eye(d), w_split.conj().T)
    target = np.vstack([top, bot]) @ conv
    gamma_space = Subspace(d * (n - t), q_at @ dg_range.basis)
    cod = Subspace(d * t + d * (n - t), block_diag(det.space.basis, gamma_space.basis))
    sigma = _certified_sigma(target, defect(ep), cod)
    return MinimalPart(space, complement, gamma, sigma, tilde_lifting, inv_res, g_res,
                       is_minimal_lifting(tilde_lifting))


def verify_minimal_product(first: Lifting, second: Lifting,
                           n_deg: int = DEFAULT_DEGREE, tol: float = 1e-8) -> FactorizationReport:
    """Check that the symbol of the minimal part equals the product of the two
    constituent symbols composed with the splitting unitary's inverse on D_Etilde."""
    mp = minimal_part(first, second)
    m_ce = lifting_char_fn(first, n_deg)
    m_eep = lifting_char_fn(second, n_deg)
    m_ct = lifting_char_fn(mp.tilde_lifting, n_deg)
    if not m_ce.op.dom.same_basis(m_eep.op.cod):
        raise Mismatch("second lifting does not lift the first one's E")
    k_t = mp.tilde_lifting.dE.rank
    basis = fock_basis(first.d, n_deg)
    # adjoint-of-isometry convention for the inverse, restricted to D_Etilde
    sig_inv = const_op(basis, mp.sigma.op.matrix.conj().T[:, :k_t])
    rhs = product(product(m_ce.op, m_eep.op), sig_inv)
    residual = coeff_diff(m_ct.op, rhs)
    checks = {
        "sigma_unitary": mp.sigma.unitary_residual,
        "sigma_defining": mp.sigma.defining_residual,
        "orbit_invariance": mp.invariance_residual,
        "corner_coupling": mp.gamma_residual,
        "charfn_crosscheck": max(m_ce.crosscheck_residual, m_eep.crosscheck_residual,
                                 m_ct.crosscheck_residual),
        "tilde_minimal": 0.0 if mp.minimal else 1.0,
    }
    return FactorizationReport(
        name="minimal-product",
        residual=residual,
        degree=n_deg,
        tolerance=tol,
        passed=residual <= tol and mp.minimal,
        checks=checks,
        factors={"sigma": mp.sigma.op.matrix, "corner_gamma": mp.gamma.matrix},
        bases={"orbit": mp.space.basis, "complement": mp.complement.basis,
               "D_Etilde": mp.tilde_lifting.dE.space.basis},
        rhs=rhs,
    )


# ---------------------------------------------------------------------------
# synthesis: build a lifting whose characteristic function realizes given factors

@dataclass
class SynthesisReport:
    residual: float
    degree: int
    tolerance: float
    passed: bool
    pure_margin: float
    checks: dict[str, float] = field(default_factory=dict)
    factors: dict[str, np.ndarray] = field(default_factory=dict)
    symbol: MultiAnalyticOp | None = None


def synthesize_lifting(c: RowContraction, a: RowContraction, a2: RowContraction,
                       lam, u, n_deg: int = DEFAULT_DEGREE,
                       tol: float = 1e-8) -> tuple[Lifting, SynthesisReport]:
    """From a contraction lam and a unitary u, build the two-step lifting whose
    characteristic function coincides with the prescribed factored operator.

    lam maps (star-defect of a) + F_* into the column-defect space of c;
    u maps F + (star-defect of a2) onto (column-defect of a) + F_*.
    F and F_* are abstract coordinate spaces whose dimensions are read off
    the shapes.  The vacuum coefficient of the inner factored operator must
    be a strict contraction (margin PURE_MARGIN), with full-rank corner blocks,
    or NotPurelyContractive is raised; then F and F_* are exhausted by the
    defect data and the construction is certified unitary.  Its gates refuse
    above BUILD_TOL; tol only judges the symbol residual (report.passed).
    """
    lam = as_complex(lam)
    u = as_complex(u)
    dc, da, dsa = defect(c), defect(a), star_defect(a)
    da2_col, dsa2 = defect(a2), star_defect(a2)
    k_c, k_a, k_sa = dc.rank, da.rank, dsa.rank
    k_a2, k_sa2 = da2_col.rank, dsa2.rank
    if lam.shape[0] != k_c or lam.shape[1] < k_sa:
        raise DimMismatch(f"lam shape {lam.shape} incompatible with defect ranks")
    f_star = lam.shape[1] - k_sa
    if u.shape[0] != u.shape[1] or u.shape[0] != k_a + f_star or u.shape[1] < k_sa2:
        raise DimMismatch(f"u shape {u.shape} incompatible (need square {k_a + f_star})")
    f_dim = u.shape[1] - k_sa2
    require_contraction(lam)
    u_res = unitarity_residual(u)
    if u_res > BUILD_TOL:
        raise ValidationError(f"u is not unitary within tolerance ({u_res:.3e})")

    ust = u.conj().T
    p_blk = ust[:f_dim, :k_a]
    s_blk = ust[f_dim:, k_a:]
    r_blk = ust[f_dim:, :k_a]

    m_a = row_char_fn(a, n_deg)
    m_ap = row_char_fn(a2, n_deg)
    vac = block_diag(m_a.op.coeff(()), np.eye(f_star)) @ u @ block_diag(np.eye(f_dim), m_ap.op.coeff(()))
    sv_top = operator_norm(vac)
    pure_margin = 1.0 - sv_top

    if not (pure_margin > PURE_MARGIN and svd_rank(p_blk)[0] == f_dim
            and svd_rank(s_blk.conj().T)[0] == f_star):
        raise NotPurelyContractive(
            f"vacuum margin {pure_margin:.3e} or rank deficiency of the corner blocks")

    delta = SubOperator(dsa2.space, da.space, r_blk.conj().T)
    d_sr, sr_range, d_r, r_range = delta.defects
    q_r = r_range.basis
    q_sr = sr_range.basis
    u1 = q_r.conj().T @ d_r @ pinv(p_blk)
    u2 = q_sr.conj().T @ d_sr @ pinv(s_blk.conj().T)
    u1_res = operator_norm(u1 @ p_blk - q_r.conj().T @ d_r)
    u2_res = operator_norm(u2 @ s_blk.conj().T - q_sr.conj().T @ d_sr)
    if unitarity_residual(u1) > BUILD_TOL or unitarity_residual(u2) > BUILD_TOL:
        raise UnitaryExtensionFailure(
            f"isometry extensions not unitary ({unitarity_residual(u1):.3e}, "
            f"{unitarity_residual(u2):.3e})")

    ahat_lift = make_lifting(a, a2, delta)
    sig_ah = defect_unitary(ahat_lift)
    sig_star_ah = star_defect_unitary(ahat_lift)

    phi = block_diag(np.eye(k_sa), u2).conj().T @ sig_star_ah.op.matrix
    gamma_hat = SubOperator(ahat_lift.dstarE.space, dc.space, lam @ phi)
    eprime = make_lifting(c, ahat_lift.E, gamma_hat)

    basis = fock_basis(c.d, n_deg)
    dstar_lam, _ = psd_root_range(np.eye(k_c) - lam @ lam.conj().T)

    target_symbol = product(const_op(basis, np.hstack([dstar_lam, lam])),
                            block_diag_op(basis, identity_op(basis, k_c),
                                          _cascade(basis, m_a.op, u, m_ap.op)))

    m_cep = lifting_char_fn(eprime, n_deg)
    sig_ep = defect_unitary(eprime)
    g_hat = gamma_hat.matrix
    q_star_ghat = gamma_hat.defects[3].basis
    leak = operator_norm(np.eye(k_c) - q_star_ghat @ q_star_ghat.conj().T) if k_c else 0.0
    if leak > BUILD_TOL:
        raise SubspaceLeak(f"first slot leaves the range of the splitting unitary ({leak:.3e})")
    inner = sig_ah.op.matrix.conj().T @ block_diag(u1, np.eye(k_a2))
    realized = product(m_cep.op, const_op(basis, sig_ep.op.matrix.conj().T
                                          @ block_diag(q_star_ghat.conj().T, inner)))

    residual = coeff_diff(target_symbol, realized)
    report = SynthesisReport(
        residual=residual,
        degree=n_deg,
        tolerance=tol,
        passed=residual <= tol,
        pure_margin=pure_margin,
        checks={
            "u_unitary": u_res,
            "u1_defining": u1_res,
            "u2_defining": u2_res,
            "sigma_Ahat_unitary": sig_ah.unitary_residual,
            "sigma_star_Ahat_unitary": sig_star_ah.unitary_residual,
            "sigma_Eprime_unitary": sig_ep.unitary_residual,
            "phi_unitary": unitarity_residual(phi) if phi.shape[0] == phi.shape[1] else float("inf"),
            "projection_leak": leak,
            "charfn_crosscheck": m_cep.crosscheck_residual,
        },
        factors={"phi": phi, "gamma_hat": g_hat, "u1": u1, "u2": u2, "delta": delta.matrix},
        symbol=target_symbol,
    )
    return eprime, report
