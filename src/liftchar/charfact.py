"""Characteristic functions of row contractions and of contractive liftings,
and the verifiable operator identities built from them.

Every characteristic function is the transfer function of a colligation with
state space H_A, and one engine (`transfer_coeffs`) computes all of them by
two routes (explicit word products vs the degree recursion) that are
cross-checked; this is the main defense against coefficient-reversal and
ordering bugs, which the conventions here make easy to commit.  The engine
also certifies the colligation (unitary or contractive), which catches
assembly errors that both routes would share.

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
    NotContraction,
    NotPurelyContractive,
    OracleMismatch,
    ResidualTooLarge,
    SubspaceLeak,
    UnitaryExtensionFailure,
    ValidationError,
    VerificationFailure,
)
from .lifting import (
    Lifting,
    IteratedLifting,
    SigmaUnitary,
    _certified_sigma,
    defect_unitary,
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
    fock_basis,
    identity_op,
    product,
)
from .numlin import (
    Subspace,
    SubOperator,
    as_complex,
    block_diag,
    block_shuffle,
    contraction_defects,
    operator_norm,
    pinv,
    psd_root_range,
    svd_rank,
    unitarity_residual,
)
from .rowcon import RowContraction, Word, all_words, defect, star_defect

log = logging.getLogger(__name__)

CROSSCHECK_TOL = 1e-10


# ---------------------------------------------------------------------------
# the colligation engine: every characteristic function is a transfer function

def transfer_coeffs(D: np.ndarray, C: np.ndarray, B: np.ndarray, X: np.ndarray, n_deg: int, *,
                    certify: str | None = None) -> tuple[dict[Word, np.ndarray], float]:
    """Stored coefficients of the transfer function D + C (I - sum Z_j X_j)^{-1} sum Z_j B_j
    of the colligation M = [[D, C], [B, X]], B and X stacked per letter with
    shapes (d, s, m) and (d, s, s).

    The stored word (a_1, ..., a_n) gets C X_{a_1} ... X_{a_{n-1}} B_{a_n}; the
    empty word gets D.  Two routes compute them: a left-to-right product per
    word, and the degree recursion T_1 = B, T_{n+1}[(k, rest)] = X_k T_n[rest]
    in graded-lex order (index (k-1) d^n + idx(rest)).  A disagreement beyond
    CROSSCHECK_TOL raises OracleMismatch.  Both routes read the same
    colligation, so `certify` ("unitary" or "contractive") also checks M
    itself, which catches an assembly error the cross-check cannot see.
    Exact-zero coefficients are dropped.  Returns (coefficients, cross-check residual).
    """
    d, s, m = B.shape
    if certify is not None:
        col = np.block([[D, C], [B.reshape(d * s, m), X.reshape(d * s, s)]])
        r = unitarity_residual(col) if certify == "unitary" else operator_norm(col) - 1.0
        if r > CROSSCHECK_TOL:
            raise ResidualTooLarge(f"colligation is not {certify} (residual {r:.3e})")

    words = all_words(d, n_deg)[1:]
    tiers, t = [], B
    for n in range(1, n_deg + 1):
        tiers.append(t)
        if n < n_deg:
            t = np.einsum("kij,rjm->krim", X, t).reshape(d * len(t), s, m)
    by_degree = np.einsum("pi,wim->wpm", C, np.concatenate(tiers)) if tiers \
        else np.zeros((0, D.shape[0], m), dtype=np.complex128)

    by_word = np.empty_like(by_degree)
    prefix = {(): C}
    for i, w in enumerate(words):
        head = prefix[w[:-1]]
        by_word[i] = head @ B[w[-1] - 1]
        if len(w) < n_deg:
            prefix[w] = head @ X[w[-1] - 1]
    diff = by_word - by_degree
    resid = float(np.linalg.norm(diff, ord=2, axis=(-2, -1)).max()) if diff.size else 0.0
    if resid > CROSSCHECK_TOL:
        raise OracleMismatch(f"characteristic-function routes disagree by {resid:.3e}")

    coeffs = {(): D} if D.any() else {}
    coeffs.update((w, c) for w, c in zip(words, by_degree) if c.any())
    return coeffs, resid


def _adjoints(a: RowContraction) -> np.ndarray:
    """(A_1*, ..., A_d*) stacked, the state operators X_j of every colligation here."""
    return np.stack([s.conj().T for s in a.ops])


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
    source: str
    N: int
    crosscheck_residual: float
    kernel_residual: float = 0.0

    def ambient_symbol(self) -> dict[Word, np.ndarray]:
        """Coefficients as ambient-space matrices (zero off the defect spaces)."""
        return {w: self.op.ambient_coeff(w) for w in sorted(self.op.coeffs, key=lambda w: (len(w), w))}


def row_char_fn(a: RowContraction, n_deg: int = DEFAULT_DEGREE) -> CharFn:
    """Characteristic function of a row contraction on the truncated Fock space.

    The transfer function of the Julia-Halmos colligation of row(A):
    D = -row(A), C = D_{*,A}, B_j = (D_A)_j, X_j = A_j*, certified unitary.
    """
    basis = fock_basis(a.d, n_deg)
    da, dsa = defect(a), star_defect(a)
    n = a.dim
    amb, resid = transfer_coeffs(-a.row, dsa.D, da.D.reshape(a.d, n, a.d * n), _adjoints(a),
                                 n_deg, certify="unitary")
    q_a, q_sa = da.space.basis, dsa.space.basis
    comp_coeffs = {w: q_sa.conj().T @ c for w, c in amb.items()}
    coeffs = {w: c @ q_a for w, c in comp_coeffs.items()}
    op = MultiAnalyticOp(basis, da.space, dsa.space, {w: c for w, c in coeffs.items() if c.any()})
    comp = MultiAnalyticOp(basis, Subspace.full(a.d * n), dsa.space,
                           {w: c for w, c in comp_coeffs.items() if c.any()})
    return CharFn(op, comp, "row-contraction", n_deg, resid)


def lifting_char_fn(lift: Lifting, n_deg: int = DEFAULT_DEGREE, *,
                    kernel_tol: float = 1e-8) -> CharFn:
    """Characteristic function of a contractive lifting, domain the column-defect
    space of E, codomain the column-defect space of C.

    The symbol composed with D_E is the transfer function of the contractive
    colligation with X_j = A_j*, C = Q_C* gamma D_{*,A},
    D = Q_C* [D_C - gamma D_{*,A} row(B), -gamma row(A) D_A] and
    B_j = [-A_j* row(B), (D_A^2)_j], columns reordered from H_C^d + H_A^d to
    H_E^d; it is then divided by D_E on its range.
    """
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
    comp_coeffs, resid = transfer_coeffs(vac, g @ dsa.D, b, x, n_deg, certify="contractive")

    cols = d * lift.E.dim
    q_e = lift.dE.space.basis
    p_ker = np.eye(cols) - q_e @ q_e.conj().T
    k_res = max((operator_norm(c @ p_ker) for c in comp_coeffs.values()), default=0.0)
    if k_res > kernel_tol:
        raise ResidualTooLarge(
            f"symbol-times-defect does not vanish on ker D_E (residual {k_res:.3e})")

    de_pinv_q = pinv(lift.dE.D) @ q_e
    coeffs = {w: c @ de_pinv_q for w, c in comp_coeffs.items()}
    coeffs = {w: c for w, c in coeffs.items() if c.any()}
    op = MultiAnalyticOp(basis, lift.dE.space, lift.dC.space, coeffs)
    comp = MultiAnalyticOp(basis, Subspace.full(cols), lift.dC.space, comp_coeffs)
    return CharFn(op, comp, "lifting", n_deg, resid, k_res)


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
    x = _adjoints(a)
    lhs_full, _ = transfer_coeffs(dsa.D @ dsa.D, dsa.D, x @ dsa.D, x, n_deg)
    q = dsa.space.basis
    lhs = MultiAnalyticOp(
        basis, dsa.space, dsa.space,
        {w: q.conj().T @ c @ q for w, c in lhs_full.items()})

    chf = row_char_fn(a, n_deg)
    da = defect(a)
    a_star = const_op(basis, dsa.space, da.space,
                      da.space.coords(a.row.conj().T @ q))
    rhs = add(identity_op(basis, dsa.space), product(chf.op, a_star))
    return coeff_diff(lhs, rhs, n_deg)


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
    lhs: MultiAnalyticOp | None = None
    rhs: MultiAnalyticOp | None = None


def _as_coords(m: MultiAnalyticOp) -> MultiAnalyticOp:
    """Relabel dom/cod as abstract coordinate spaces (for chain assembly)."""
    return MultiAnalyticOp(m.basis, Subspace.full(m.dom.dim), Subspace.full(m.cod.dim), m.coeffs)


def _coord_const(basis, dom_k: int, cod_k: int, mat) -> MultiAnalyticOp:
    """Constant multi-analytic operator between abstract coordinate spaces."""
    return const_op(basis, Subspace.full(dom_k), Subspace.full(cod_k), mat)


def _assemble(it: IteratedLifting, n_deg: int, tol: float):
    """The factored right-hand side for the two-step lifting, plus diagnostics."""
    basis = fock_basis(it.first.d, n_deg)
    cl = it.as_c_lifting
    lift_ahat = Lifting(it.first.A, it.second.A, it.b2p, it.delta, it.a_hat)

    sig_ep = defect_unitary(cl, tol)
    sig_ah = defect_unitary(lift_ahat, tol)
    sig_star_ah = star_defect_unitary(lift_ahat, tol)
    jh = julia_halmos(it.delta)

    k_c = cl.dC.rank
    k_ahat = cl.dA.rank          # column defect of A-hat
    k_star_ahat = cl.dstarA.rank
    k_a = lift_ahat.dC.rank      # column defect of A
    k_sa = lift_ahat.dstarC.rank
    k_ap = lift_ahat.dA.rank
    k_sap = lift_ahat.dstarA.rank

    g_hat = it.gamma_hat.matrix
    dstar_ghat, sg_range = psd_root_range(np.eye(k_c) - g_hat @ g_hat.conj().T)
    q_star_ghat = sg_range.basis

    dl = it.delta.matrix
    _, d_range, _, ds_range = contraction_defects(dl)
    q_star_delta = ds_range.basis
    q_delta = d_range.basis

    m_a = row_char_fn(it.first.A, n_deg)
    m_ap = row_char_fn(it.second.A, n_deg)

    n_amb = it.first.d * cl.E.dim
    m7 = block_diag(q_star_ghat, np.eye(k_ahat)) @ sig_ep.op.matrix \
        @ cl.dE.space.basis.conj().T @ cl.dE.D
    f7 = _coord_const(basis, n_amb, k_c + k_ahat, m7)
    m6 = block_diag(np.eye(k_c),
                    block_diag(q_star_delta, np.eye(k_ap)) @ sig_ah.op.matrix)
    f6 = _coord_const(basis, k_c + k_ahat, k_c + k_a + k_ap, m6)
    f5 = block_diag_op(basis, identity_op(basis, Subspace.full(k_c)),
                       identity_op(basis, Subspace.full(k_a)), _as_coords(m_ap.op))
    f4 = _coord_const(basis, k_c + k_a + k_sap, k_c + k_a + k_sap, block_diag(np.eye(k_c), jh.J))
    f3 = block_diag_op(basis, identity_op(basis, Subspace.full(k_c)),
                       _as_coords(m_a.op), identity_op(basis, Subspace.full(k_sap)))
    m2 = block_diag(np.eye(k_c),
                    sig_star_ah.op.matrix.conj().T @ block_diag(np.eye(k_sa), q_delta.conj().T))
    f2 = _coord_const(basis, k_c + k_sa + k_sap, k_c + k_star_ahat, m2)
    f1 = _coord_const(basis, k_c + k_star_ahat, k_c, np.hstack([dstar_ghat, g_hat]))

    chain = product(f5, product(f6, f7))
    chain = product(f3, product(f4, chain))
    # the inverse of sigma'_Ahat is only defined on D_*A + D_delta; measure how
    # far the composite's third block leaves D_delta before projecting
    proj = np.eye(k_sap) - q_delta @ q_delta.conj().T
    leak = max((operator_norm(proj @ c[k_c + k_sa :, :]) for c in chain.coeffs.values()),
               default=0.0)
    if leak > tol:
        raise SubspaceLeak(f"composite leaves the sigma'-range by {leak:.3e}")
    rhs = product(f1, product(f2, chain))

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


def assemble_factorization(it: IteratedLifting, n_deg: int = DEFAULT_DEGREE,
                           tol: float = 1e-8) -> MultiAnalyticOp:
    """The factored form of (symbol of E' over C) o D_E' as one multi-analytic operator."""
    rhs, _ = _assemble(it, n_deg, tol)
    return rhs


def verify_factorization(it: IteratedLifting, n_deg: int = DEFAULT_DEGREE,
                         tol: float = 1e-8) -> FactorizationReport:
    """Compare the directly computed symbol of the two-step lifting against its
    factored form, overall and restricted to the H_C and H_A-hat column groups."""
    cl = it.as_c_lifting
    chf = lifting_char_fn(cl, n_deg)
    lhs = _as_coords(chf.comp)
    rhs, info = _assemble(it, n_deg, tol)
    residual = coeff_diff(lhs, rhs, n_deg)
    idx_c, idx_ah = cl.column_split()
    res_c = res_ah = 0.0
    for w in set(lhs.coeffs) | set(rhs.coeffs):
        diff = lhs.coeff(w) - rhs.coeff(w)
        res_c = max(res_c, operator_norm(diff[:, idx_c]))
        res_ah = max(res_ah, operator_norm(diff[:, idx_ah]))
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
        lhs=lhs,
        rhs=rhs,
    )


# ---------------------------------------------------------------------------
# minimal part of an iterated lifting

@dataclass(frozen=True)
class MinimalPart:
    """Restriction of a two-step lifting to the orbit of H_C, with its data."""

    space: Subspace          # the orbit subspace of H_E'
    complement: Subspace
    e_tilde: RowContraction  # restriction, in orbit coordinates (H_C block first)
    a_tilde: RowContraction  # compression to the orthogonal complement
    gamma: SubOperator       # coupling of the upper-triangular corner
    sigma: SigmaUnitary      # column-defect space of E' onto D_Etilde + D_gamma
    tilde_lifting: Lifting   # e_tilde as a lifting of C
    invariance_residual: float
    gamma_residual: float
    minimal: bool


def minimal_part(first: Lifting, second: Lifting, *, tol: float = 1e-8,
                 rank_tol: float = 1e-9) -> MinimalPart:
    """Split H_E' into the E'-orbit of H_C and its complement, extract the
    corner coupling and the defect-space unitary of the splitting."""
    if not is_minimal_lifting(first):
        log.warning("first lifting is not minimal; the product identity assumes it")
    if not is_minimal_lifting(second):
        log.warning("second lifting is not minimal; the product identity assumes it")
    ep = second.E
    n, nc, d = ep.dim, first.C.dim, first.d
    seed = np.zeros((n, nc), dtype=np.complex128)
    seed[:nc, :] = np.eye(nc)
    q_t = krylov_span(list(ep.ops), seed, rank_tol)
    t = q_t.shape[1]
    space = Subspace(n, q_t)
    _, complement = psd_root_range(np.eye(n) - q_t @ q_t.conj().T, rank_tol)
    q_p = complement.basis

    inv_res = max(operator_norm(q_p.conj().T @ ep.ops[i] @ q_t) for i in range(d))
    if inv_res > tol:
        raise ResidualTooLarge(f"orbit subspace not invariant (residual {inv_res:.3e})")

    e_tilde = RowContraction(tuple(q_t.conj().T @ ep.ops[i] @ q_t for i in range(d)))
    a_tilde = RowContraction(tuple(q_p.conj().T @ ep.ops[i] @ q_p for i in range(d)))
    x_row = np.hstack([q_t.conj().T @ ep.ops[i] @ q_p for i in range(d)])

    dse = star_defect(e_tilde)
    dat = defect(a_tilde)
    g_amb = pinv(dse.D) @ x_row @ pinv(dat.D)
    gamma = SubOperator(dat.space, dse.space,
                        dse.space.coords(g_amb @ dat.space.basis))
    g_res = operator_norm(x_row - dse.D @ gamma.as_ambient() @ dat.D)
    if g_res > tol * max(1.0, operator_norm(x_row)):
        raise ResidualTooLarge(f"corner coupling residual {g_res:.3e}")

    det = defect(e_tilde)
    k_at = dat.rank
    d_gamma, dg_range = psd_root_range(np.eye(k_at) - gamma.matrix.conj().T @ gamma.matrix)
    q_at = dat.space.basis
    top = np.hstack([det.D, -e_tilde.row.conj().T @ gamma.as_ambient() @ dat.D])
    bot = np.hstack([np.zeros((d * (n - t), d * t)), q_at @ d_gamma @ q_at.conj().T @ dat.D])
    w_split = np.hstack([q_t, q_p])
    conv = np.eye(n * d)[block_shuffle([t, n - t], d)] @ np.kron(np.eye(d), w_split.conj().T)
    target = np.vstack([top, bot]) @ conv
    gamma_space = Subspace(d * (n - t), q_at @ dg_range.basis)
    cod = Subspace(d * t + d * (n - t), block_diag(det.space.basis, gamma_space.basis))
    de_p = defect(ep)
    sigma = _certified_sigma(target, de_p.D, de_p.space, cod, tol)

    off = max(operator_norm(e_tilde.ops[i][:nc, nc:]) for i in range(d)) if t > nc else 0.0
    if off > tol:
        raise ResidualTooLarge(f"restriction is not a lifting of C (corner {off:.3e})")
    a_inner = RowContraction(tuple(e_tilde.ops[i][nc:, nc:] for i in range(d)))
    b_inner = tuple(e_tilde.ops[i][nc:, :nc] for i in range(d))
    tilde_lifting = lifting_from_blocks(first.C, a_inner, b_inner)
    return MinimalPart(space, complement, e_tilde, a_tilde, gamma, sigma,
                       tilde_lifting, inv_res, g_res,
                       is_minimal_lifting(tilde_lifting))


def verify_minimal_product(first: Lifting, second: Lifting,
                           n_deg: int = DEFAULT_DEGREE, tol: float = 1e-8,
                           mp: MinimalPart | None = None) -> FactorizationReport:
    """Check that the symbol of the minimal part equals the product of the two
    constituent symbols composed with the splitting unitary's inverse on D_Etilde."""
    if mp is None:
        mp = minimal_part(first, second, tol=tol)
    m_ce = lifting_char_fn(first, n_deg)
    m_eep = lifting_char_fn(second, n_deg)
    m_ct = lifting_char_fn(mp.tilde_lifting, n_deg)
    if not m_ce.op.dom.same_basis(m_eep.op.cod):
        raise Mismatch("second lifting does not lift the first one's E")
    lhs = m_ct.op
    k_t = mp.tilde_lifting.dE.rank
    basis = fock_basis(first.d, n_deg)
    # adjoint-of-isometry convention for the inverse, restricted to D_Etilde
    sig_inv = const_op(basis, m_ct.op.dom, m_eep.op.dom,
                       mp.sigma.op.matrix.conj().T[:, :k_t])
    rhs = product(product(m_ce.op, m_eep.op), sig_inv)
    residual = coeff_diff(lhs, rhs, n_deg)
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
        lhs=lhs,
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
    purely_contractive: bool
    checks: dict[str, float] = field(default_factory=dict)
    factors: dict[str, np.ndarray] = field(default_factory=dict)
    symbol: MultiAnalyticOp | None = None


def synthesize_lifting(c: RowContraction, a: RowContraction, a2: RowContraction,
                       lam, u, n_deg: int = DEFAULT_DEGREE, tol: float = 1e-8, *,
                       eps_pc: float = 1e-8, rank_tol: float = 1e-10,
                       require_pure: bool = True) -> tuple[Lifting, SynthesisReport]:
    """From a contraction lam and a unitary u, build the two-step lifting whose
    characteristic function coincides with the prescribed factored operator.

    lam maps (star-defect of a) + F_* into the column-defect space of c;
    u maps F + (star-defect of a2) onto (column-defect of a) + F_*.
    F and F_* are abstract coordinate spaces whose dimensions are read off
    the shapes.  When the vacuum coefficient of the inner factored operator
    is a strict contraction (margin eps_pc), F and F_* are exhausted by the
    defect data and the construction is certified unitary; require_pure=False
    degrades to partial-isometry extensions instead of raising.
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
    if operator_norm(lam) > 1.0 + 1e-10:
        raise NotContraction(f"lam has norm {operator_norm(lam):.6f} > 1")
    u_res = unitarity_residual(u)
    if u_res > tol:
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

    pure = (pure_margin > eps_pc and svd_rank(p_blk, rank_tol)[0] == f_dim
            and svd_rank(s_blk.conj().T, rank_tol)[0] == f_star)
    if require_pure and not pure:
        raise NotPurelyContractive(
            f"vacuum margin {pure_margin:.3e} or rank deficiency of the corner blocks")

    d_r, r_range, d_sr, sr_range = contraction_defects(r_blk)
    q_r = r_range.basis
    q_sr = sr_range.basis
    u1 = q_r.conj().T @ d_r @ pinv(p_blk)
    u2 = q_sr.conj().T @ d_sr @ pinv(s_blk.conj().T)
    u1_res = operator_norm(u1 @ p_blk - q_r.conj().T @ d_r)
    u2_res = operator_norm(u2 @ s_blk.conj().T - q_sr.conj().T @ d_sr)
    if pure:
        if unitarity_residual(u1) > tol or unitarity_residual(u2) > tol:
            raise UnitaryExtensionFailure(
                f"isometry extensions not unitary ({unitarity_residual(u1):.3e}, "
                f"{unitarity_residual(u2):.3e})")

    delta = SubOperator(dsa2.space, da.space, r_blk.conj().T)
    ahat_lift = make_lifting(a, a2, delta)
    sig_ah = defect_unitary(ahat_lift, tol)
    sig_star_ah = star_defect_unitary(ahat_lift, tol)

    phi = block_diag(np.eye(k_sa), u2).conj().T @ sig_star_ah.op.matrix
    gamma_hat = SubOperator(ahat_lift.dstarE.space, dc.space, lam @ phi)
    eprime = make_lifting(c, ahat_lift.E, gamma_hat)

    basis = fock_basis(c.d, n_deg)
    dstar_lam, _ = psd_root_range(np.eye(k_c) - lam @ lam.conj().T)

    g3 = block_diag_op(basis, identity_op(basis, Subspace.full(k_c)),
                       identity_op(basis, Subspace.full(f_dim)), _as_coords(m_ap.op))
    g2 = _coord_const(basis, k_c + f_dim + k_sa2, k_c + k_a + f_star, block_diag(np.eye(k_c), u))
    g1 = block_diag_op(basis, identity_op(basis, Subspace.full(k_c)),
                       _as_coords(m_a.op), identity_op(basis, Subspace.full(f_star)))
    front = _coord_const(basis, k_c + k_sa + f_star, k_c, np.hstack([dstar_lam, lam]))
    target_symbol = product(front, product(g1, product(g2, g3)))

    m_cep = lifting_char_fn(eprime, n_deg)
    sig_ep = defect_unitary(eprime, tol)
    g_hat = gamma_hat.matrix
    _, sg_range = psd_root_range(np.eye(k_c) - g_hat @ g_hat.conj().T)
    q_star_ghat = sg_range.basis
    leak = operator_norm(np.eye(k_c) - q_star_ghat @ q_star_ghat.conj().T) if k_c else 0.0
    if leak > tol and require_pure:
        raise SubspaceLeak(f"first slot leaves the range of the splitting unitary ({leak:.3e})")
    sig_inv = const_op(basis, Subspace.full(k_c + ahat_lift.dE.rank), eprime.dE.space,
                       sig_ep.op.matrix.conj().T @ block_diag(q_star_ghat.conj().T,
                                                              np.eye(ahat_lift.dE.rank)))
    inner = sig_ah.op.matrix.conj().T @ block_diag(u1, np.eye(k_a2))
    last = _coord_const(basis, k_c + f_dim + k_a2, k_c + ahat_lift.dE.rank,
                        block_diag(np.eye(k_c), inner))
    realized = product(_as_coords(m_cep.op), _as_coords(product(sig_inv, last)))

    residual = coeff_diff(target_symbol, realized, n_deg)
    report = SynthesisReport(
        residual=residual,
        degree=n_deg,
        tolerance=tol,
        passed=residual <= tol,
        pure_margin=pure_margin,
        purely_contractive=pure,
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
        factors={"phi": phi, "gamma_hat": g_hat, "u1": u1, "u2": u2, "delta": r_blk.conj().T},
        symbol=target_symbol,
    )
    if residual > tol:
        raise VerificationFailure(f"synthesized symbol mismatch {residual:.3e}")
    return eprime, report
