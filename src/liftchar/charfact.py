"""Characteristic functions of row contractions and of contractive liftings,
and the verifiable operator identities built from them.

Every characteristic function is the transfer function of a colligation with
state space H_A and state operators X_j = A_j*, and one engine
(`transfer_coeffs`) computes all of them.  The word products X_w depend on A
alone: `word_stack` grows them once per row contraction and degree by two
routes, one appending letters and one prepending them, that are
cross-checked; this is the main defense against coefficient-reversal and
ordering bugs, which the conventions here make easy to commit.  The engine
folds the defect bases into D, C and B and returns the colligation form, a
`TransferOp`: D, the stack C X_w and B, with no Fock-size array.  Its one
writer, `TransferOp.rows`, writes each (C X_w) B_k straight into the block
that asks for it: `CharFn.op` on first use, and `coeff_diff` block by block
for the minimal-product and synthesis identities, which never hold a whole
symbol.  The engine certifies its colligation as given, before that basis
change (unitary or contractive), which catches assembly errors in D, C or B
that the word stack cannot see.  Report lines judge both residuals; the
engine refuses nothing.  An assembly that misplaces whole words is left to
the identity checks.

Degree language replaces the radial limit r -> 1 throughout: an identity
X(r) = Y(r) for all r in [0,1) is asserted as coefficient equality per
word, which is equivalent at a finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimMismatch,
    Mismatch,
    NotPurelyContractive,
    ResidualTooLarge,
    ValidationError,
)
from .lifting import (
    BUILD_TOL,
    Lifting,
    IteratedLifting,
    SigmaUnitary,
    _certified_sigma,
    _unitary_or_inf,
    defect_unitary,
    extract_gamma,
    head_orbit,
    is_minimal_lifting,
    julia_halmos,
    lifting_from_blocks,
    make_lifting,
    star_defect_unitary,
    triangular_split,
)
from .ncfock import (
    DEFAULT_DEGREE,
    MultiAnalyticOp,
    TransferOp,
    add,
    block_diag_op,
    coeff_diff,
    const_op,
    fock_basis,
    identity_op,
    pair_products,
    product,
)
from .numlin import (
    DefectData,
    Subspace,
    SubOperator,
    as_complex,
    block_diag,
    block_shuffle,
    max_operator_norm,
    memo,
    operator_norm,
    polar_unitary,
    readonly,
    require_contraction,
    svd_rank,
    unitarity_residual,
)
from .rowcon import RowContraction, _block_row, defect, star_defect

CROSSCHECK_TOL = 1e-10  # bound on the engine's route and certificate residuals
PURE_MARGIN = 1e-8  # least 1 - ||vacuum coefficient|| of a purely contractive synthesis


# ---------------------------------------------------------------------------
# the colligation engine: every characteristic function is a transfer function

def word_stack(a: RowContraction, n_deg: int) -> tuple[np.ndarray, float]:
    """The state-word products X_w = X_{w_1} ... X_{w_n}, X_j = A_j*, of every
    word with |w| < n_deg (n_deg >= 1), stacked in graded lexicographic order
    with X_() = I, and the residual of the two routes that grow them.

    The append route grows P_{n+1}[(w, k)] = P_n[w] X_k at rank idx(w) d + k - 1
    (`pair_products`).  The prepend route grows T_{n+1}[(k, w)] = X_k T_n[w] at
    rank (k-1) d^n + idx(w), by a GEMM of its own.  Their disagreement, the
    residual, shows a letter-order fault in either.  Every colligation over A
    shares the stack, so it is computed once per row contraction and degree.
    """
    def compute():
        d, s = a.d, a.dim
        x = a.ops.conj().swapaxes(1, 2)
        x_wide = x.reshape(d * s, s)
        off = fock_basis(d, n_deg - 1).offsets
        app = np.empty((off[-1], s, s), dtype=np.complex128)
        pre = np.empty_like(app)
        app[0] = pre[0] = np.eye(s)
        for n in range(1, n_deg):
            last, new = slice(off[n - 1], off[n]), slice(off[n], off[n + 1])
            app[new] = pair_products(app[last], x.swapaxes(0, 1)).reshape(d**n, s, s)
            pre[new] = (x_wide @ pre[last].transpose(1, 0, 2).reshape(s, d**(n - 1) * s)).reshape(
                d, s, d**(n - 1), s).transpose(0, 2, 1, 3).reshape(d**n, s, s)
        return readonly(app), max_operator_norm(app - pre)
    return memo(a, ("word_stack", n_deg), compute)


def transfer_coeffs(D: np.ndarray, C: np.ndarray, B: np.ndarray, a: RowContraction, n_deg: int,
                    *, certify: str | None = None, left: np.ndarray | None = None,
                    right: np.ndarray | None = None) -> tuple[TransferOp, float]:
    """left (D + C (I - sum Z_j X_j)^{-1} sum Z_j B_j) right, the transfer
    function of the colligation M = [[D, C], [B, X]] over A, X_j = A_j*, with
    B stacked per letter in shape (d, s, m), in the bases that `left` and
    `right` change to (a side left out when None), to degree n_deg.

    Returns it in colligation form, a `TransferOp` whose coefficient at the
    word a = (a_1, ..., a_n) is left C X_{a_1} ... X_{a_{n-1}} B_{a_n} right
    and at the empty word left D right, and a residual.  The basis changes
    are folded into the small blocks, D, C and B, and the stack C X_w is one
    GEMM over the words |w| < n_deg; no coefficient is written here (see
    `TransferOp.rows`).  The products X_w come from `word_stack`, whose
    cross-check residual this returns.  With `certify` ("unitary" or
    "contractive") the residual is the larger of that and how far M itself,
    as passed and before any basis change, misses being so, an assembly
    error the cross-check cannot see.
    """
    d, s, m = B.shape
    cert = 0.0
    if certify is not None:
        col = np.block([[D, C], [B.reshape(d * s, m), a.row.conj().T]])
        cert = unitarity_residual(col) if certify == "unitary" else operator_norm(col) - 1.0
    if left is not None:
        D, C = left @ D, left @ C
    if right is not None:
        D, B = D @ right, B @ right
    resid, c = 0.0, len(D)
    if n_deg == 0:
        cx = np.empty((c, 0, s), dtype=np.complex128)
    else:
        words, resid = word_stack(a, n_deg)
        n_w = len(words)
        # cx[i] = row i of C X_w over all words w, each a contiguous (n_w, s) matrix
        cx = (C @ words.transpose(1, 0, 2).reshape(s, n_w * s)).reshape(c, n_w, s)
    return TransferOp(fock_basis(d, n_deg), D, cx, B), max(cert, resid)


# ---------------------------------------------------------------------------
# characteristic functions of a row contraction and of a contractive lifting

@dataclass(frozen=True)
class CharFn:
    """A characteristic function, kept as its colligation.

    `form` is the symbol in colligation form (`TransferOp`); its coefficients
    act between defect-space coordinates, from the domain defect's range
    `dom` to the codomain defect's range `cod`.  `op`, the symbol as a
    `MultiAnalyticOp`, is written from `form` on first use and then kept;
    the minimal-product and synthesis identities read `form` and never ask
    for it.  The factorization identities are stated for the symbol composed
    with the domain's defect operator; that form is the constant
    Q* D (Q the range basis of D) folded into B (`TransferOp.then`).
    Report lines judge both residuals (see `transfer_coeffs`,
    `lifting_char_fn`).
    """

    form: TransferOp
    dom: Subspace
    cod: Subspace
    crosscheck_residual: float
    kernel_residual: float = 0.0

    @cached_property
    def op(self) -> MultiAnalyticOp:
        """The symbol's coefficients, written whole from `form` on first use."""
        f = self.form
        return MultiAnalyticOp(f.basis, self.dom, self.cod, f.rows(0, len(f.basis)))


def row_char_fn(a: RowContraction, n_deg: int = DEFAULT_DEGREE) -> CharFn:
    """Characteristic function of a row contraction on the truncated Fock space.

    The transfer function of the Julia-Halmos colligation of row(A):
    D = -row(A), C = D_{*,A}, B_j = (D_A)_j, X_j = A_j*, certified unitary.
    Computed once per row contraction and degree.
    """
    def compute():
        da, dsa = defect(a), star_defect(a)
        n = a.dim
        form, resid = transfer_coeffs(-a.row, dsa.D, da.D.reshape(a.d, n, a.d * n), a, n_deg,
                                      certify="unitary", left=dsa.space.basis.conj().T,
                                      right=da.space.basis)
        return CharFn(form, da.space, dsa.space, resid)
    return memo(a, ("row_char_fn", n_deg), compute)


def _lifting_colligation(lift: Lifting) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, C, B) of the contractive colligation whose transfer function is a
    lifting's symbol composed with D_E (see `lifting_char_fn`)."""
    a, d = lift.A, lift.d
    dc, da, dsa = lift.dC, lift.dA, lift.dstarA
    q_ch = dc.space.basis.conj().T
    g = q_ch @ lift.gamma_ambient
    inv = np.argsort(lift.shuffle)
    vac = np.hstack([q_ch @ dc.D - g @ dsa.D @ lift.b_row, -g @ a.row @ da.D])[:, inv]
    b = np.concatenate([-a.ops.conj().swapaxes(1, 2) @ lift.b_row,
                        (da.D @ da.D).reshape(d, a.dim, d * a.dim)], axis=2)[:, :, inv]
    return vac, g @ dsa.D, b


def lifting_char_fn(lift: Lifting, n_deg: int = DEFAULT_DEGREE) -> CharFn:
    """Characteristic function of a contractive lifting, domain the column-defect
    space of E, codomain the column-defect space of C.

    The symbol composed with D_E is the transfer function of the contractive
    colligation with X_j = A_j*, C = Q_C* gamma D_{*,A},
    D = Q_C* [D_C - gamma D_{*,A} row(B), -gamma row(A) D_A] and
    B_j = [-A_j* row(B), (D_A^2)_j], columns reordered from H_C^d + H_A^d to
    H_E^d.  The engine certifies that colligation and returns it in the
    symbol's stored coordinates, with pinv(D_E) Q_E as its right factor
    (Q_E the range basis of D_E): the composition divided by D_E on its range.
    The composition must vanish on ker D_E.  When D_E is not injective, an
    orthonormal basis K of that kernel follows pinv(D_E) Q_E in the same
    right factor, so the one engine run also yields each T_w K as the columns
    after the symbol's.  The symbol's form keeps the leading rank columns of
    D and B; only the kernel columns are written here, and the largest
    ||T_w K|| over them is the kernel residual (0.0 when D_E is injective and
    there are none), which the identities fold into theirs.  Computed once
    per lifting and degree.
    """
    def compute():
        de = lift.dE
        right = de.pinv @ de.space.basis
        if de.rank < de.space.ambient_dim:
            right = np.hstack([right, de.space.complement().basis])
        form, resid = transfer_coeffs(*_lifting_colligation(lift), lift.A, n_deg,
                                      certify="contractive", right=right)
        kernel = form.columns(slice(de.rank, None)).rows(0, len(form.basis))
        return CharFn(form.columns(slice(de.rank)), de.space, lift.dC.space, resid,
                      max_operator_norm(kernel))
    return memo(lift, ("lifting_char_fn", n_deg), compute)


# ---------------------------------------------------------------------------
# the resolvent identity used by every factorization proof

def resolvent_identity_residual(a: RowContraction, n_deg: int = DEFAULT_DEGREE) -> float:
    """Degree-wise residual of
        D_*A (I - R A*)^{-1} D_*A  =  I  +  M_A A*
    on the star-defect space, with both sides expanded to degree N.  The
    left side is the transfer function with D = D_*A^2, C = D_*A,
    B_j = A_j* D_*A, X_j = A_j*; its rows, written whole, hold the difference.
    """
    dsa = star_defect(a)
    x = a.ops.conj().swapaxes(1, 2)
    q = dsa.space.basis
    basis = fock_basis(a.d, n_deg)
    # only the rows are kept: the form is dropped before M_A is read
    diff = transfer_coeffs(dsa.D @ dsa.D, dsa.D, x @ dsa.D, a, n_deg,
                           left=q.conj().T, right=q)[0].rows(0, len(basis))
    diff[0] -= np.eye(dsa.rank)
    a_star = const_op(basis, defect(a).space.coords(a.row.conj().T @ q))
    diff -= product(row_char_fn(a, n_deg).op, a_star).flat
    return max_operator_norm(diff)


# ---------------------------------------------------------------------------
# factorization of the characteristic function of a two-step lifting

@dataclass
class FactorizationReport:
    """Outcome of one verified identity: "factorization", "minimal-product" or
    "synthesis", with its residuals, diagnostic checks, factors and bases.

    It keeps no operator: each verifier builds its right side, compares it
    with the left and drops it, so a list of reports holds only these small
    matrices and numbers.
    """

    name: str
    residual: float
    degree: int
    tolerance: float
    passed: bool
    residual_columns: dict[str, float] = field(default_factory=dict)
    checks: dict[str, float] = field(default_factory=dict)
    factors: dict[str, np.ndarray] = field(default_factory=dict)
    bases: dict[str, np.ndarray] = field(default_factory=dict)


def _cascade(basis, m_a: MultiAnalyticOp, u: np.ndarray,
             m_ap: MultiAnalyticOp) -> MultiAnalyticOp:
    """(M_A (+) I) u (I (+) M_A'): the A-hat slot of both factored forms, with
    the identities sized by u.  Each direct sum is built just before the
    product that reads it, and I (+) M_A' is dropped once u has met it."""
    right = product(const_op(basis, u),
                    block_diag_op(basis, identity_op(basis, u.shape[1] - m_ap.cod.dim), m_ap))
    left = block_diag_op(basis, m_a, identity_op(basis, u.shape[0] - m_a.dom.dim))
    return product(left, right)


def _grouped_defect(cl: Lifting) -> np.ndarray:
    """Q* D_E, Q the range basis of D_E, with its columns reordered from H_E^d
    to H_C^d + H_A^d (`lift.shuffle`): the back factor of both sides of the
    factorization, under which each column group is a slice."""
    return (cl.dE.space.basis.conj().T @ cl.dE.D)[:, cl.shuffle]


def _assemble(it: IteratedLifting, n_deg: int):
    """The factored right-hand side for the two-step lifting, plus diagnostics:
    the constant C-slot D_*gamma-hat m7[:k_c] plus the A-hat slot
    gamma-hat m2 _cascade(J(delta)) m6 m7[k_c:], m7 splitting D_E' in two.
    Its columns are grouped H_C^d, then H_A-hat^d (`_grouped_defect`)."""
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
    star_ghat = it.gamma_hat.star_defect
    q_star_ghat = star_ghat.space.basis

    dl = it.delta.matrix
    q_star_delta = it.delta.star_defect.space.basis
    q_delta = it.delta.defect.space.basis

    m_a = row_char_fn(it.first.A, n_deg)
    m_ap = row_char_fn(it.second.A, n_deg)

    m7 = block_diag(q_star_ghat, np.eye(k_ahat)) @ sig_ep.op.matrix @ _grouped_defect(cl)
    m6 = block_diag(q_star_delta, np.eye(k_ap)) @ sig_ah.op.matrix
    m2 = sig_star_ah.op.matrix.conj().T @ block_diag(np.eye(k_sa), q_delta.conj().T)
    core = product(_cascade(basis, m_a.op, jh.J, m_ap.op), const_op(basis, m6 @ m7[k_c:]))
    # the inverse of sigma'_Ahat is only defined on D_*A + D_delta; measure how
    # far the A-hat slot's D_*A' block leaves D_delta before m2 projects it
    # (the report's factorization-leak line judges it)
    proj = np.eye(k_sap) - q_delta @ q_delta.conj().T
    leak = max_operator_norm(proj @ core.flat[:, k_sa:, :])
    rhs = add(const_op(basis, star_ghat.D @ m7[:k_c]), product(const_op(basis, g_hat @ m2), core))

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
            "charfn_crosscheck": max(m_a.crosscheck_residual, m_ap.crosscheck_residual),
        },
        "factors": {
            "sigma_Eprime": sig_ep.op.matrix,
            "sigma_Ahat": sig_ah.op.matrix,
            "sigma_star_Ahat": sig_star_ah.op.matrix,
            "julia_core": jh.J,
            "gamma_hat": g_hat,
            "Dstar_gamma_hat": star_ghat.D,
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
    """Compare the directly computed symbol of the two-step lifting, composed
    with D_E', against its factored form, overall and restricted to the H_C
    and H_A-hat column groups.  Both sides vanish on ker D_E' by construction,
    so the comparison covers the range of D_E'.  The engine's own component on
    ker D_E' (`charfn_kernel`) is judged with the overall residual, which is
    the larger of the two.  The left side is written whole from the
    symbol's colligation form, with D_E' folded into its B, and the columns
    are grouped, so each group is a slice."""
    cl = it.as_c_lifting
    chf = lifting_char_fn(cl, n_deg)
    rhs, info = _assemble(it, n_deg)
    lhs = chf.form.then(_grouped_defect(cl))
    diff = lhs.rows(0, len(lhs.basis))
    diff[:len(rhs.flat)] -= rhs.flat
    residual = max(max_operator_norm(diff), chf.kernel_residual)
    n_c = cl.d * cl.C.dim
    res_c = max_operator_norm(diff[:, :, :n_c])
    res_ah = max_operator_norm(diff[:, :, n_c:])
    checks = dict(info["checks"])
    checks["charfn_crosscheck"] = max(checks["charfn_crosscheck"], chf.crosscheck_residual)
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
    minimal: bool            # whether the restriction is a minimal lifting of C
    first_minimal: bool      # the product identity's preconditions, recorded
    second_minimal: bool     # and not judged


def minimal_part(first: Lifting, second: Lifting) -> MinimalPart:
    """Split H_E' into the E'-orbit of H_C and its complement, extract the
    corner coupling and the defect-space unitary of the splitting.  The orbit,
    its corner and the coupling refuse above BUILD_TOL; the unitary and whether
    both liftings are minimal, as the product identity assumes, are reported."""
    ep = second.E
    n, nc, d = ep.dim, first.C.dim, first.d
    q_t = head_orbit(ep, nc)
    t = q_t.shape[1]
    space = Subspace(n, q_t)
    complement = space.complement()
    q_p = complement.basis

    to_t, to_p = q_t.conj().T @ ep.ops, q_p.conj().T @ ep.ops
    inv_res = max_operator_norm(to_p @ q_t)
    if inv_res > BUILD_TOL:
        raise ResidualTooLarge(f"orbit subspace not invariant (residual {inv_res:.3e})")

    # the restriction to the orbit (H_C block first) is a lifting of C; the
    # lifting built from its blocks is the one E-tilde the code uses
    restricted = to_t @ q_t
    off = max_operator_norm(restricted[:, :nc, nc:])
    if off > BUILD_TOL:
        raise ResidualTooLarge(f"restriction is not a lifting of C (corner {off:.3e})")
    a_inner = RowContraction(restricted[:, nc:, nc:])
    tilde_lifting = lifting_from_blocks(first.C, a_inner, restricted[:, nc:, :nc])
    e_tilde = tilde_lifting.E
    a_tilde = RowContraction(to_p @ q_p)
    x_row = _block_row(to_t @ q_p)

    # the corner factors as x_row = D_{*,Etilde} gamma D_Atilde: the adjoint of
    # the coupling of a lifting of Atilde by Etilde with blocks x_row
    coupling, g_res = extract_gamma(a_tilde, e_tilde, x_row)
    gamma = coupling.adjoint()
    if g_res > BUILD_TOL * max(1.0, operator_norm(x_row)):
        raise ResidualTooLarge(f"corner coupling residual {g_res:.3e}")

    split, cod = triangular_split(defect(e_tilde), e_tilde.row.conj().T, gamma, defect(a_tilde))
    w_split = np.hstack([q_t, q_p])
    conv = np.kron(np.eye(d), w_split.conj().T)[block_shuffle([t, n - t], d)]
    sigma = _certified_sigma(split @ conv, defect(ep), cod)
    return MinimalPart(space, complement, gamma, sigma, tilde_lifting, inv_res, g_res,
                       is_minimal_lifting(tilde_lifting), is_minimal_lifting(first),
                       is_minimal_lifting(second))


def verify_minimal_product(first: Lifting, second: Lifting,
                           n_deg: int = DEFAULT_DEGREE, tol: float = 1e-8) -> FactorizationReport:
    """Check that the symbol of the minimal part equals the product of the two
    constituent symbols composed with the splitting unitary's inverse on D_Etilde;
    the residual is the larger of that and the three symbols' `charfn_kernel`.
    `coeff_diff` judges the product against its factors one block of words
    at a time, and reads all three symbols in colligation form, the inverse
    folded into M_EE''s B, so neither the product nor any symbol is formed."""
    mp = minimal_part(first, second)
    m_ce = lifting_char_fn(first, n_deg)
    m_eep = lifting_char_fn(second, n_deg)
    m_ct = lifting_char_fn(mp.tilde_lifting, n_deg)
    if not m_ce.dom.same_basis(m_eep.cod):
        raise Mismatch("second lifting does not lift the first one's E")
    # adjoint-of-isometry convention for the inverse, restricted to D_Etilde
    sig_inv = mp.sigma.op.matrix.conj().T[:, :mp.tilde_lifting.dE.rank]
    fns = (m_ce, m_eep, m_ct)
    kernel = max(fn.kernel_residual for fn in fns)
    residual = max(coeff_diff(m_ct.form, m_ce.form, m_eep.form.then(sig_inv)), kernel)
    checks = {
        "sigma_unitary": mp.sigma.unitary_residual,
        "sigma_defining": mp.sigma.defining_residual,
        "orbit_invariance": mp.invariance_residual,
        "corner_coupling": mp.gamma_residual,
        "charfn_crosscheck": max(fn.crosscheck_residual for fn in fns),
        "charfn_kernel": kernel,
        "tilde_minimal": 0.0 if mp.minimal else 1.0,
        "first_minimal": 0.0 if mp.first_minimal else 1.0,
        "second_minimal": 0.0 if mp.second_minimal else 1.0,
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
    )


# ---------------------------------------------------------------------------
# synthesis: build a lifting whose characteristic function realizes given factors

def synthesize_lifting(c: RowContraction, a: RowContraction, a2: RowContraction,
                       lam, u, n_deg: int = DEFAULT_DEGREE,
                       tol: float = 1e-8) -> tuple[Lifting, FactorizationReport]:
    """From a contraction lam and a unitary u, build the two-step lifting whose
    characteristic function coincides with the prescribed factored operator.

    lam maps (star-defect of a) + F_* into the column-defect space of c;
    u maps F + (star-defect of a2) onto (column-defect of a) + F_*.
    F and F_* are abstract coordinate spaces whose dimensions are read off
    the shapes.  The vacuum coefficient of the inner factored operator must
    be a strict contraction (margin PURE_MARGIN), with full-rank corner blocks,
    or NotPurelyContractive is raised; then F and F_* are exhausted by the
    defect data.  The isometry extensions u1 and u2 are polar factors, whose
    unitarity residuals the checks record (inf when not square).  Its gates
    refuse above BUILD_TOL; tol only judges the symbol residual
    (report.passed).  The report is named "synthesis"; its checks carry the
    vacuum margin as `pure_margin`, and it records no bases.
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

    basis = fock_basis(c.d, n_deg)
    cascade = _cascade(basis, row_char_fn(a, n_deg).op, u, row_char_fn(a2, n_deg).op)
    pure_margin = 1.0 - operator_norm(cascade.coeff(()))

    if not (pure_margin > PURE_MARGIN and svd_rank(p_blk)[0] == f_dim
            and svd_rank(s_blk.conj().T)[0] == f_star):
        raise NotPurelyContractive(
            f"vacuum margin {pure_margin:.3e} or rank deficiency of the corner blocks")

    delta = SubOperator(dsa2.space, da.space, r_blk.conj().T)
    # with delta = R*, D_R is delta's star defect and D_{R*} its column defect
    d_r, d_sr = (dd.space.coords(dd.D) for dd in (delta.star_defect, delta.defect))
    # u1 P = D_R and u2 S* = D_{R*}, solved as the nearest unitaries (Procrustes)
    u1 = polar_unitary(d_r @ p_blk.conj().T)
    u2 = polar_unitary(d_sr @ s_blk)
    u1_res = operator_norm(u1 @ p_blk - d_r)
    u2_res = operator_norm(u2 @ s_blk.conj().T - d_sr)

    ahat_lift = make_lifting(a, a2, delta)
    sig_ah = defect_unitary(ahat_lift)
    sig_star_ah = star_defect_unitary(ahat_lift)

    phi = block_diag(np.eye(k_sa), u2).conj().T @ sig_star_ah.op.matrix
    gamma_hat = SubOperator(ahat_lift.dstarE.space, dc.space, lam @ phi)
    eprime = make_lifting(c, ahat_lift.E, gamma_hat)

    dstar_lam = DefectData.of(lam.conj().T).D
    target_symbol = product(const_op(basis, np.hstack([dstar_lam, lam])),
                            block_diag_op(basis, identity_op(basis, k_c), cascade))

    m_cep = lifting_char_fn(eprime, n_deg)
    sig_ep = defect_unitary(eprime)
    g_hat = gamma_hat.matrix
    q_star_ghat = gamma_hat.star_defect.space.basis
    leak = operator_norm(np.eye(k_c) - q_star_ghat @ q_star_ghat.conj().T) if k_c else 0.0
    if leak > BUILD_TOL:
        raise ResidualTooLarge(f"first slot leaves the range of the splitting unitary ({leak:.3e})")
    inner = sig_ah.op.matrix.conj().T @ block_diag(u1, np.eye(k_a2))
    # M_CE' composed with the constant back to the target's slots, never formed
    to_slots = sig_ep.op.matrix.conj().T @ block_diag(q_star_ghat.conj().T, inner)
    residual = coeff_diff(target_symbol, m_cep.form.then(to_slots))
    report = FactorizationReport(
        name="synthesis",
        residual=residual,
        degree=n_deg,
        tolerance=tol,
        passed=residual <= tol,
        checks={
            "u_unitary": u_res,
            "u1_defining": u1_res,
            "u2_defining": u2_res,
            "u1_unitary": _unitary_or_inf(u1),
            "u2_unitary": _unitary_or_inf(u2),
            "sigma_Ahat_unitary": sig_ah.unitary_residual,
            "sigma_star_Ahat_unitary": sig_star_ah.unitary_residual,
            "sigma_Eprime_unitary": sig_ep.unitary_residual,
            "phi_unitary": _unitary_or_inf(phi),
            "projection_leak": leak,
            "charfn_crosscheck": m_cep.crosscheck_residual,
            "pure_margin": pure_margin,
        },
        factors={"phi": phi, "gamma_hat": g_hat, "u1": u1, "u2": u2, "delta": delta.matrix},
    )
    return eprime, report
