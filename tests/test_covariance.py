"""Covariance of the characteristic functions under unitary conjugation.

Conjugating a lifting of C by U = I_C + W (W unitary on H_A) sends A_i to
W A_i W* and B_i to W B_i, and must send the ambient symbols to
    M_{C,E^U}(w) = M_{C,E}(w) (I_d (x) U)*,   M_{WAW*}(w) = W M_A(w) (I_d (x) W)*,
while every battery line keeps its verdict.  A basis or letter-order fault
anywhere in the pipeline breaks this.
"""

from __future__ import annotations

import numpy as np
import pytest

from liftchar.charfact import lifting_char_fn, row_char_fn
from liftchar.cli import run_battery
from liftchar.gen import random_iterated_lifting, random_unitary
from liftchar.lifting import iterate_liftings, lifting_from_blocks
from liftchar.numlin import block_diag
from liftchar.rowcon import RowContraction

DEGREE = 4


def _conjugated(it, w, wp):
    """The iterated lifting conjugated by U = I_C + W on the first level and
    by U + W' on the second: A -> W A W*, B -> W B, A' -> W' A' W'*,
    B' -> W' B' U*.  Returns it, U and U + W'."""
    first, second = it.first, it.second
    u = block_diag(np.eye(first.C.dim), w)
    a = RowContraction(w @ first.A.ops @ w.conj().T)
    first_u = lifting_from_blocks(first.C, a, w @ first.B)
    ap = RowContraction(wp @ second.A.ops @ wp.conj().T)
    second_u = lifting_from_blocks(first_u.E, ap, wp @ second.B @ u.conj().T)
    return iterate_liftings(first_u, second_u), u, block_diag(u, wp)


def _ambient(fn) -> np.ndarray:
    op = fn.op
    return op.cod.basis @ op.flat @ op.dom.basis.conj().T


def _covariance_residual(fn, fn_u, left, right) -> float:
    """max_w || M_u(w) - left M(w) (I_d (x) right)* ||."""
    d = fn.op.basis.d
    expected = left @ _ambient(fn) @ np.kron(np.eye(d), right).conj().T
    return float(np.abs(_ambient(fn_u) - expected).max())


@pytest.mark.parametrize("i", range(10))
def test_symbols_and_verdicts_are_covariant(i):
    d = 1 + i % 3
    dims = (1 + i % 2, 1 + (i // 2) % 2, 1 + (i // 4) % 2)
    it = random_iterated_lifting(np.random.default_rng([21, i]), d, dims)
    rng = np.random.default_rng([21, i, 1])
    w, wp = random_unitary(rng, it.first.A.dim), random_unitary(rng, it.second.A.dim)
    it_u, u, u2 = _conjugated(it, w, wp)

    for lift, lift_u, right in ((it.first, it_u.first, u),
                                (it.as_c_lifting, it_u.as_c_lifting, u2)):
        fn, fn_u = lifting_char_fn(lift, DEGREE), lifting_char_fn(lift_u, DEGREE)
        assert _covariance_residual(fn, fn_u, np.eye(d * lift.C.dim), right) < 1e-12
    for a, a_u, v in ((it.first.A, it_u.first.A, w), (it.second.A, it_u.second.A, wp)):
        assert _covariance_residual(row_char_fn(a, DEGREE), row_char_fn(a_u, DEGREE), v, v) < 1e-12

    lines = run_battery(it.first, it, DEGREE, 1e-8, "all")
    lines_u = run_battery(it_u.first, it_u, DEGREE, 1e-8, "all")
    assert [(r.name, r.passed) for r in lines_u] == [(r.name, r.passed) for r in lines]
