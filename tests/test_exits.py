"""Exit certification over shapes and scalars: where the solve loop trusts
no residual, what it reports is the true residual of what it returns."""

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpkrylov import gpmr_solve, residual_norm

from gpk_support import SOLVERS, make_system

SCALARS = (-1.0, -0.5, 0.0, 1.0, 2.0)
METHODS = {**SOLVERS, "gpmr3": partial(gpmr_solve, restart=3)}


def _agrees(reported, true):
    return math.isclose(reported, true, rel_tol=1e-12) or (
        math.isnan(reported) and math.isnan(true))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from(SCALARS),
       st.sampled_from(SCALARS), st.booleans(), st.integers(0, 2**16))
def test_certified_exits_report_the_returned_iterate(m, n, lam, mu, symmetric, seed):
    # certified: every breakdown, every exit at a stopped reduction and every
    # exit without an estimate (recorded as NaN); at a stopped reduction
    # gpbilq and gpbicg return the better of the two iterates they hold
    sys_ = make_system(m, n, seed, lam, mu, symmetric=symmetric)
    tol = 1e-8 * sys_.rhs_norm
    for method, solve in METHODS.items():
        res = solve(sys_, tol)
        true = residual_norm(sys_, res.x, res.y)
        if (res.reason == "breakdown" or res.breakdown is not None
                or math.isnan(res.record.rows[-1].est_residual)):
            assert _agrees(res.residual, true), (method, res.reason, res.iterations)
        if method in ("gpbilq", "gpbicg") and res.breakdown is not None:
            for x, y in ((res.x_l, res.y_l), (res.x_c, res.y_c)):
                if x is not None:
                    assert true <= residual_norm(sys_, x, y) * (1 + 1e-12), (
                        method, res.iterations)


@pytest.mark.parametrize("lam, mu", [(1e12, -1.0), (1.0, -1e12)])
@pytest.mark.parametrize("method", ["gpqmr", "gpmr"])
def test_badly_scaled_shift_converges_truthfully(method, lam, mu):
    # gpbilq and gpbicg stop here too, at k = 2, with a true residual about
    # 1e4 x tol (ROADMAP item 2); gpqmr and gpmr meet tol and say so
    sys_ = make_system(12, 12, 1, lam, mu)
    tol = 1e-8 * sys_.rhs_norm
    res = SOLVERS[method](sys_, tol)
    true = residual_norm(sys_, res.x, res.y)
    assert res.converged and true <= tol
    assert true / 3 <= res.residual <= 3 * true
