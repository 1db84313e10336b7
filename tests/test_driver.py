"""Contract of the solve loop shared by every public solver."""

import numpy as np
import pytest

from gpkrylov import (NONFINITE, Operator, PartitionedSystem, gpbilq_solve,
                      gpmr_solve, residual_norm)

from gpk_support import SOLVERS, make_system


def desk_system(**kw):
    return make_system(12, 9, seed=600, **kw)


@pytest.mark.parametrize("method", SOLVERS)
def test_maxit_zero_returns_the_zero_iterate(method):
    sys_ = desk_system()
    res = SOLVERS[method](sys_, tol=1e-10, maxit=0)
    assert res.reason == "maxit" and res.iterations == 0
    assert not res.x.any() and not res.y.any()
    assert [(r.k, r.est_residual) for r in res.record.rows] == [(0, sys_.rhs_norm)]
    assert res.breakdown is None


@pytest.mark.parametrize("method", SOLVERS)
def test_negative_maxit_is_rejected(method):
    with pytest.raises(ValueError, match="maxit"):
        SOLVERS[method](desk_system(), tol=1e-10, maxit=-1)


@pytest.mark.parametrize("method", SOLVERS)
@pytest.mark.parametrize("maxit", [2.5, 3.0, True, False])
def test_non_integer_maxit_is_rejected(method, maxit):
    with pytest.raises(ValueError, match=f"maxit must be an integer, got {maxit}"):
        SOLVERS[method](desk_system(), tol=1e-10, maxit=maxit)


def test_non_integer_restart_is_rejected():
    for restart in (2.5, True):
        with pytest.raises(ValueError, match=f"restart must be an integer, got {restart}"):
            gpmr_solve(desk_system(), tol=1e-10, maxit=5, restart=restart)


@pytest.mark.parametrize("method", SOLVERS)
def test_numpy_integer_maxit_is_valid(method):
    res = SOLVERS[method](desk_system(), tol=1e-30, maxit=np.int64(3))
    assert res.reason == "maxit" and res.iterations == 3


@pytest.mark.parametrize("method", SOLVERS)
@pytest.mark.parametrize("tol", [-1e-10, np.nan])
def test_negative_or_nan_tol_is_rejected(method, tol):
    with pytest.raises(ValueError, match="tol must be >= 0"):
        SOLVERS[method](desk_system(), tol=tol, maxit=5)


@pytest.mark.parametrize("method", SOLVERS)
@pytest.mark.parametrize("tol, reason", [(0.0, "maxit"), (np.inf, "converged")])
def test_zero_and_infinite_tol_are_valid(method, tol, reason):
    res = SOLVERS[method](desk_system(), tol=tol, maxit=5)
    assert res.reason == reason


@pytest.mark.parametrize("method", SOLVERS)
def test_budget_exhaustion_records_every_iteration(method):
    res = SOLVERS[method](desk_system(), tol=1e-30, maxit=5)
    assert res.reason == "maxit" and res.iterations == 5
    assert [r.k for r in res.record.rows] == list(range(6))
    assert res.record.reason == res.reason


@pytest.mark.parametrize("method", SOLVERS)
def test_explicit_residual_is_that_of_the_returned_iterate(method):
    sys_ = desk_system()
    res = SOLVERS[method](sys_, tol=1e-30, maxit=5, explicit_residual=True)
    assert res.residual == pytest.approx(residual_norm(sys_, res.x, res.y),
                                         rel=1e-12)


# operator applications of six explicit-residual steps on make_system(30, 20, 5)
EXPLICIT_APPLICATIONS = {"gpbilq": 34, "gpbicg": 36, "gpqmr": 36, "gpmr": 24}


@pytest.mark.parametrize("method", EXPLICIT_APPLICATIONS)
def test_explicit_residual_of_the_zero_iterate_costs_no_application(method):
    # four applications a step (two for gpmr) and two for each step's true
    # residual, except that of gpbilq's k = 1 minimum-norm iterate, which is
    # zero and certified as ||[b; c]||
    sys_ = make_system(30, 20, 5)
    counted, calls = _counted(sys_)
    res = SOLVERS[method](counted, tol=1e-30, maxit=6, explicit_residual=True)
    assert (res.reason, res.iterations) == ("maxit", 6)
    assert calls[0] == EXPLICIT_APPLICATIONS[method]
    if method == "gpbilq":
        assert res.record.rows[1].true_residual == sys_.rhs_norm


def _orthogonal_start(sys_):
    """``sys_`` with a start vector f orthogonal to b: the reduction cannot
    start."""
    f = np.random.default_rng(601).standard_normal(sys_.m)
    f -= (f @ sys_.b) / (sys_.b @ sys_.b) * sys_.b
    return PartitionedSystem(sys_.lam, sys_.mu, sys_.A, sys_.B, sys_.b, sys_.c,
                             f=f)


@pytest.mark.parametrize("method", ["gpbilq", "gpbicg", "gpqmr"])
def test_orthogonal_start_vectors_break_down_at_once(method):
    sys_ = _orthogonal_start(desk_system())
    res = SOLVERS[method](sys_, tol=1e-10, maxit=10)
    assert res.reason == "breakdown" and res.iterations == 0
    assert res.breakdown.iteration == 1
    assert not res.x.any() and not res.y.any() and res.residual == sys_.rhs_norm
    assert [(r.k, r.est_residual) for r in res.record.rows] == [(0, sys_.rhs_norm)]
    assert res.record.reason == "breakdown"
    if method != "gpqmr":
        assert not res.x_l.any() and not res.y_l.any() and res.x_c is None


@pytest.mark.parametrize("method", ["gpbilq", "gpbicg", "gpqmr"])
def test_stopped_start_goes_through_the_common_exit(method, monkeypatch):
    # no operator application, and no rescue at k = 0, where the window holds
    # no hand-off for gpbilq's transfer iterate; the zero iterate's residual
    # ||[b; c]|| decides converged against breakdown
    from gpkrylov.gpbilq import BiLQState

    def no_rescue(self):
        raise AssertionError("rescue() called before a first step")
    monkeypatch.setattr(BiLQState, "rescue", no_rescue)
    sys_, calls = _counted(_orthogonal_start(desk_system()))
    for tol, reason in ((0.5 * sys_.rhs_norm, "breakdown"), (sys_.rhs_norm, "converged")):
        res = SOLVERS[method](sys_, tol=tol)
        assert (res.reason, res.iterations) == (reason, 0) and res.record.reason == reason
        assert not res.x.any() and not res.y.any() and res.residual == sys_.rhs_norm
    assert calls[0] == 0
    res = SOLVERS[method](desk_system(), tol=2 * sys_.rhs_norm, maxit=0)
    assert (res.reason, res.residual) == ("maxit", sys_.rhs_norm)


def test_gpbilq_breakdown_returns_the_better_certified_iterate():
    # the identity-coupled reduction stops at k = n, where the minimum-norm
    # iterate's residual is 62.0 and the transfer iterate's 1.8e-7
    n = 30
    rng = np.random.default_rng(0)
    B = rng.standard_normal((n, n))
    b, c = rng.standard_normal(n), rng.standard_normal(n)
    sys_ = PartitionedSystem(1.0, -0.5, Operator.from_matrix(np.eye(n)),
                             Operator.from_matrix(B), b, c)
    res = gpbilq_solve(sys_, tol=1e-8)
    assert (res.reason, res.iterations) == ("breakdown", n)
    assert res.residual <= 1e-6
    assert res.residual == residual_norm(sys_, res.x, res.y)
    assert res.x is res.x_c and res.y is res.y_c
    assert residual_norm(sys_, res.x_l, res.y_l) == pytest.approx(62.0, abs=0.1)


def test_gpbicg_without_transfer_at_exit_returns_the_gpbilq_iterate():
    from test_acceptance import _singular_mid_run_system
    sys_ = _singular_mid_run_system()  # square-system iterate undefined at k=2
    res = gpbilq_solve(sys_, tol=1e-30, maxit=2, monitor="c")
    assert res.reason == "maxit" and res.record.rows[-1].transfer_defined is False
    assert res.x_c is None and res.x is res.x_l
    assert res.residual == residual_norm(sys_, res.x, res.y)


def _uncoupled(lam, mu):
    """The blocks of ``make_system(6, 4, 600)`` with B = 0: p~ vanishes at
    the first step, a lucky breakdown of the reduction, while q~ does not.
    Singular unless lam and mu are both nonzero."""
    blocks = make_system(6, 4, seed=600)
    return PartitionedSystem(lam, mu, blocks.A,
                             Operator.from_matrix(np.zeros((4, 6))),
                             blocks.b, blocks.c)


@pytest.mark.parametrize("lam, mu", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
@pytest.mark.parametrize("method", SOLVERS)
def test_zero_pivot_ends_as_breakdown(method, lam, mu):
    sys_ = _uncoupled(lam, mu)
    res = SOLVERS[method](sys_, tol=1e-10)
    assert res.reason == "breakdown" == res.record.reason
    assert res.record.rows[-1].k == res.iterations
    assert res.residual == pytest.approx(residual_norm(sys_, res.x, res.y),
                                         rel=1e-12)


@pytest.mark.parametrize("method", SOLVERS)
def test_breakdown_step_converges_only_on_the_true_residual(method):
    # nonsingular, but the estimates of gpbicg and gpqmr vanish with the
    # dead pair's scalars at k = 1, where the true residual is 5.1
    sys_ = _uncoupled(1.0, 1.0)
    res = SOLVERS[method](sys_, tol=1e-10)
    true = residual_norm(sys_, res.x, res.y)
    assert res.converged == (true <= 1e-10)
    assert res.reason in ("converged", "breakdown")
    assert res.residual == pytest.approx(true, rel=1e-12, abs=1e-14)


def _wrapped(sys_, wrap):
    """``sys_`` with each of A, A^T, B and B^T wrapped by ``wrap``."""
    A, B = sys_.A, sys_.B
    return PartitionedSystem(
        sys_.lam, sys_.mu,
        Operator(A.nrows, A.ncols, wrap(A.apply), wrap(A.apply_transpose)),
        Operator(B.nrows, B.ncols, wrap(B.apply), wrap(B.apply_transpose)),
        sys_.b, sys_.c, sys_.f, sys_.g)


def _counted(sys_):
    """``sys_`` wrapped to count its operator applications (A, A^T, B and
    B^T together), and the one-entry list that holds the count."""
    calls = [0]

    def wrap(fn):
        def apply(v):
            calls[0] += 1
            return fn(v)
        return apply

    return _wrapped(sys_, wrap), calls


def _nan_from_call(sys_, first):
    """``sys_`` with every operator result NaN from call ``first`` on
    (calls counted over A, A^T, B and B^T together)."""
    calls = [0]

    def wrap(fn):
        def apply(v):
            calls[0] += 1
            return fn(v) * np.nan if calls[0] >= first else fn(v)
        return apply

    return _wrapped(sys_, wrap)


# (operator applications, exit, iterations) of a run on _uncoupled(1.0, 1.0)
CERTIFIED = {"gpbilq": (6, "breakdown", 1), "gpbicg": (6, "breakdown", 1),
             "gpqmr": (6, "breakdown", 1), "gpmr": (5, "converged", 2)}


@pytest.mark.parametrize("method", CERTIFIED)
def test_failed_breakdown_certificate_evaluates_the_residual_once(method):
    # gpqmr: step 1 (four applications) breaks down with an estimate below
    # tol; the certificate's true residual (two more) misses tol and is the
    # one the run reports, not evaluated again.  gpbilq and gpbicg hold two
    # iterates at step 1: the zero minimum-norm one, certified as ||[b; c]||
    # = 3.39 without an application, and the transfer iterate, whose
    # certificate (two more) reads 5.15; both return the zero one.  gpmr:
    # the space closes at step 2 (three applications) and the certificate's
    # true residual (two more) meets tol
    sys_ = _uncoupled(1.0, 1.0)
    counted, calls = _counted(sys_)
    res = SOLVERS[method](counted, tol=1e-10)
    applications, reason, iterations = CERTIFIED[method]
    assert calls[0] == applications
    assert (res.reason, res.iterations) == (reason, iterations)
    assert res.residual == residual_norm(sys_, res.x, res.y)
    if method in ("gpbilq", "gpbicg"):
        assert not res.x.any() and res.residual == sys_.rhs_norm
        assert residual_norm(sys_, res.x_c, res.y_c) == pytest.approx(5.15, abs=0.01)
    elif reason == "breakdown":
        assert res.residual == pytest.approx(5.15, abs=0.01)


@pytest.mark.parametrize("method", ["gpbicg", "gpqmr"])
def test_certified_exit_is_converged_where_its_iterate_meets_tol(method):
    # gpbicg stops at step 1 without its iterate and returns the zero
    # minimum-norm one; gpqmr meets a zero pivot in step 1 and returns its
    # zero start.  Either way the certificate is ||[b; c]|| = 3.39
    sys_ = _uncoupled(0.0, 1.0)
    res = SOLVERS[method](sys_, tol=10.0)
    assert res.reason == "converged" == res.record.reason
    assert not res.x.any() and res.residual == sys_.rhs_norm


@pytest.mark.parametrize("n, maxit, reason", [(9, 3, "maxit"), (9, None, "breakdown"),
                                               (12, None, "converged")])
def test_gpbicg_returns_its_transfer_iterate(n, maxit, reason):
    res = gpbilq_solve(make_system(12, n, seed=600), tol=1e-8, maxit=maxit,
                       monitor="c")
    assert res.reason == reason
    assert res.x is res.x_c and res.y is res.y_c


@pytest.mark.parametrize("method", SOLVERS)
def test_nan_operator_stops_as_nonfinite(method):
    sys_ = _nan_from_call(make_system(30, 20, seed=602), first=5)
    res = SOLVERS[method](sys_, tol=1e-8, maxit=100)
    assert res.reason == NONFINITE == res.record.reason
    assert 1 <= res.iterations <= 3
    assert np.isnan(res.residual)


def test_results_compare_by_identity():
    sys_ = desk_system()
    for solve in SOLVERS.values():
        first, second = solve(sys_, tol=1e-8), solve(sys_, tol=1e-8)
        assert first == first and first != second and len({first, second}) == 2
