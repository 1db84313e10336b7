import math
from types import SimpleNamespace

import numpy as np
import pytest

from gpkrylov import Operator, PartitionedSystem
from gpkrylov.convergence import CONVERGED, MAXIT, ConvergenceRecord
from perfbench import bench
from perfbench.bench import Workload, classify


@pytest.mark.parametrize("args, expected", [
    ((CONVERGED, 30, True, 0.5e-6, 1.0, 1e-6, 100), None),
    ((CONVERGED, 30, True, 2e-6, 1.0, 1e-6, 100), "false converged"),
    ((MAXIT, 100, True, 2e-6, 1.0, 1e-6, 100), "maxit above tol"),
    ((MAXIT, 50, True, 10.0, 1.0, 0.0, 50), None),
    (("breakdown", 12, True, 1e-3, 1.0, 0.0, 50), "stopped early (breakdown)"),
    ((CONVERGED, 30, False, 0.0, 1.0, 1e-6, 100), "nonfinite"),
    ((MAXIT, 50, True, math.nan, 1.0, 0.0, 50), "nonfinite"),
])
def test_classify(args, expected):
    assert classify(*args) == expected


def _system():
    rng = np.random.default_rng(2)
    return PartitionedSystem(1.0, -0.5, Operator.from_matrix(rng.standard_normal((6, 4))),
                             Operator.from_matrix(rng.standard_normal((4, 6))),
                             rng.standard_normal(6), rng.standard_normal(4))


WL = Workload("test", None, 1.0, -0.5, pool=1, setups=1,
              runs=bench._all(1e-6, 10), mem_k=2, ref_iters=2, ref_nominal_us=1.0)
CLOCK = bench.Pool(WL, 0).clock


def _fake_result(x, y, reason, iterations, residual):
    return SimpleNamespace(x=x, y=y, reason=reason, iterations=iterations,
                           residual=residual, record=ConvergenceRecord())


def test_a_reported_convergence_is_checked_against_the_true_residual(monkeypatch):
    s = _system()
    monkeypatch.setitem(bench.SOLVERS, "gpqmr", lambda sys_, tol, maxit: _fake_result(
        np.zeros(6), np.zeros(4), CONVERGED, 3, 0.0))
    solve = bench.run_solve(WL, "gpqmr", 0, s, CLOCK)
    assert solve.failure == "false converged"
    assert solve.true_res == pytest.approx(s.rhs_norm)


def test_raising_and_nonfinite_solves_fail(monkeypatch):
    def boom(sys_, tol, maxit):
        raise FloatingPointError("bad pivot")
    monkeypatch.setitem(bench.SOLVERS, "gpbilq", boom)
    monkeypatch.setitem(bench.SOLVERS, "gpmr", lambda sys_, tol, maxit: _fake_result(
        np.full(6, np.nan), np.zeros(4), MAXIT, 10, 1.0))
    raised = bench.run_solve(WL, "gpbilq", 0, _system(), CLOCK)
    assert raised.failure == "raised FloatingPointError: bad pivot"
    assert bench.run_solve(WL, "gpmr", 0, _system(), CLOCK).failure == "nonfinite"
