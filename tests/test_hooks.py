"""The benchmark's tracer (``perfbench.spans``) rebinds solver functions and
methods by name.  A rename under ``src/`` breaks it without failing a test
of the solvers, so this module guards every traced name here."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from gpkrylov import gpbilq_solve, gpmr_solve, gpqmr_solve  # noqa: E402
from perfbench.spans import TARGETS, Tracer  # noqa: E402

from gpk_support import make_system  # noqa: E402


def test_benchmark_targets_trace_a_solve_and_are_restored():
    originals = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    sys_ = make_system(12, 9, seed=5)
    with Tracer().installed() as tracer:
        for method, solve in (("gpbilq", gpbilq_solve), ("gpqmr", gpqmr_solve),
                              ("gpmr", gpmr_solve)):
            res = tracer.run_solve(method, solve, sys_, tol=0.0, maxit=3)
            assert (res.reason, res.iterations) == ("maxit", 3)
    assert tracer.solve_methods == ["gpbilq", "gpqmr", "gpmr"]
    assert [owner.__dict__[attr] for owner, attr, _ in TARGETS] == originals
