"""The benchmark's tracer (``perfbench.spans``) rebinds solver functions and
methods by name.  A rename under ``src/`` breaks it without failing a test
of the solvers, so this module guards every traced name here."""

from gpk_support import SOLVERS, make_system
from perfbench.spans import TARGETS, Tracer


def test_benchmark_targets_trace_a_solve_and_are_restored():
    originals = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    sys_ = make_system(12, 9, seed=5)
    with Tracer().installed() as tracer:
        for method in ("gpbilq", "gpqmr", "gpmr"):
            res = tracer.run_solve(method, SOLVERS[method], sys_, tol=0.0, maxit=3)
            assert (res.reason, res.iterations) == ("maxit", 3)
    assert tracer.solve_methods == ["gpbilq", "gpqmr", "gpmr"]
    assert [owner.__dict__[attr] for owner, attr, _ in TARGETS] == originals
