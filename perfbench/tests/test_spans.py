import types

import numpy as np
import pytest

from gpkrylov import Operator, PartitionedSystem, gpbilq, gpqmr, reduction
from perfbench import bench
from perfbench.spans import SOLVE, Tracer, layer_totals, self_times


def test_self_time_subtracts_direct_children_only():
    # 0 encloses 1 and 2; 1 encloses 3
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 7.0, 3.0]
    assert np.allclose(self_times(parent, start, end), [5.0, 2.0, 2.0, 1.0])


def _fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    return mod


def test_spans_nest_under_the_solve_and_targets_are_restored():
    mod = _fake_module()
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    with tracer.installed([(mod, "outer", "a"), (mod, "inner", "b")]):
        assert tracer.run_solve("m", lambda: mod.outer(1)) == 4
    assert (mod.inner, mod.outer) == originals
    name_id, parent, solve, start, end = tracer.arrays()
    names = [tracer.names[i] for i in name_id]
    assert names == [SOLVE, "fake.outer", "fake.inner", "fake.inner"]
    assert list(parent) == [-1, 0, 1, 1]
    assert list(solve) == [0, 0, 0, 0]
    own = self_times(parent, start, end)
    assert own[1] == pytest.approx((end[1] - start[1]) - (end[2] - start[2])
                                   - (end[3] - start[3]))
    totals = layer_totals(tracer)["m"]
    assert totals["b"][1] == 2 and totals["a"][1] == 1
    assert sum(t for t, _ in totals.values()) == pytest.approx(end[0] - start[0])


def test_spans_outside_a_solve_are_not_attributed():
    mod = _fake_module()
    tracer = Tracer()
    with tracer.installed([(mod, "inner", "b")]):
        mod.inner(0)
        tracer.run_solve("m", mod.inner, 0)
    name_id, parent, solve, start, end = tracer.arrays()
    assert list(solve) == [-1, 0, 0]
    own, calls = layer_totals(tracer)["m"]["b"]
    assert calls == 1
    assert own == pytest.approx(end[2] - start[2])


@pytest.mark.parametrize("method", ["gpbilq", "gpbicg", "gpqmr"])
def test_short_recurrences_apply_four_operators_per_iteration(method):
    rng = np.random.default_rng(1)
    A, B = rng.standard_normal((12, 9)), rng.standard_normal((9, 12))
    s = PartitionedSystem(1.0, -0.5, Operator.from_matrix(A),
                          Operator.from_matrix(B), rng.standard_normal(12),
                          rng.standard_normal(9))
    tracer = Tracer()
    with tracer.installed():
        res = tracer.run_solve(method, bench.SOLVERS[method], s, 0.0, 6)
    assert res.iterations == 6
    assert layer_totals(tracer)[method]["linop"][1] == 4 * res.iterations
    assert gpbilq.reduction_step is reduction.reduction_step
    assert gpqmr.reduction_step is reduction.reduction_step
    assert Operator.apply.__name__ == "apply"
