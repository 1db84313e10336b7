"""Row strips: the short recurrences' vector passes give the same runs
whether a vector is one strip or many."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpkrylov import (BiLQState, Operator, PartitionedSystem, QMRState,
                      gpbilq_solve, gpqmr_solve, reduction, reduction_init,
                      reduction_step)
from gpkrylov.reduction import strips

SOLVERS = {
    "gpbilq": lambda s, **kw: gpbilq_solve(s, monitor="l", **kw),
    "gpbicg": lambda s, **kw: gpbilq_solve(s, monitor="c", **kw),
    "gpqmr": gpqmr_solve,
}
FIELDS = ("x", "y", "x_c", "y_c")
ROUNDING = 2.2e-16


def desk_family(m, n, seed, lam=1.0, mu=-0.5):
    """A system of the benchmark's desk batch family: A ~ N(0, 0.25/n),
    B ~ N(0, 0.25/m), b, c ~ N(0, 1)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) * (0.5 / np.sqrt(n))
    B = rng.standard_normal((n, m)) * (0.5 / np.sqrt(m))
    return PartitionedSystem(lam, mu, Operator.from_matrix(A),
                             Operator.from_matrix(B),
                             rng.standard_normal(m), rng.standard_normal(n))


def relative_gap(a, b):
    return np.linalg.norm(b - a) / max(np.linalg.norm(a), np.finfo(float).tiny)


def perturbed(sys_, seed):
    """``sys_`` with b and c moved at the rounding level (2.2e-16 relative)."""
    rng = np.random.default_rng(seed)
    return PartitionedSystem(sys_.lam, sys_.mu, sys_.A, sys_.B,
                             sys_.b * (1 + ROUNDING * rng.standard_normal(sys_.m)),
                             sys_.c * (1 + ROUNDING * rng.standard_normal(sys_.n)))


def check_strips(method, sys_, rows=7, **kw):
    """A run at STRIP_ROWS = ``rows`` against the whole run: the same
    iterations and exit reason, and each iterate within 1e-13 relative or
    within 100 times the largest move that two rounding-level perturbations
    of b and c cause in the whole run.  Striped sums round differently, and
    the two-sided recurrences carry any rounding difference forward as they
    carry those of the input."""
    whole = SOLVERS[method](sys_, **kw)
    moved = [SOLVERS[method](perturbed(sys_, seed), **kw) for seed in (1, 2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "STRIP_ROWS", rows)
        striped = SOLVERS[method](sys_, **kw)
    assert (striped.iterations, striped.reason) == (whole.iterations, whole.reason)
    for name in FIELDS:
        a, b = getattr(whole, name), getattr(striped, name)
        assert (a is None) == (b is None), name
        if a is not None:
            noise = max(np.inf if getattr(r, name) is None
                        else relative_gap(a, getattr(r, name)) for r in moved)
            assert relative_gap(a, b) <= max(1e-13, 100 * noise), name


def test_strips_cover_the_rows_with_matching_views(monkeypatch):
    monkeypatch.setattr(reduction, "STRIP_ROWS", 7)
    vec, block = np.arange(30.0), np.asfortranarray(np.arange(60.0).reshape(30, 2))
    got = list(strips(vec, block))
    assert [(len(v), len(b)) for v, b in got] == [(7, 7)] * 4 + [(2, 2)]
    assert all(np.shares_memory(v, vec) and np.shares_memory(b, block)
               for v, b in got)
    np.testing.assert_array_equal(np.concatenate([v for v, _ in got]), vec)
    np.testing.assert_array_equal(np.concatenate([b for _, b in got]), block)


def test_arrays_that_fit_one_strip_come_whole(monkeypatch):
    monkeypatch.setattr(reduction, "STRIP_ROWS", 7)
    vec, block = np.zeros(7), np.zeros((7, 3), order="F")
    (strip,) = strips(vec, block)
    assert strip[0] is vec and strip[1] is block


class Rows:
    """A length that records the row slices taken of it."""

    def __init__(self, rows):
        self.rows, self.cuts = rows, []

    def __len__(self):
        return self.rows

    def __getitem__(self, cut):
        self.cuts.append(cut)
        return cut


def test_strips_are_made_one_at_a_time(monkeypatch):
    monkeypatch.setattr(reduction, "STRIP_ROWS", 7)
    rows = Rows(30)
    walk = strips(rows)
    assert next(walk) == [slice(0, 7)] and rows.cuts == [slice(0, 7)]
    assert next(walk) == [slice(7, 14)] and len(rows.cuts) == 2


@pytest.mark.parametrize("m, n", [(40, 25), (25, 40)])
def test_one_reduction_step_in_strips(m, n, monkeypatch):
    # the updates are elementwise, so only the sums of the inner products
    # and norms round differently
    sys_ = desk_family(m, n, seed=70)
    states = []
    for rows in (2 ** 15, 7):
        monkeypatch.setattr(reduction, "STRIP_ROWS", rows)
        red = reduction_init(sys_)
        coeffs = reduction_step(red, sys_)
        states.append((red, coeffs))
    (a, ca), (b, cb) = states
    np.testing.assert_allclose([*cb, b.beta, b.gamma, b.delta, b.eta],
                               [*ca, a.beta, a.gamma, a.delta, a.eta], rtol=1e-14)
    assert b.vec_scale == pytest.approx(a.vec_scale, rel=1e-14)
    for name in ("p_cur", "q_cur", "u_cur", "v_cur"):
        assert relative_gap(getattr(a, name), getattr(b, name)) <= 1e-14


# Runs to the benchmark's relative tolerance on the desk family; the
# largest gap here is 9.0e-14, 1.6 times the rounding-level move.
@pytest.mark.parametrize("seed", [71, 72])
@pytest.mark.parametrize("m, n", [(200, 150), (150, 200), (61, 45), (45, 61)])
@pytest.mark.parametrize("method", SOLVERS)
def test_striped_run_matches_the_whole_run(method, m, n, seed):
    assert m % 7 and n % 7
    sys_ = desk_family(m, n, seed)
    check_strips(method, sys_, tol=1e-6 * sys_.rhs_norm)


# Fixed budgets below min(m, n), where the exit cannot hinge on rounding.
# Over 900 runs of 12 steps the gap was at most 14 times the rounding-level
# move; gaps themselves reach 9e-9 (33 x 16, lam 0.66, mu -1.08, 6 steps),
# where a 1.1e-16 relative perturbation of b moves the whole run as much.
@settings(max_examples=25, deadline=None)
@given(st.integers(9, 120), st.integers(9, 120), st.integers(0, 2 ** 31 - 1),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_striped_run_matches_over_shapes_and_scalars(m, n, seed, lam, mu):
    sys_ = desk_family(m, n, seed, lam, mu)
    for method in SOLVERS:
        check_strips(method, sys_, tol=0.0, maxit=8)


STATES = {"gpbilq": (BiLQState, ("l",)), "gpbicg": (BiLQState, ("c",)),
          "gpqmr": (QMRState, ())}


@pytest.mark.parametrize("method", STATES)
def test_direction_updates_touch_one_strip_of_scratch(method, monkeypatch):
    # at STRIP_ROWS = 28 the direction updates write scratch rows 0-6 alone,
    # so the rest of each full-length scratch is never written or resident
    cls, args = STATES[method]
    monkeypatch.setattr(reduction, "STRIP_ROWS", 28)
    st = cls(desk_family(61, 45, seed=74), *args)
    for scratch in (st.sx, st.sy):
        scratch.fill(np.nan)
    for _ in range(6):
        st.advance()
        st.estimate()
    st.iterate()
    for scratch in (st.sx, st.sy):
        assert not np.isnan(scratch[:7]).any() and np.isnan(scratch[7:]).all()


def test_patched_strip_rows_splits_the_sweep_and_the_direction_update(monkeypatch):
    # the striped run (STRIP_ROWS = 28) sweeps in 28-row strips and updates
    # directions, the only caller that passes a size, in 7-row strips
    seen = {}
    split = reduction.strips

    def recorded(*arrays, size=None):
        for strip in split(*arrays, size=size):
            if reduction.STRIP_ROWS == 28:
                seen.setdefault(size, set()).add((len(arrays[0]), len(strip[0])))
            yield strip

    sys_ = desk_family(61, 45, seed=75)
    monkeypatch.setattr(reduction, "strips", recorded)
    for method in SOLVERS:
        seen.clear()
        check_strips(method, sys_, rows=28, tol=1e-6 * sys_.rhs_norm)
        assert seen == {None: {(61, 28), (61, 5), (45, 28), (45, 17)},
                        7: {(61, 7), (61, 5), (45, 7), (45, 3)}}, method


def stepped_iterates(method, sys_, steps):
    """The monitored iterate x|y after each of ``steps`` solve-loop steps,
    with a check that the reduction's q and u buffers are the blocks'
    basis slots: q_k, u_k in the last column at odd k, column 0 at even k."""
    cls, args = STATES[method]
    st = cls(sys_, *args)
    red, out = st.red, []
    for _ in range(steps):
        st.advance()
        st.estimate()
        odd = red.k % 2
        for cur, prev, block in ((red.q_cur, red.q_prev, st.fx),
                                 (red.u_cur, red.u_prev, st.fy)):
            assert np.shares_memory(cur, block[:, -1 if odd else 0])
            assert np.shares_memory(prev, block[:, 0 if odd else -1])
        out.append(np.concatenate(st.iterate()))
    return out


@pytest.mark.parametrize("method", STATES)
def test_direction_update_in_strips_matches_one_strip(method, monkeypatch):
    # 40 and 25 rows in 1-row direction-update strips; k = 1..8 covers both
    # parities of the block layout and gpbilq's k = 1 step, which has no
    # direction update.  The reduction's sums stay in one strip: their
    # order moves its scalars, which the two-sided recurrences amplify (to
    # 1.7e-11 in 8 steps on this family; see test_one_reduction_step_in_strips
    # and check_strips), whereas the directions feed only the iterate
    sweep = reduction._sweep

    def whole_sweep(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "STRIP_ROWS", 2 ** 15)
            return sweep(*args)

    sys_ = desk_family(40, 25, seed=73)
    whole = stepped_iterates(method, sys_, 8)
    monkeypatch.setattr(reduction, "STRIP_ROWS", 7)
    monkeypatch.setattr(reduction, "_sweep", whole_sweep)
    striped = stepped_iterates(method, sys_, 8)
    for a, b in zip(whole, striped):
        assert relative_gap(a, b) <= 1e-13
