"""Paired direction updates: gpbilq, gpbicg and gpqmr hold every other
step's direction coefficients and apply two steps as one map per side.
A paired run must give the exits and estimates of a run that flushes every
step (each step's map applied alone), and its iterates within rounding."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gpkrylov import (BiLQState, QMRState, gpbilq_solve, gpqmr_solve, reduction,
                      reduction_init, reduction_step)
from gpkrylov.convergence import _solve
from gpkrylov.verify import live_directions

from gpk_support import make_system
from test_strips import desk_family, relative_gap

STATES = {"gpbilq": (BiLQState, ("l",)), "gpbicg": (BiLQState, ("c",)),
          "gpqmr": (QMRState, ())}
# Largest paired-against-flushed gap over 20 seeds of the desk family at
# 200 x 150, 61 x 45, 45 x 61 and 30 x 30, to tolerance and at 12 steps:
# 4.4e-14, at most 0.6 times what a rounding-level change of b and c moves.
GAP = 1e-13


def state(method, sys_, flush_at=()):
    """The method's state; after each step whose k is in ``flush_at`` (all
    steps for None) it flushes, so pairs start one step later."""
    cls, args = STATES[method]
    st = cls(sys_, *args)
    advance = st.advance

    def step():
        coeffs = advance()
        if flush_at is None or st.k in flush_at:
            st.flush()
        return coeffs
    st.advance = step
    return st


def run(method, sys_, tol, maxit, flush_at=(), explicit=False):
    st = state(method, sys_, flush_at)
    held = []
    iterate = st.iterate

    def exit_iterate():  # the first read is the exit's, or each step's when explicit
        held.append(st.held is not None)
        return iterate()
    st.iterate = exit_iterate
    res = _solve(sys_, st, tol, maxit, explicit)
    return res, held[0] if held else None


def assert_paired_matches_flushed(method, sys_, tol, maxit, flush_at=()):
    """Returns whether the paired run's exit found a held step."""
    (paired, held), (flushed, _) = (run(method, sys_, tol, maxit, flush_at),
                                    run(method, sys_, tol, maxit, None))
    assert (paired.iterations, paired.reason) == (flushed.iterations, flushed.reason)
    assert_array_equal(paired.record.est_residuals(), flushed.record.est_residuals())
    for name in ("x", "y", "x_l", "y_l", "x_c", "y_c"):
        a, b = getattr(flushed, name), getattr(paired, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert relative_gap(a, b) <= GAP, name
    assert paired.residual == pytest.approx(flushed.residual, rel=1e-9,
                                            abs=1e-12 * sys_.rhs_norm)
    return held


# gpqmr holds steps 1, 3, 5, ... and gpbilq 2, 4, 6, ...; a flush at
# step 1 (gpqmr) or 2 (gpbilq) moves its pairs by one step
SHIFTS = [(), (1,), (2,)]


@pytest.mark.parametrize("flush_at", SHIFTS)
@pytest.mark.parametrize("method", STATES)
def test_paired_runs_match_flushed_runs_on_both_parities(method, flush_at):
    for seed, (m, n) in enumerate([(200, 150), (61, 45), (45, 61)]):
        sys_ = desk_family(m, n, 80 + seed)
        assert_paired_matches_flushed(method, sys_, 1e-6 * sys_.rhs_norm, None, flush_at)
        assert_paired_matches_flushed(method, sys_, 0.0, 9, flush_at)


@pytest.mark.parametrize("method", STATES)
def test_exits_on_a_held_step_and_on_a_completed_pair(method):
    sys_ = desk_family(61, 45, 84)
    held = {maxit: assert_paired_matches_flushed(method, sys_, 0.0, maxit)
            for maxit in range(6)}
    assert held[0] is False  # maxit 0 exits before a first step
    assert {held[3], held[4]} == {True, False}


@pytest.mark.parametrize("method", STATES)
def test_breakdown_on_a_held_step_and_on_a_completed_pair(method):
    # the reduction breaks down at k = 4 on the 6 x 4 system (exit
    # breakdown) and ends exactly at k = 4 on the 4 x 4 one (converged by
    # the certificate)
    for sys_, reason in ((make_system(6, 4, 3), "breakdown"),
                         (make_system(4, 4, 1), "converged")):
        held = set()
        for flush_at in SHIFTS:
            held.add(assert_paired_matches_flushed(method, sys_, 1e-10 * sys_.rhs_norm,
                                                   None, flush_at))
            res, _ = run(method, sys_, 1e-10 * sys_.rhs_norm, None, flush_at)
            assert (res.reason, res.iterations, res.breakdown.iteration) == (reason, 4, 5)
        assert held == {True, False}


def test_transfer_iterate_read_at_a_held_step():
    sys_ = desk_family(61, 45, 85)
    paired, flushed = state("gpbicg", sys_), state("gpbicg", sys_, None)
    read = 0
    for _ in range(12):
        paired.advance()
        flushed.advance()
        # a read flushes; reading every third step leaves pairs between
        if paired.k % 3 == 0 and paired.held is not None and paired.attempt_transfer():
            flushed.attempt_transfer()
            for a, b in zip(flushed.transfer_iterate(), paired.transfer_iterate()):
                assert relative_gap(a, b) <= GAP
            assert paired.held is None
            read += 1
    assert read >= 3


@pytest.mark.parametrize("method", STATES)
def test_paired_map_in_several_strips(method, monkeypatch):
    # 61 and 45 rows end in a partial 7-row sweep strip, and the direction
    # updates run in 1-row strips; both runs sum the reduction in the same
    # strips, so only the direction updates differ
    monkeypatch.setattr(reduction, "STRIP_ROWS", 7)
    sys_ = desk_family(61, 45, 86)
    assert_paired_matches_flushed(method, sys_, 1e-6 * sys_.rhs_norm, None)
    assert_paired_matches_flushed(method, sys_, 0.0, 9, (1, 2))


@pytest.mark.parametrize("method", STATES)
def test_explicit_residual_runs_are_the_flushed_path(method):
    # the explicit residual reads the iterate after every step, and the
    # read flushes it, so no pair forms: the run is bit-equal to a flushed
    # one of its length
    sys_ = desk_family(61, 45, 87)
    explicit, _ = run(method, sys_, 1e-6 * sys_.rhs_norm, None, explicit=True)
    flushed, _ = run(method, sys_, 0.0, explicit.iterations, None)
    assert explicit.iterations > 9
    for name in ("x", "y"):
        assert_array_equal(getattr(explicit, name), getattr(flushed, name))


@pytest.mark.parametrize("method", STATES)
def test_paired_reduction_is_the_bare_reduction_bit_for_bit(method):
    # a state defers the normalizing divisions past its direction update;
    # a bare reduction_step makes them at once, with the same arithmetic
    sys_ = desk_family(61, 45, 88)
    st, red = state(method, sys_), reduction_init(sys_)
    for _ in range(9):
        coeffs = st.advance()
        assert coeffs == reduction_step(red, sys_)
        for name in ("p_cur", "q_cur", "u_cur", "v_cur", "q_prev", "u_prev"):
            assert_array_equal(getattr(st.red, name), getattr(red, name))
        assert (st.red.beta, st.red.gamma, st.red.delta, st.red.eta) == \
            (red.beta, red.gamma, red.delta, red.eta)


def test_public_solvers_pair_their_steps():
    sys_ = desk_family(61, 45, 89)
    for solve, method in ((gpbilq_solve, "gpbilq"), (gpqmr_solve, "gpqmr")):
        res = solve(sys_, tol=0.0, maxit=9)
        paired, _ = run(method, sys_, 0.0, 9)
        assert_array_equal(res.x, paired.x)
        assert_array_equal(res.y, paired.y)
    flushed, _ = run("gpqmr", sys_, 0.0, 9, None)
    assert not np.array_equal(flushed.x, paired.x)


def held_exits(method, sys_):
    """States whose last ``advance()`` left a held step, on both parities:
    a fresh state per shift of SHIFTS and number of steps up to 9."""
    for flush_at in SHIFTS:
        for count in range(2, 10):
            st = state(method, sys_, flush_at)
            for _ in range(count):
                st.advance()
            if st.held is not None:
                yield st


def held_step_input(st):
    """Step k's input, x side over y side, in the order of ``st.held``'s
    rows: the directions oldest first as step k-1 left them (after an odd
    step its new pair leads), then [q_k; 0] and [0; u_k]."""
    dirs = np.vstack((st.fx, st.fy))[:, 1:-1]
    if st.k % 2 == 0:
        dirs = np.hstack((dirs[:, 2:], dirs[:, :2]))
    q_k = np.concatenate((st.red.q_prev, np.zeros(st.sys.n)))
    u_k = np.concatenate((np.zeros(st.sys.m), st.red.u_prev))
    return np.column_stack((dirs, q_k, u_k))


@pytest.mark.parametrize("method", ["gpbilq", "gpqmr"])
def test_flush_applies_the_held_step_as_its_rows_say(method):
    # the reference sums the rows' terms column by column; a result may
    # differ by 1e-14 of the summed term magnitudes, which no summation
    # order of at most six terms reaches
    sys_ = desk_family(61, 45, 90)
    parities = set()
    for st in held_exits(method, sys_):
        inputs, rows = held_step_input(st), np.array(st.held)
        new = sum(np.outer(col, row[:2]) for col, row in zip(inputs.T, rows))
        incr = sum(col * row[2] for col, row in zip(inputs.T, rows))
        dirs, xy = inputs[:, :-2], np.concatenate((st.x, st.y))
        expect = [(np.hstack((dirs[:, 2:], new)),
                   np.hstack((abs(dirs[:, 2:]), abs(inputs) @ abs(rows[:, :2])))),
                  (xy + incr, abs(xy) + abs(inputs) @ abs(rows[:, 2]))]
        st.flush()
        got = (live_directions(st), np.concatenate((st.x, st.y)))
        for value, (want, size) in zip(got, expect):
            assert np.all(abs(value - want) <= 1e-14 * size)
        parities.add(st.k % 2)
    assert parities == {0, 1}


@pytest.mark.parametrize("method", ["gpbilq", "gpqmr"])
def test_flush_never_reads_the_next_basis_slot(method):
    # at a held step the slots of q_{k+1} and u_{k+1} are outside step k's
    # input: poisoned, they must not reach the iterate or the directions
    sys_ = desk_family(61, 45, 91)
    parities = set()
    for st, twin in zip(held_exits(method, sys_), held_exits(method, sys_)):
        st.red.q_cur.fill(np.nan)
        st.red.u_cur.fill(np.nan)
        st.flush()
        twin.flush()
        for a, b in ((st.x, twin.x), (st.y, twin.y), (st.fx[:, 1:-1], twin.fx[:, 1:-1]),
                     (st.fy[:, 1:-1], twin.fy[:, 1:-1])):
            assert_array_equal(a, b)
        parities.add(st.k % 2)
    assert parities == {0, 1}
