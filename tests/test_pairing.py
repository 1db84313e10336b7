"""Grouped direction updates: gpbilq, gpbicg and gpqmr hold the direction
coefficients of the steps since the last one in ring slot GROUP - 1 and
apply them as one composed map per side.  A grouped run must give the exits
and estimates of a run that flushes every step (each step's map applied
alone), and its iterates within rounding."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gpkrylov import reduction, reduction_init, reduction_step
from gpkrylov.convergence import _solve
from gpkrylov.reduction import GROUP
from gpkrylov.rotations import BandWindow, SingularWindowError
from gpkrylov.verify import live_directions

from gpk_support import SOLVERS, STATES, make_system
from test_strips import (assert_within_rounding, desk_family, perturbed,
                         relative_gap)

# Largest grouped-against-flushed gap over seeds 0-19 of the desk family at
# 200 x 150, 61 x 45, 45 x 61 and 30 x 30, to tolerance and at 12 steps:
# 5.1e-14, where paired steps read 4.1e-14.
GAP = 1e-13


def state(method, sys_, flush_at=()):
    """The method's state; after each step whose k is in ``flush_at`` (all
    steps for None) it flushes, which ends that step's group early."""
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
    """The solve's result and (k, held steps) at its first iterate read: the
    exit's, or each step's when explicit."""
    st = state(method, sys_, flush_at)
    held = []
    iterate = st.iterate

    def exit_iterate():
        held.append((st.k, st.held))
        return iterate()
    st.iterate = exit_iterate
    res = _solve(sys_, lambda: st, tol, maxit, explicit)
    return res, held[0] if held else None


def assert_grouped_matches_flushed(method, sys_, tol, maxit, flush_at=(),
                                   rounding=False):
    """Returns (k, held steps) at the grouped run's exit read.  With
    ``rounding`` the iterates are held to ``check_strips``' rule in place
    of GAP: within 1e-13 or 100 times the flushed run's move under two
    rounding-level perturbations of b and c."""
    (grouped, held), (flushed, _) = (run(method, sys_, tol, maxit, flush_at),
                                     run(method, sys_, tol, maxit, None))
    assert (grouped.iterations, grouped.reason) == (flushed.iterations, flushed.reason)
    assert_array_equal(grouped.record.est_residuals(), flushed.record.est_residuals())
    names = ("x", "y", "x_l", "y_l", "x_c", "y_c")
    if rounding:
        moved = [run(method, perturbed(sys_, seed), tol, maxit, None)[0]
                 for seed in (1, 2)]
        assert_within_rounding(flushed, grouped, moved, names)
    else:
        for name in names:
            a, b = getattr(flushed, name), getattr(grouped, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert relative_gap(a, b) <= GAP, name
    assert grouped.residual == pytest.approx(flushed.residual, rel=1e-9,
                                             abs=1e-12 * sys_.rhs_norm)
    return held


def offsets(held):
    """(first slot, held steps) of the groups that reads found held."""
    return {((k - h + 1) % GROUP, h) for k, h in held if h}


# every partial group: h held steps from slot a, a + h <= GROUP - 1
PARTIAL = {(a, h) for h in range(1, GROUP) for a in range(GROUP - h)}
# a flush at step j starts the next group at slot (j + 1) % GROUP
SHIFTS = [(), (1,), (2,), (3,), (4,), (5,)]


@pytest.mark.parametrize("flush_at", SHIFTS)
@pytest.mark.parametrize("method", STATES)
def test_paired_runs_match_flushed_runs_on_both_parities(method, flush_at):
    for seed, (m, n) in enumerate([(200, 150), (61, 45), (45, 61)]):
        sys_ = desk_family(m, n, 80 + seed)
        assert_grouped_matches_flushed(method, sys_, 1e-6 * sys_.rhs_norm, None, flush_at)
        assert_grouped_matches_flushed(method, sys_, 0.0, 9, flush_at)


@pytest.mark.parametrize("method", STATES)
def test_exits_on_a_held_step_and_on_a_completed_pair(method):
    # exits at k = 0..12 read the iterate after 0..3 held steps; with the
    # flushes of SHIFTS they cover every partial group at every ring offset
    sys_ = desk_family(61, 45, 84)
    held = {(maxit, flush_at): assert_grouped_matches_flushed(method, sys_, 0.0,
                                                              maxit, flush_at)
            for maxit in range(13) for flush_at in SHIFTS}
    assert held[0, ()] == (0, 0)  # maxit 0 exits before a first step
    assert {h for _, h in held.values()} == set(range(GROUP))
    assert offsets(held.values()) == PARTIAL


@pytest.mark.parametrize("method", STATES)
def test_breakdown_on_a_held_step_and_on_a_completed_pair(method):
    # the reduction breaks down at k = n on the (n + 2) x n system (exit
    # breakdown) and ends exactly at k = n on the n x n one (converged by
    # the certificate); n = 4..7 ends at every ring slot
    held = set()
    for n in range(4, 8):
        for sys_, reason in ((make_system(n + 2, n, 3), "breakdown"),
                             (make_system(n, n, 1), "converged")):
            for flush_at in SHIFTS:
                held.add(assert_grouped_matches_flushed(
                    method, sys_, 1e-10 * sys_.rhs_norm, None, flush_at))
                res, _ = run(method, sys_, 1e-10 * sys_.rhs_norm, None, flush_at)
                assert (res.reason, res.iterations, res.breakdown.iteration) == \
                    (reason, n, n + 1)
    assert {h for _, h in held} == set(range(GROUP))
    assert offsets(held) >= {(0, 1), (0, 2), (0, 3)}


@pytest.mark.parametrize("method", STATES)
def test_singular_window_inside_a_group(method, monkeypatch):
    # a window pivot that vanishes in bundle i stops the solve at the step
    # before it, as a breakdown, on whatever that step's group holds
    sys_ = desk_family(61, 45, 92)
    early, stop = BandWindow.early, [0]

    def singular_at(w, delta, beta):
        if w.i + 1 == stop[0]:
            raise SingularWindowError("forced zero diagonal")
        early(w, delta, beta)
    monkeypatch.setattr(BandWindow, "early", singular_at)
    held = set()
    for stop[0] in range(2, 10):
        held.add(assert_grouped_matches_flushed(method, sys_, 0.0, None))
        res, _ = run(method, sys_, 0.0, None)
        assert res.reason == "breakdown" and res.breakdown is None
    assert {h for _, h in held} == set(range(GROUP))


def test_transfer_iterate_read_at_a_held_step():
    sys_ = desk_family(61, 45, 85)
    grouped, flushed = state("gpbicg", sys_), state("gpbicg", sys_, None)
    read = set()
    for _ in range(15):
        grouped.advance()
        flushed.advance()
        # a read flushes; reading every third step reads 1, 2 and 3 held steps
        held = grouped.held
        if grouped.k % 3 == 0 and held and grouped.attempt_transfer():
            flushed.attempt_transfer()
            for a, b in zip(flushed.transfer_iterate(), grouped.transfer_iterate()):
                assert relative_gap(a, b) <= GAP
            assert grouped.held == 0
            read.add(held)
    assert read == {1, 2, 3}


@pytest.mark.parametrize("method", STATES)
def test_paired_map_in_several_strips(method, monkeypatch):
    # 61 and 45 rows end in a partial 7-row sweep strip, and the direction
    # updates run in 1-row strips; both runs sum the reduction in the same
    # strips, so only the direction updates differ
    monkeypatch.setattr(reduction, "STRIP_ROWS", 7)
    sys_ = desk_family(61, 45, 86)
    assert_grouped_matches_flushed(method, sys_, 1e-6 * sys_.rhs_norm, None)
    for flush_at in SHIFTS:
        assert_grouped_matches_flushed(method, sys_, 0.0, 9, flush_at)


@pytest.mark.parametrize("method", STATES)
def test_explicit_residual_runs_are_the_flushed_path(method):
    # the explicit residual reads the iterate after every step, and the
    # read flushes it, so no group outlives its step: the run is bit-equal
    # to a flushed one of its length
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
    for method in ("gpbilq", "gpqmr"):
        res = SOLVERS[method](sys_, tol=0.0, maxit=9)
        grouped, _ = run(method, sys_, 0.0, 9)
        assert_array_equal(res.x, grouped.x)
        assert_array_equal(res.y, grouped.y)
    flushed, _ = run("gpqmr", sys_, 0.0, 9, None)
    assert not np.array_equal(flushed.x, grouped.x)


# GAP's seeds at two of its shapes, to tolerance and at 12 steps
@pytest.mark.parametrize("method", STATES)
def test_grouped_iterates_stay_within_the_gap_over_seeds(method):
    for seed in range(20):
        for m, n in ((61, 45), (45, 61)):
            sys_ = desk_family(m, n, seed)
            assert_grouped_matches_flushed(method, sys_, 1e-6 * sys_.rhs_norm, None)
            assert_grouped_matches_flushed(method, sys_, 0.0, 12)


# Seeds where GAP does not hold (1.2e-12 on gpqmr 200 x 150 seed 317, whose
# run moves 7.8e-10 under a rounding-level change of b and c; 1.0e-12 on
# gpqmr 61 x 45 seed 315, which moves 4.3e-12): the gap follows each run's
# own rounding move.
@pytest.mark.parametrize("method", STATES)
def test_grouped_iterates_stay_within_rounding_over_seeds(method):
    for seed in range(300, 320):
        for m, n in ((200, 150), (61, 45), (45, 61)):
            sys_ = desk_family(m, n, seed)
            assert_grouped_matches_flushed(method, sys_, 1e-6 * sys_.rhs_norm, None,
                                           rounding=True)
            assert_grouped_matches_flushed(method, sys_, 0.0, 12, rounding=True)


def recorded(method, sys_, flush_at):
    """A state that keeps each held step's rows in ``rows``."""
    st = state(method, sys_, flush_at)
    st.rows, update = [], st.update

    def keep(rows):
        st.rows = st.rows[-st.held:] if st.held else []
        st.rows.append(rows)
        update(rows)
    st.update = keep
    return st


def held_exits(method, sys_):
    """States whose last ``advance()`` left held steps, at every partial
    group: a fresh state per shift of SHIFTS and number of steps up to 12."""
    for flush_at in SHIFTS:
        for count in range(2, 13):
            st = recorded(method, sys_, flush_at)
            for _ in range(count):
                st.advance()
            if st.held:
                yield st


def stepped_reference(st):
    """The held steps applied one at a time in float64, from the group's
    input: the directions oldest first and x|y, with each step's [q_j; 0]
    and [0; u_j] read from its ring slot; and the same sums of magnitudes."""
    d = st.dirs
    block = np.vstack((st.fx, st.fy))
    x_rows = np.arange(len(block)) < st.sys.m
    dirs, xy = block[:, :d], np.concatenate((st.x, st.y))
    sizes, xy_size = abs(dirs), abs(xy)
    for j, rows in zip(range(st.k - st.held + 1, st.k + 1), st.rows):
        slot = block[:, d + j % GROUP]
        basis = np.column_stack((np.where(x_rows, slot, 0.0), np.where(x_rows, 0.0, slot)))
        inputs, rows = np.hstack((dirs, basis)), np.array(rows)
        in_size = np.hstack((sizes, abs(basis)))
        new = sum(np.outer(col, row[:2]) for col, row in zip(inputs.T, rows))
        xy = xy + sum(col * row[2] for col, row in zip(inputs.T, rows))
        xy_size = xy_size + in_size @ abs(rows[:, 2])
        dirs = np.hstack((dirs[:, 2:], new))
        sizes = np.hstack((sizes[:, 2:], in_size @ abs(rows[:, :2])))
    return (dirs, sizes), (xy, xy_size)


@pytest.mark.parametrize("method", ["gpbilq", "gpqmr"])
def test_flush_applies_the_held_step_as_its_rows_say(method):
    # the reference applies the held steps' rows one by one; the composed
    # map rounds differently, by at most 1e-14 of the summed term
    # magnitudes, which no summation order of four steps' terms reaches
    sys_ = desk_family(61, 45, 90)
    groups = set()
    for st in held_exits(method, sys_):
        assert len(st.rows) == st.held
        expect = stepped_reference(st)
        groups.add(((st.k - st.held + 1) % GROUP, st.held))
        st.flush()
        got = (live_directions(st), np.concatenate((st.x, st.y)))
        for value, (want, size) in zip(got, expect):
            assert np.all(abs(value - want) <= 1e-14 * size)
    assert groups == PARTIAL


@pytest.mark.parametrize("method", ["gpbilq", "gpqmr"])
def test_flush_never_reads_the_next_basis_slot(method):
    # at a held step k the slot of q_{k+1} (u_{k+1}) and the slots after it
    # are outside the held steps' input: poisoned, they must not reach the
    # iterate or the directions
    sys_ = desk_family(61, 45, 91)
    groups = set()
    for st, twin in zip(held_exits(method, sys_), held_exits(method, sys_)):
        d, slot = st.dirs, st.k % GROUP
        assert np.shares_memory(st.red.q_cur, st.fx[:, d + slot + 1])
        st.fx[:, d + slot + 1:] = np.nan
        st.fy[:, d + slot + 1:] = np.nan
        groups.add(((st.k - st.held + 1) % GROUP, st.held))
        st.flush()
        twin.flush()
        for a, b in ((st.x, twin.x), (st.y, twin.y), (st.fx[:, :d], twin.fx[:, :d]),
                     (st.fy[:, :d], twin.fy[:, :d])):
            assert_array_equal(a, b)
    assert groups == PARTIAL
