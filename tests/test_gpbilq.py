import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpkrylov import (BiLQState, Operator, PartitionedSystem, gpbilq_solve,
                      residual_norm)
from gpkrylov.gpbilq import lq_step, substitute_step, transfer_scalars
from gpkrylov.rotations import BandWindow, plane_rotation, rotation_block
from gpkrylov.verify import (bundle_product, dense_lq_factors, estimate_gaps,
                             live_directions, lq_errors, minnorm_gap,
                             projected_system, stepped, transfer_gap)

from gpk_support import make_system
from perfbench import gen


# -- rotation kernel and window ----------------------------------------------

def test_rotation_kernel_three_four_five():
    c, s, r = plane_rotation(3.0, 4.0)
    assert_allclose([c, s, r], [0.6, 0.8, 5.0])


def test_rotation_kernel_zero_second_arg_is_identity():
    c, s, r = plane_rotation(2.5, 0.0)
    assert_allclose([c, s, r], [1.0, 0.0, 2.5])


def test_first_rotation_identity_when_gamma_zero():
    w = BandWindow(2.0, 1.0)
    lq_step(w, 0.0, 0.0, 0.5, 0.25, 0.1, 0.2)  # k = 1 seeds the hand-off
    lq_step(w, 0.0, 1.0, 0.3, 0.4, 0.5, 0.6)  # gamma_k = 0
    c1, s1, *_ = w.rot
    assert_allclose([c1, s1], [1.0, 0.0])


def test_lq_reconstruction_over_steps():
    sys_ = make_system(10, 8, seed=30, fg_random=True)
    for st, hist in stepped(BiLQState, sys_, 6):
        if st.k < 2:
            continue
        H, _ = projected_system(st, hist, 2 * st.k)
        recon, orth, off_band = lq_errors(st, hist)
        assert recon <= 1e-12 * max(1.0, np.linalg.norm(H))
        assert orth <= 1e-12
        assert off_band <= 1e-14  # lower bandwidth 4 outside the rotated corner


def test_rotation_factors_orthogonal():
    sys_ = make_system(8, 8, seed=31)
    *_, (_, hist) = stepped(BiLQState, sys_, 5)
    for quad in hist.bundles:
        M = rotation_block(*quad)
        assert np.linalg.norm(M @ M.T - np.eye(4)) <= 1e-14


# -- forward substitution ----------------------------------------------------

def test_substitution_startup_rows():
    w = BandWindow(1.0, 1.0)
    w.i = 1  # bundle 1 finalized columns 1 and 2: diagonal 4 and 2, no band
    w.cols = ((4.0, 0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0, 0.0))
    *_, w1, w2 = substitute_step(w, (0.0,) * 4, (2.0, 1.0))
    assert_allclose(w1, 0.5)   # beta1 / rho_1
    assert_allclose(w2, 0.5)   # (delta1 - nu_2 w1) / rho_2


def test_substitution_solves_banded_system():
    sys_ = make_system(9, 9, seed=32, fg_random=True)
    *_, (st, hist) = stepped(BiLQState, sys_, 6)
    k = st.k
    L, _ = dense_lq_factors(st, hist)
    Lk1 = L[:2 * k - 2, :2 * k - 2]
    t = np.array(hist.entries)  # entries 1..2k-2
    _, rhs = projected_system(st, hist, 2 * k - 2)
    assert np.linalg.norm(Lk1 @ t - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


# -- directions and iterate --------------------------------------------------

def test_identity_rotation_passes_directions_through():
    M = rotation_block(1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    assert_allclose(M, np.eye(4))


def test_directions_match_dense_product():
    """The live pair is the last two columns of F = W G; the retired pair
    is never stored, so it is checked through its only use, the iterate
    increment w1 F[:, -4] + w2 F[:, -3]."""
    sys_ = make_system(9, 7, seed=33, fg_random=True)
    prev = None
    for st, hist in stepped(BiLQState, sys_, 7):
        xy = np.concatenate([st.x, st.y])
        if st.k >= 2:
            F = hist.W(st.k) @ bundle_product(hist.bundles, 2 * st.k)
            tol = 1e-11 * max(1.0, np.linalg.norm(F))
            live = live_directions(st)
            assert np.linalg.norm(F[:, -2:] - live) <= tol
            w1, w2 = hist.entries[2 * st.k - 4:]
            step = w1 * F[:, -4] + w2 * F[:, -3]
            assert np.linalg.norm(xy - prev - step) <= tol
        prev = xy


def test_startup_directions_are_basis_columns():
    sys_ = make_system(5, 4, seed=34)
    st = BiLQState(sys_)
    red, (fx, fy) = st.red, np.split(live_directions(st), [sys_.m])
    assert_allclose(fx[:, 0], red.q_cur)
    assert_allclose(fy[:, 1], red.u_cur)
    assert_allclose(fy[:, 0], 0.0)
    assert_allclose(fx[:, 1], 0.0)


def test_iterate_is_zero_at_startup():
    sys_ = make_system(6, 5, seed=35)
    *_, (st, _) = stepped(BiLQState, sys_, 1)
    assert_allclose(st.x, 0.0)
    assert_allclose(st.y, 0.0)


def test_iterate_matches_minimum_norm_oracle():
    for seed in range(5):
        sys_ = make_system(12, 12, seed=40 + seed, fg_random=True)
        for st, hist in stepped(BiLQState, sys_, 8):
            if st.k >= 2:
                assert minnorm_gap(st, hist) <= 1e-8


# -- transfer ----------------------------------------------------------------

def test_transfer_exact_on_one_by_one(one_by_one):
    st = BiLQState(one_by_one)
    st.advance()  # startup step k=1
    assert st.attempt_transfer()
    x_c, y_c = st.transfer_iterate()
    assert_allclose(x_c, [0.2], atol=1e-14)
    assert_allclose(y_c, [0.4], atol=1e-14)
    assert st.estimate_residual_c() <= 1e-14


def test_transfer_guard_on_zero_determinant():
    w = BandWindow(0.0, 0.0)
    lq_step(w, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)  # det = 0*0 - 1*0 = 0
    assert transfer_scalars(w, (0.0,) * 4, (1.0, 1.0)) is None


def test_transfer_matches_square_solve():
    sys_ = make_system(11, 11, seed=50, fg_random=True)
    defined = 0
    for st, hist in stepped(BiLQState, sys_, 8):
        gap = transfer_gap(st, hist) if st.k >= 2 else None
        if gap is not None:
            defined += 1
            assert gap <= 1e-8
    assert defined >= 5  # generically defined


# -- residual estimates ------------------------------------------------------

def test_estimates_match_explicit_residuals():
    for seed, symmetric in ((60, False), (61, True)):
        sys_ = make_system(13, 13, seed=seed, symmetric=symmetric, mu=-1.0)
        for st, _ in stepped(BiLQState, sys_, 8):
            if st.k < 2:
                continue
            gap_l, gap_c = estimate_gaps(st)
            assert gap_l <= 1e-9
            assert gap_c is None or gap_c <= 1e-9


def test_estimate_zero_when_substitution_vanishes():
    sys_ = make_system(7, 7, seed=62)
    *_, (st, _) = stepped(BiLQState, sys_, 3)
    st.varpi = (0.0,) * 4
    assert st.estimate_residual_l() == 0.0


def test_estimate_requires_a_full_step():
    sys_ = make_system(6, 6, seed=63)
    *_, (st, _) = stepped(BiLQState, sys_, 1)
    with pytest.raises(ValueError, match="step"):
        st.estimate_residual_l()
    with pytest.raises(ValueError, match="transfer"):
        st.estimate_residual_c()


# -- driver ------------------------------------------------------------------

def test_solve_maxit_zero():
    sys_ = make_system(5, 4, seed=70)
    res = gpbilq_solve(sys_, tol=1e-10, maxit=0)
    assert res.reason == "maxit" and res.iterations == 0
    assert_allclose(res.x, 0.0)
    assert res.record.rows[0].est_residual == pytest.approx(sys_.rhs_norm)


def test_unknown_monitor_is_rejected_by_the_solver_and_the_state():
    sys_ = make_system(6, 5, seed=74)
    with pytest.raises(ValueError, match="monitor"):
        gpbilq_solve(sys_, monitor="x")
    with pytest.raises(ValueError, match="monitor"):
        BiLQState(sys_, "x")


def test_solve_converges_on_full_space():
    sys_ = make_system(5, 5, seed=71)
    res = gpbilq_solve(sys_, tol=1e-10, maxit=30, monitor="c")
    assert res.converged
    assert residual_norm(sys_, res.x, res.y) <= 1e-8


def test_solve_breakdown_is_structured():
    # orthogonal start vectors: clean report, no exception
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix(np.eye(2)),
                             Operator.from_matrix(np.eye(2)),
                             [0.0, 1.0], np.ones(2), f=[1.0, 0.0])
    res = gpbilq_solve(sys_, tol=1e-10, maxit=10)
    assert res.reason == "breakdown"
    assert res.breakdown is not None and res.breakdown.iteration == 1


def test_solve_records_transfer_gaps():
    sys_ = make_system(10, 10, seed=72)
    res = gpbilq_solve(sys_, tol=1e-30, maxit=8, monitor="c")
    flags = [r.transfer_defined for r in res.record.rows if r.k >= 1]
    assert all(f is not None for f in flags)
    assert res.reason == "maxit"  # undefined steps never abort the run


def _stepped_estimates(sys_, tol, maxit):
    """(k, est_l, est_c) of a ``BiLQState`` driven by hand, est_c inf where
    the transfer iterate does not exist, until both estimates have met tol
    or the process stops or reaches maxit."""
    st, rows, met_l, met_c = BiLQState(sys_), [], False, False
    while st.k < maxit and not st.stopped and not (met_l and met_c):
        st.advance()
        est_l = sys_.rhs_norm if st.k < 2 else st.estimate_residual_l()
        est_c = st.estimate_residual_c() if st.attempt_transfer() else math.inf
        rows.append((st.k, est_l, est_c))
        met_l, met_c = met_l or est_l <= tol, met_c or est_c <= tol
    return rows


def test_monitor_l_tracks_min_norm_iterate():
    """gpbilq monitors the smaller of its two estimates at every step; with
    explicit residuals it stops on the true residual of that estimate's
    iterate."""
    sys_ = make_system(9, 9, seed=73)
    res = gpbilq_solve(sys_, tol=1e-9, maxit=40, monitor="l",
                       explicit_residual=True)
    assert res.converged
    rows = _stepped_estimates(sys_, 0.0, res.iterations)
    assert res.record.est_residuals()[1:].tolist() == [min(l, c) for _, l, c in rows]
    _, est_l, est_c = rows[-1]
    assert (res.x is res.x_c) == (est_c < est_l)
    assert res.residual == residual_norm(sys_, res.x, res.y) <= 1e-9 * 10


def _desk(i):
    A, B, b, c = gen.desk_arrays(0, i)
    return PartitionedSystem(1.0, -0.5, Operator.from_matrix(A),
                             Operator.from_matrix(B), b, c)


# desk systems at the benchmark's rtol, where x_c meets it first, and at
# 1e-2, where desk 4's x_l does; probe systems of tools/probe_digest.py (2018
# ends at maxit when stopped on x_l alone); symmetric ones where x_l meets a
# loose tol first; a small grid of the benchmark's sparse family
RULE_CASES = [(f"desk-{i}-{rtol}", lambda i=i: _desk(i), rtol)
              for i in range(8) for rtol in (1e-6, 1e-2)] + [
    ("probe-1042", lambda: make_system(30, 30, 1042, 1.0, -0.5), 1e-8),
    ("probe-2004", lambda: make_system(40, 25, 2004, 2.0, 1.0, symmetric=True), 1e-8),
    ("probe-2018", lambda: make_system(60, 45, 2018, 2.0, 1.0, symmetric=True), 1e-8),
    ("sym-0", lambda: make_system(40, 30, 0, 1.0, -0.5, symmetric=True), 1e-1),
    ("sym-3", lambda: make_system(40, 30, 3, 1.0, -0.5, symmetric=True), 1e-2),
    ("grid9", lambda: _grid(9), 1e-6),
]


def _grid(N):
    A = gen.grid_gradient(N)
    return PartitionedSystem(1.0, -1e-2, Operator.from_matrix(A),
                             Operator.from_matrix((-A.T).tocsr()), *gen.grid_rhs(N, 0, 0))


@pytest.mark.parametrize("name, build, rtol", RULE_CASES, ids=[c[0] for c in RULE_CASES])
def test_gpbilq_stops_where_either_estimate_first_meets_tol(name, build, rtol):
    sys_ = build()
    tol, maxit = rtol * sys_.rhs_norm, 1000
    rows = _stepped_estimates(sys_, tol, maxit)
    k_l = next((k for k, est_l, _ in rows if est_l <= tol), math.inf)
    k_c = next((k for k, _, est_c in rows if est_c <= tol), math.inf)
    res = gpbilq_solve(sys_, tol=tol, maxit=maxit)
    assert (res.reason, res.iterations) == ("converged", min(k_l, k_c))
    _, est_l, est_c = rows[res.iterations - 1]
    assert (res.x is res.x_c) == (k_c < k_l if k_c != k_l else est_c < est_l)
    assert residual_norm(sys_, res.x, res.y) <= tol


@pytest.mark.parametrize("explicit", [False, True])
def test_result_reports_the_final_steps_transfer_iterate(explicit):
    """x_c is the transfer iterate of the final step wherever it exists
    there (gpbicg's, run to the same step, within rounding), also at exits
    that return x_l; with explicit residuals the loop may have formed an
    older one."""
    behind_x_l = 0
    for seed in range(4):
        sys_ = make_system(30, 30, seed)
        for maxit in range(2, 40, 3):
            res = gpbilq_solve(sys_, tol=0.0, maxit=maxit, explicit_residual=explicit)
            ref = gpbilq_solve(sys_, tol=0.0, maxit=res.iterations, monitor="c")
            assert ref.iterations == res.iterations
            assert (res.x_c is None) == (ref.x_c is None)
            if ref.x_c is not None:
                behind_x_l += res.x is res.x_l
                for a, b in ((res.x_c, ref.x_c), (res.y_c, ref.y_c)):
                    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
    assert behind_x_l >= 10


# -- storage audit -----------------------------------------------------------

class _Counted(np.ndarray):
    counts = []

    def __array_finalize__(self, obj):
        if self.ndim == 1 and self.shape[0] in _Counted.watched:
            _Counted.counts.append(self.shape[0])


def _tracked(arr):
    return np.ascontiguousarray(arr).view(_Counted)


def test_steady_state_allocates_only_operator_results():
    """After warmup, each iteration allocates exactly the four operator
    results (two m-vectors, two n-vectors); every other vector update
    reuses the fixed working set of nine m- and nine n-vectors and a
    three-column scratch per side."""
    m, n = 48, 40
    rng = np.random.default_rng(80)
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((n, m))
    _Counted.watched = {m, n}
    _Counted.counts = []
    opA = Operator(m, n, lambda v: _tracked(A @ v), lambda v: _tracked(A.T @ v))
    opB = Operator(n, m, lambda v: _tracked(B @ v), lambda v: _tracked(B.T @ v))
    sys_ = PartitionedSystem(1.0, -0.5, opA, opB,
                             _tracked(rng.standard_normal(m)),
                             _tracked(rng.standard_normal(n)))
    st = BiLQState(sys_)
    st.advance()  # startup step k=1
    for _ in range(4):
        st.advance()
    per_iter = []
    for _ in range(6):
        before = list(_Counted.counts)
        st.advance()
        st.estimate_residual_l()
        fresh = _Counted.counts[len(before):]
        per_iter.append(sorted(fresh))
    assert per_iter == [sorted([m, m, n, n])] * 6
    _Counted.watched = set()
