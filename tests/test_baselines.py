import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scipy import sparse

from gpkrylov import (HessenbergProcessState, assemble_dense, gpmr_solve,
                      residual_norm)
from gpkrylov import baselines
from gpkrylov.baselines import GPMRState
from gpkrylov.linop import Operator, PartitionedSystem
from gpkrylov.verify import (oracle_dense_solve, oracle_lsq, oracle_minnorm,
                             random_system, to_dense)

from gpk_support import make_system


# -- simultaneous Hessenberg process ------------------------------------------

def test_bases_orthonormal_and_projections_match():
    # each step hands over one column of H = V^T A U and of F = U^T B V:
    # A u_j = V h + hn v_new and B v_i = U f + fn u_new
    sys_ = make_system(10, 8, seed=200)
    A, B = to_dense(sys_.A), to_dense(sys_.B)
    proc = HessenbergProcessState(sys_)
    for k in range(6):
        nv, nu = proc.nv, proc.nu
        assert proc.step()
        (sv, i, f, fn), (su, j, h, hn) = proc.new
        assert (sv, i, su, j) == (0, k, 1, k) and (proc.nv, proc.nu) == (nv + 1, nu + 1)
        V, U = proc.V(nv + 1), proc.U(nu + 1)
        assert_allclose(h, V[:, :nv].T @ A @ U[:, j], atol=1e-12)
        assert_allclose(f, U[:, :nu].T @ B @ V[:, i], atol=1e-12)
        assert_allclose(V @ np.append(h, hn), A @ U[:, j], atol=1e-12)
        assert_allclose(U @ np.append(f, fn), B @ V[:, i], atol=1e-12)
        assert hn >= 0 and fn >= 0
    V, U = proc.V(6), proc.U(6)
    assert np.linalg.norm(V.T @ V - np.eye(6)) <= 1e-12
    assert np.linalg.norm(U.T @ U - np.eye(6)) <= 1e-12


def test_symmetric_coupling_gives_tridiagonal_projection():
    sys_ = make_system(9, 9, seed=201, symmetric=True)
    proc = HessenbergProcessState(sys_)
    for j in range(6):
        proc.step()
        _, (side, pu, h, _) = proc.new
        assert (side, pu, len(h)) == (1, j, j + 1)  # with hn: rows 0 .. j+1
        assert np.all(abs(h[:max(j - 1, 0)]) <= 1e-12)
    assert proc.nv == 7


def _bases(sys_, proc):
    """(W, W_next): the processed vectors as columns, v's then u's, and every
    vector on its interleaved row (v_i on 2i, u_i on 2i+1)."""
    m = sys_.m
    W = np.zeros((m + sys_.n, proc.pv + proc.pu))
    W[:m, :proc.pv] = proc.V(proc.pv)
    W[m:, proc.pv:] = proc.U(proc.pu)
    W_next = np.zeros((m + sys_.n, 2 * max(proc.nv, proc.nu)))
    W_next[:m, 0:2 * proc.nv:2] = proc.V(proc.nv)
    W_next[m:, 1:2 * proc.nu:2] = proc.U(proc.nu)
    return W, W_next


def _krylov_gap(sys_, proc):
    """||K W - W_next W_next^T K W|| / ||K||: K maps the processed vectors
    into the span of all of them."""
    K = assemble_dense(sys_)
    W, W_next = _bases(sys_, proc)
    KW = K @ W
    return np.linalg.norm(KW - W_next @ (W_next.T @ KW)) / np.linalg.norm(K)


def test_interleaved_projection_maps_the_basis():
    # W_next^T K W holds lam and mu on the vectors' own rows and the step's
    # coefficients and remainder norms on the other side's rows
    sys_ = make_system(7, 6, seed=210)
    proc = HessenbergProcessState(sys_)
    for _ in range(4):
        proc.step()
    W, W_next = _bases(sys_, proc)
    M = W_next.T @ assemble_dense(sys_) @ W
    assert M.shape == (10, 8)
    assert_allclose(M[0:8:2, 0:4].diagonal(), sys_.lam, atol=1e-12)
    assert_allclose(M[1:8:2, 4:8].diagonal(), sys_.mu, atol=1e-12)
    (_, i, f, fn), (_, j, h, hn) = proc.new
    assert_allclose(M[1::2, i], np.append(f, fn), atol=1e-12)
    assert_allclose(M[0::2, 4 + j], np.append(h, hn), atol=1e-12)
    assert _krylov_gap(sys_, proc) <= 1e-12


def test_process_grows_past_its_first_block(monkeypatch):
    monkeypatch.setattr(baselines, "FIRST_BLOCK", 8)
    sys_ = make_system(60, 50, seed=211)
    proc = HessenbergProcessState(sys_)
    for _ in range(40):
        assert proc.step()
    assert (proc.k, proc.vb.shape[1], proc.ub.shape[1]) == (40, 60, 50)
    assert proc.V(41).shape == (60, 41) and proc.U(41).shape == (50, 41)
    assert _krylov_gap(sys_, proc) <= 1e-12
    V, U = proc.V(41), proc.U(41)
    assert np.linalg.norm(V.T @ V - np.eye(41)) <= 1e-12
    assert np.linalg.norm(U.T @ U - np.eye(41)) <= 1e-12


def test_process_retains_no_history():
    # a step replaces the previous step's coefficients; the bases fill
    # columns reserved up front
    proc = HessenbergProcessState(random_system(60, 50, 211))
    for _ in range(5):
        proc.step()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            assert proc.step()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 2048


# m, n, seed, lam, mu of seeded symmetric-coupling systems whose smaller
# side is exhausted at k = min(m, n) while the solve has not converged
EXHAUSTING = [(40, 25, 1020, 1.0, -0.5), (25, 40, 1029, 2.0, 1.0),
              (60, 45, 1032, 1.0, 0.0)]


@pytest.mark.parametrize("m, n, seed, lam, mu", EXHAUSTING)
def test_surviving_side_keeps_extending(m, n, seed, lam, mu):
    sys_ = random_system(m, n, seed, lam=lam, mu=mu, symmetric=True)
    proc = HessenbergProcessState(sys_)
    while proc.step():
        pass
    # the smaller side spans its space; the larger gains one more vector
    k = min(m, n)
    assert (proc.k, proc.nv, proc.nu) == (k + 1, min(m, k + 1), min(n, k + 1))
    assert _krylov_gap(sys_, proc) <= 1e-12
    V, U = proc.V(proc.nv), proc.U(proc.nu)
    assert np.linalg.norm(V.T @ V - np.eye(proc.nv)) <= 1e-12
    assert np.linalg.norm(U.T @ U - np.eye(proc.nu)) <= 1e-12
    with pytest.raises(RuntimeError, match="terminated"):
        proc.step()


@pytest.mark.parametrize("m, n, seed, lam, mu", EXHAUSTING)
def test_converges_past_an_exhausted_side(m, n, seed, lam, mu):
    sys_ = random_system(m, n, seed, lam=lam, mu=mu, symmetric=True)
    res = gpmr_solve(sys_, tol=1e-9)
    assert (res.reason, res.iterations) == ("converged", min(m, n) + 1)
    assert residual_norm(sys_, res.x, res.y) <= 1e-9


@pytest.mark.parametrize("m, n, seed", [(20, 14, 1008), (40, 25, 1023)])
def test_singular_system_stops_at_its_true_residual(m, n, seed):
    # lam = 0 with m > n: [0 A] has rank n < m, so K is singular and the
    # final projected column depends on the others; it adds no unknown
    sys_ = random_system(m, n, seed, lam=0.0, mu=-1.0, symmetric=True)
    res = gpmr_solve(sys_, tol=1e-9)
    assert (res.reason, res.iterations) == ("breakdown", n + 1)
    true = residual_norm(sys_, res.x, res.y)
    assert true > 1.0 and res.residual == pytest.approx(true, rel=1e-10)


def test_bases_stay_orthonormal_on_a_graded_spectrum():
    # A = Q1 diag(1 ... 1e-12) Q2^T: one Gram-Schmidt pass (modified or
    # classical) loses orthogonality here to 1e-7 or worse
    rng = np.random.default_rng(215)
    m, n = 60, 50
    Q1, _ = np.linalg.qr(rng.standard_normal((m, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q1 @ np.diag(np.geomspace(1.0, 1e-12, n)) @ Q2.T
    sys_ = PartitionedSystem(1.0, -1e-3, Operator.from_matrix(A),
                             Operator.from_matrix(-A.T),
                             rng.standard_normal(m), rng.standard_normal(n))
    proc = HessenbergProcessState(sys_)
    for _ in range(40):
        assert proc.step()
    V, U = proc.V(40), proc.U(40)
    assert np.linalg.norm(V.T @ V - np.eye(40)) <= 1e-12
    assert np.linalg.norm(U.T @ U - np.eye(40)) <= 1e-12


@pytest.mark.parametrize("near_span", [True, False])
def test_orthogonalize_returns_coefficients_and_remainder_norm(near_span):
    rng = np.random.default_rng(216)
    Q, _ = np.linalg.qr(rng.standard_normal((50, 8)))
    w_in = rng.standard_normal(50)
    if near_span:  # 1e-8 off span(Q): a single pass loses orthogonality
        w_in = Q @ rng.standard_normal(8) + 1e-8 * (w_in - Q @ (Q.T @ w_in))
    one_pass = w_in - Q @ (Q.T @ w_in)
    assert (np.linalg.norm(one_pass) <= np.linalg.norm(w_in) / np.sqrt(2)) == near_span
    w = w_in.copy()
    d, after = baselines._orthogonalize(w, Q)
    assert d.shape == (8,) and isinstance(after, float)
    assert_allclose(Q @ d + w, w_in, rtol=0, atol=1e-14 * np.linalg.norm(w_in))
    assert np.linalg.norm(Q.T @ w) <= 1e-14 * after
    assert after == math.sqrt(w.dot(w)) == np.linalg.norm(w)


# -- GPMR ----------------------------------------------------------------------

def test_exact_on_one_by_one(one_by_one):
    res = gpmr_solve(one_by_one, tol=1e-12, maxit=5)
    assert res.converged and res.iterations == 1
    assert_allclose(res.x, [0.2], atol=1e-12)
    assert_allclose(res.y, [0.4], atol=1e-12)


def test_residuals_nonincreasing():
    sys_ = make_system(12, 9, seed=202)
    res = gpmr_solve(sys_, tol=1e-30, maxit=9)
    ests = res.record.est_residuals()
    assert np.all(np.diff(ests) <= 1e-12)


def _dense_gmres_residuals(K, rhs, steps):
    """Arnoldi + least squares on the assembled matrix (oracle)."""
    n = K.shape[0]
    beta = np.linalg.norm(rhs)
    Q = np.zeros((n, steps + 1))
    Q[:, 0] = rhs / beta
    H = np.zeros((steps + 1, steps))
    out = []
    for k in range(steps):
        w = K @ Q[:, k]
        for i in range(k + 1):
            H[i, k] = Q[:, i] @ w
            w -= H[i, k] * Q[:, i]
        H[k + 1, k] = np.linalg.norm(w)
        Q[:, k + 1] = w / H[k + 1, k]
        e1 = np.zeros(k + 2)
        e1[0] = beta
        z, *_ = np.linalg.lstsq(H[:k + 2, :k + 1], e1, rcond=None)
        out.append(np.linalg.norm(H[:k + 2, :k + 1] @ z - e1))
    return out


def _block_krylov_min_residuals(K, b, c, steps):
    """Dense minimum residual over the two-sided block Krylov space
    span{[b;0], [0;c], K[b;0], K[0;c], ...} (oracle)."""
    m, n = len(b), len(c)
    rhs = np.concatenate([b, c])
    v1 = np.concatenate([b, np.zeros(n)])
    v2 = np.concatenate([np.zeros(m), c])
    cols, out = [], []
    for _ in range(steps):
        cols += [v1, v2]
        S = np.column_stack(cols)
        z, *_ = np.linalg.lstsq(K @ S, rhs, rcond=None)
        out.append(np.linalg.norm(K @ S @ z - rhs))
        v1, v2 = K @ v1, K @ v2
    return out


@pytest.mark.parametrize("symmetric", [True, False])
def test_residuals_minimize_over_block_krylov_space(symmetric):
    sys_ = make_system(8, 8, seed=203, symmetric=symmetric, mu=-1.0)
    K = assemble_dense(sys_)
    res = gpmr_solve(sys_, tol=1e-30, maxit=6)
    ours = [row.est_residual for row in res.record.rows if row.k >= 1]
    oracle = _block_krylov_min_residuals(K, sys_.b, sys_.c, 6)
    assert_allclose(ours, oracle, atol=1e-10)


def test_never_worse_than_plain_gmres_at_same_step():
    # the interleaved space contains the coupled Krylov space step by step
    sys_ = make_system(8, 8, seed=203, symmetric=True, mu=-1.0)
    K = assemble_dense(sys_)
    rhs = np.concatenate([sys_.b, sys_.c])
    res = gpmr_solve(sys_, tol=1e-30, maxit=6)
    gm = _dense_gmres_residuals(K, rhs, 6)
    ours = [row.est_residual for row in res.record.rows if row.k >= 1]
    for a, b in zip(ours, gm):
        assert a <= b + 1e-10


def test_restarted_needs_at_least_as_many_iterations():
    sys_ = make_system(10, 10, seed=204)
    full = gpmr_solve(sys_, tol=1e-8, maxit=200)
    part = gpmr_solve(sys_, tol=1e-8, maxit=200, restart=3)
    assert full.converged
    if part.converged:
        assert part.iterations >= full.iterations


@pytest.mark.parametrize("start", ["b0", "c0"])
def test_zero_start_vector_is_rejected(start):
    sys_ = make_system(4, 3, seed=201)
    zero = np.zeros(sys_.m if start == "b0" else sys_.n)
    with pytest.raises(ValueError, match="nonzero"):
        HessenbergProcessState(sys_, **{start: zero})


@pytest.mark.parametrize("restart", [0, -2])
def test_restart_below_one_is_rejected(restart):
    with pytest.raises(ValueError, match="restart"):
        gpmr_solve(make_system(12, 9, seed=202), restart=restart)


def test_converges_to_dense_solution():
    sys_ = make_system(7, 7, seed=205)
    res = gpmr_solve(sys_, tol=1e-11, maxit=60)
    xs, ys = oracle_dense_solve(sys_)
    assert np.linalg.norm(res.x - xs) + np.linalg.norm(res.y - ys) <= 1e-8


def test_maxit_zero():
    sys_ = make_system(5, 5, seed=206)
    res = gpmr_solve(sys_, tol=1e-10, maxit=0)
    assert res.reason == "maxit"
    assert_allclose(res.x, 0.0)


def test_growing_qr_residual_is_the_projected_least_squares_residual():
    sys_ = make_system(50, 40, seed=214)
    K = assemble_dense(sys_)
    state = GPMRState(sys_)
    for k in range(1, 31):
        state.advance()
        W, W_next = _bases(sys_, state.proc)
        P = W_next.T @ K @ W
        rhs = np.zeros(2 * k + 2)
        rhs[:2] = state.proc.beta, state.proc.gamma
        z, *_ = np.linalg.lstsq(P, rhs, rcond=None)
        assert state.qr.projected_residual() == pytest.approx(
            np.linalg.norm(P @ z - rhs), rel=1e-10)


def test_unbounded_run_matches_a_bounded_one(monkeypatch):
    # the blocks grow from FIRST_BLOCK columns whatever the limit: maxit=None,
    # its resolved value 2(m+n) and a limit past min(m, n) give the same run
    monkeypatch.setattr(baselines, "FIRST_BLOCK", 8)
    sys_ = make_system(40, 30, seed=212)
    runs = [gpmr_solve(sys_, tol=1e-10, maxit=maxit) for maxit in (None, 140, 500)]
    for res in runs:
        assert (res.iterations, res.reason) == (runs[0].iterations, "converged")
        assert np.array_equal(res.x, runs[0].x) and np.array_equal(res.y, runs[0].y)
    assert runs[0].iterations > 8
    assert runs[0].residual <= 1e-10
    assert residual_norm(sys_, runs[0].x, runs[0].y) <= 1e-10


def test_exact_termination_reports_the_true_residual():
    # both bases span their spaces at k = 30; the closed space's projected
    # residual is rounding (about 1e-30), far below the attainable 1e-13
    sys_ = make_system(30, 30, seed=5)
    res = gpmr_solve(sys_, tol=1e-20)
    assert (res.reason, res.iterations) == ("breakdown", 30)
    true = residual_norm(sys_, res.x, res.y)
    assert 1e-16 < true < 1e-11 and res.residual == pytest.approx(true, rel=1e-12)


def test_long_limit_on_a_large_system_reserves_a_first_block():
    # min(m, n) + 1 columns of 120k rows would be 57.6 GB; the blocks start
    # at FIRST_BLOCK columns, which are not touched until written
    m, n = 120_000, 60_000
    rng = np.random.default_rng(216)
    A = sparse.diags(rng.uniform(0.1, 0.2, n), shape=(m, n), format="csr")
    B = sparse.diags(rng.uniform(0.1, 0.2, n), shape=(n, m), format="csr")
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix(A), Operator.from_matrix(B),
                             rng.standard_normal(m), rng.standard_normal(n))
    res = gpmr_solve(sys_, tol=1e-10, maxit=2 * (m + n))
    assert res.converged and res.iterations <= 20
    assert residual_norm(sys_, res.x, res.y) <= 1e-10


@pytest.mark.parametrize("sys_, restart, maxit", [
    pytest.param(make_system(30, 20, seed=213), 1, 12, id="1-12"),
    pytest.param(make_system(30, 20, seed=213), 5, 17, id="5-17"),
    pytest.param(make_system(30, 20, seed=213), 20, 8, id="20-8"),
    # singular, with an iterate that grows to 1.8e11: the projected residual
    # drifts from the true one by 2.4e-4, and a cycle end reports the latter
    pytest.param(random_system(3, 6, 306, 0.0, 0.0, symmetric=True), 2, 18,
                 id="singular-2-18"),
])
def test_restarted_residual_is_the_true_residual(sys_, restart, maxit):
    res = gpmr_solve(sys_, tol=0.0, maxit=maxit, restart=restart)
    assert (res.iterations, res.reason) == (maxit, "maxit")
    true = residual_norm(sys_, res.x, res.y)
    if maxit % restart == 0:
        # a cycle end reports the true residual it computed to restart
        assert res.residual == true
    else:
        assert res.residual == pytest.approx(true, rel=1e-10)


def test_restart_stops_cleanly_on_an_exactly_zero_residual_block():
    # A = 0 and lam = 1 make x = b = e_1 exact after a few cycles; the
    # b-block of the next restart is then exactly zero and the run stops
    rng = np.random.default_rng(0)
    B = rng.standard_normal((2, 3))
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix(np.zeros((3, 2))),
                             Operator.from_matrix(B), np.eye(3)[0],
                             rng.standard_normal(2))
    res = gpmr_solve(sys_, tol=0.0, maxit=20, restart=1)
    assert (res.reason, res.iterations) == ("breakdown", 6)
    assert np.array_equal(res.x, np.eye(3)[0])
    assert res.residual == residual_norm(sys_, res.x, res.y) <= 1e-15


SCALAR_PAIRS = [(1.0, -0.5), (0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (2.0, 1.0)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from(SCALAR_PAIRS),
       st.booleans(), st.sampled_from([None, 1, 2, 5]))
def test_reported_residual_is_that_of_the_iterate(m, n, scalars, symmetric, restart):
    # the unknowns map to the basis vectors they multiply through exhausted
    # sides, dependent columns and restarts.  The tolerance is a backward
    # error: restarted singular runs grow the iterate to about 1e12
    sys_ = random_system(m, n, 100 * m + n, *scalars, symmetric=symmetric)
    norm_K = np.linalg.norm(assemble_dense(sys_))
    maxit = 2 * (m + n)
    state = GPMRState(sys_, restart, maxit)
    while not state.stopped and state.k < maxit:
        state.advance()
        x, y = state.iterate()
        scale = sys_.rhs_norm + norm_K * math.hypot(np.linalg.norm(x), np.linalg.norm(y))
        assert abs(residual_norm(sys_, x, y) - state.res) <= 1e-12 * scale


# -- oracles --------------------------------------------------------------------

def test_minnorm_identity_rows():
    H = np.hstack([np.eye(2), np.zeros((2, 2))])
    z = oracle_minnorm(H, np.array([1.0, 1.0]))
    assert_allclose(z, [1.0, 1.0, 0.0, 0.0], atol=1e-14)


def test_minnorm_minimality_and_feasibility():
    rng = np.random.default_rng(207)
    H = rng.standard_normal((6, 8))
    rhs = H @ rng.standard_normal(8)
    z = oracle_minnorm(H, rhs)
    assert np.linalg.norm(H @ z - rhs) <= 1e-10
    for _ in range(10):
        null = rng.standard_normal(8)
        null -= np.linalg.pinv(H) @ (H @ null)
        assert np.linalg.norm(z) <= np.linalg.norm(z + null) + 1e-12


def test_minnorm_flags_inconsistency():
    deficient = np.zeros((2, 3))
    deficient[0, 0] = 1.0  # second row zero: rank deficient
    # rows equal to within 1e-13 with right sides 1 and 2 have full numerical
    # rank, but no computed z meets them to 1e-10
    near = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 0.0]])
    for H, rhs, match in ((deficient, [1.0, 1.0], "rank"),
                          (near, [1.0, 2.0], "inconsistent")):
        with pytest.raises(ValueError, match=match):
            oracle_minnorm(H, np.array(rhs))


def test_lsq_identity_and_consistency():
    assert_allclose(oracle_lsq(np.eye(3), np.ones(3)), np.ones(3))
    H = np.vstack([np.eye(2), np.eye(2)])
    z = oracle_lsq(H, np.array([1.0, 2.0, 1.0, 2.0]))
    assert_allclose(z, [1.0, 2.0], atol=1e-14)


def test_lsq_normal_equations_orthogonality():
    rng = np.random.default_rng(208)
    H = rng.standard_normal((9, 5))
    rhs = rng.standard_normal(9)
    z = oracle_lsq(H, rhs)
    assert np.linalg.norm(H.T @ (H @ z - rhs)) <= 1e-10


def test_lsq_flags_rank_deficiency():
    H = np.zeros((4, 2))
    H[:, 0] = 1.0
    with pytest.raises(ValueError, match="rank"):
        oracle_lsq(H, np.ones(4))


def test_dense_solve_cases(one_by_one):
    x, y = oracle_dense_solve(one_by_one)
    assert_allclose(np.concatenate([x, y]), [0.2, 0.4], atol=1e-14)
    # zero coupling blocks: solution is the right-hand side itself
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix(np.zeros((3, 2))),
                             Operator.from_matrix(np.zeros((2, 3))),
                             np.arange(1.0, 4.0), np.arange(1.0, 3.0))
    x, y = oracle_dense_solve(sys_)
    assert_allclose(x, sys_.b)
    assert_allclose(y, sys_.c)
    sys5 = make_system(5, 5, seed=209)
    x, y = oracle_dense_solve(sys5)
    assert residual_norm(sys5, x, y) <= 1e-12


def test_dense_solve_flags_singular():
    sys_ = PartitionedSystem(0.0, 0.0, Operator.from_matrix(np.zeros((2, 2))),
                             Operator.from_matrix(np.eye(2)),
                             np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="singular"):
        oracle_dense_solve(sys_)
