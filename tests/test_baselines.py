import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy import sparse

from gpkrylov import (HessenbergProcessState, assemble_dense, gpmr_solve,
                      residual_norm)
from gpkrylov import baselines
from gpkrylov.baselines import GPMRState
from gpkrylov.linop import Operator, PartitionedSystem
from gpkrylov.verify import (oracle_dense_solve, oracle_lsq, oracle_minnorm,
                             random_system)

from conftest import make_system


# -- simultaneous Hessenberg process ------------------------------------------

def test_bases_orthonormal_and_projections_match():
    sys_ = make_system(10, 8, seed=200)
    proc = HessenbergProcessState(sys_)
    for _ in range(6):
        assert proc.step()
    k = proc.k
    V, U = proc.V(k), proc.U(k)
    assert np.linalg.norm(V.T @ V - np.eye(k)) <= 1e-12
    assert np.linalg.norm(U.T @ U - np.eye(k)) <= 1e-12
    A, B = sys_.A.to_dense(), sys_.B.to_dense()
    M = proc.projected()
    H, F = M[0::2, 1::2], M[1::2, 0::2]  # V^T A U and U^T B V
    assert_allclose(proc.V(k + 1).T @ A @ U, H, atol=1e-12)
    assert_allclose(proc.U(k + 1).T @ B @ V, F, atol=1e-12)
    assert np.all(H[np.arange(1, k + 1), np.arange(k)] >= 0)


def test_symmetric_coupling_gives_tridiagonal_projection():
    sys_ = make_system(9, 9, seed=201, symmetric=True)
    proc = HessenbergProcessState(sys_)
    for _ in range(6):
        proc.step()
    H = proc.projected()[0::2, 1::2]
    assert H.shape == (7, 6)
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 1:
                assert abs(H[i, j]) <= 1e-12


def _projection_gap(sys_, proc):
    """||K W - W_next M|| / ||K||: W holds the processed vectors in column
    order, W_next every vector on its row (v_i on 2i, u_i on 2i+1)."""
    M, m = proc.projected(), sys_.m
    K = assemble_dense(sys_)
    W = np.zeros((m + sys_.n, M.shape[1]))
    W[:m, proc.vcol] = proc.V(len(proc.vcol))
    W[m:, proc.ucol] = proc.U(len(proc.ucol))
    W_next = np.zeros((m + sys_.n, M.shape[0]))
    W_next[:m, 0:2 * proc.nv:2] = proc.V(proc.nv)
    W_next[m:, 1:2 * proc.nu:2] = proc.U(proc.nu)
    return np.linalg.norm(K @ W - W_next @ M) / np.linalg.norm(K)


def test_interleaved_projection_maps_the_basis():
    sys_ = make_system(7, 6, seed=210)
    proc = HessenbergProcessState(sys_)
    for _ in range(4):
        proc.step()
    assert proc.projected().shape == (10, 8)
    assert _projection_gap(sys_, proc) <= 1e-12


def test_process_grows_past_its_first_block(monkeypatch):
    monkeypatch.setattr(baselines, "FIRST_BLOCK", 8)
    sys_ = make_system(60, 50, seed=211)
    proc = HessenbergProcessState(sys_)
    for _ in range(40):
        assert proc.step()
    assert (proc.k, proc.vb.shape[1], proc.ub.shape[1]) == (40, 60, 50)
    assert proc.V(41).shape == (60, 41) and proc.U(41).shape == (50, 41)
    assert _projection_gap(sys_, proc) <= 1e-12
    V, U = proc.V(41), proc.U(41)
    assert np.linalg.norm(V.T @ V - np.eye(41)) <= 1e-12
    assert np.linalg.norm(U.T @ U - np.eye(41)) <= 1e-12


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
    assert _projection_gap(sys_, proc) <= 1e-12
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
    st = GPMRState(sys_)
    for k in range(1, 31):
        st.advance()
        P = st.proc.projected()
        rhs = np.zeros(2 * k + 2)
        rhs[:2] = st.proc.beta, st.proc.gamma
        z, *_ = np.linalg.lstsq(P, rhs, rcond=None)
        assert st.qr.projected_residual() == pytest.approx(
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


@pytest.mark.parametrize("restart, maxit", [(1, 12), (5, 17), (20, 8)])
def test_restarted_residual_is_the_true_residual(restart, maxit):
    sys_ = make_system(30, 20, seed=213)
    res = gpmr_solve(sys_, tol=0.0, maxit=maxit, restart=restart)
    assert (res.iterations, res.reason) == (maxit, "maxit")
    assert res.residual == pytest.approx(residual_norm(sys_, res.x, res.y), rel=1e-10)


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
    H = np.zeros((2, 3))
    H[0, 0] = 1.0  # second row zero: rank deficient
    with pytest.raises(ValueError, match="rank"):
        oracle_minnorm(H, np.array([1.0, 1.0]))


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
