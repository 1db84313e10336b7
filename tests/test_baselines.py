import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpkrylov import (HessenbergProcessState, assemble_dense, gpmr_solve,
                      residual_norm)
from gpkrylov.linop import Operator, PartitionedSystem
from gpkrylov.verify import oracle_dense_solve, oracle_lsq, oracle_minnorm

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
    assert_allclose(proc.V(k + 1).T @ A @ U, proc.H(k), atol=1e-12)
    assert_allclose(proc.U(k + 1).T @ B @ V, proc.F(k), atol=1e-12)
    assert np.all(proc.H(k)[np.arange(1, k + 1), np.arange(k)] >= 0)


def test_symmetric_coupling_gives_tridiagonal_projection():
    sys_ = make_system(9, 9, seed=201, symmetric=True)
    proc = HessenbergProcessState(sys_)
    for _ in range(6):
        proc.step()
    H = proc.H(6)
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 1:
                assert abs(H[i, j]) <= 1e-12


def test_interleaved_projection_maps_the_basis():
    sys_ = make_system(7, 6, seed=210)
    proc = HessenbergProcessState(sys_)
    for _ in range(4):
        proc.step()
    k = proc.k
    K = assemble_dense(sys_)
    W = np.zeros((sys_.m + sys_.n, 2 * k))
    W[:sys_.m, 0::2] = proc.V(k)
    W[sys_.m:, 1::2] = proc.U(k)
    W_next = np.zeros((sys_.m + sys_.n, 2 * k + 2))
    W_next[:sys_.m, 0::2] = proc.V(k + 1)
    W_next[sys_.m:, 1::2] = proc.U(k + 1)
    assert np.linalg.norm(K @ W - W_next @ proc.projected(k)) <= 1e-12 * np.linalg.norm(K)


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
