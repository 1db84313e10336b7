import numpy as np
from numpy.testing import assert_allclose

from gpkrylov import (Operator, PartitionedSystem, QMRState, gpmr_solve,
                      gpqmr_solve, residual_norm)
from gpkrylov.rotations import plane_rotation, rotation_block
from gpkrylov.verify import (dense_qr_factors, live_directions, lsq_gaps,
                             projected_system, qr_errors, stepped)

from gpk_support import make_system


# -- factorization window ----------------------------------------------------

def test_rotation_kernel_pure_swap():
    c, s, r = plane_rotation(0.0, 1.0)
    assert_allclose([c, s, r], [0.0, 1.0, 1.0])


def test_first_step_diagonal_one_by_one(one_by_one):
    # projected matrix [[1,2],[3,1],[0,0],[0,0]]: leading pivot sqrt(1+9+0)
    st = QMRState(one_by_one)
    st.advance()
    col1, _ = st.window.cols
    assert_allclose(col1[0], np.sqrt(10.0))


def test_qr_reconstruction_over_steps():
    sys_ = make_system(10, 8, seed=90, fg_random=True)
    for st, hist in stepped(QMRState, sys_, 6):
        H, _ = projected_system(st, hist, 2 * st.k + 2)
        recon, orth, off_band = qr_errors(st, hist)
        assert recon <= 1e-12 * max(1.0, np.linalg.norm(H))
        assert orth <= 1e-12
        assert off_band <= 1e-14
        assert all(col[0] > 0 for col in hist.columns)  # rows 1..2k


def test_rotation_factors_orthogonal():
    sys_ = make_system(8, 8, seed=91)
    *_, (_, hist) = stepped(QMRState, sys_, 5)
    for quad in hist.bundles:
        M = rotation_block(*quad)
        assert np.linalg.norm(M @ M.T - np.eye(4)) <= 1e-14


# -- rotated right-hand side ---------------------------------------------------

def test_rotated_rhs_accumulates_orthogonally():
    sys_ = make_system(9, 9, seed=92, fg_random=True)
    for st, hist in stepped(QMRState, sys_, 6):
        k = st.k
        Qh, _ = dense_qr_factors(hist)
        _, rhs = projected_system(st, hist, 2 * k + 2)
        full = Qh.T @ rhs
        got = np.array(hist.entries + list(st.rhs[2:]))  # entries 1..2k, carries
        assert_allclose(got, full, atol=1e-12)


def test_one_by_one_rhs_solves_exactly(one_by_one):
    st = QMRState(one_by_one)
    st.advance()
    x, y = st.iterate()
    assert_allclose(x, [0.2], atol=1e-14)
    assert_allclose(y, [0.4], atol=1e-14)
    assert st.quasi <= 1e-14


# -- directions ----------------------------------------------------------------

def test_startup_direction_columns():
    sys_ = make_system(6, 5, seed=93)
    (st, hist), = stepped(QMRState, sys_, 1)
    q1 = hist.qs[0]  # index-1 basis vector
    (rho1, *_), (rho2, nu12, *_) = st.window.cols  # nu12: R[1, 2]
    d1, d2 = live_directions(st)[:, -2:].T
    assert_allclose(d1[:6], q1 / rho1, atol=1e-14)
    assert_allclose(d1[6:], 0.0, atol=1e-14)
    assert_allclose(d2[:6], -nu12 * d1[:6] / rho2, atol=1e-14)


def test_directions_satisfy_back_recurrence_dense():
    # W e_j = sum_i d_i R[i, j] over every column of the run: W = D R
    sys_ = make_system(9, 7, seed=94, fg_random=True)
    *_, (st, hist) = stepped(QMRState, sys_, 6)
    _, Rh = dense_qr_factors(hist)
    W, D = hist.W(st.k), np.column_stack(hist.directions)
    assert D.shape == W.shape == (16, 12)
    assert np.linalg.norm(W - D @ Rh) <= 1e-12 * np.linalg.norm(W)


# -- iterate and residuals -----------------------------------------------------

def test_iterate_matches_least_squares_oracle():
    for seed in range(5):
        sys_ = make_system(12, 12, seed=100 + seed, fg_random=True)
        for st, hist in stepped(QMRState, sys_, 8):
            iterate_gap, quasi_gap = lsq_gaps(st, hist)
            assert iterate_gap <= 1e-8
            assert quasi_gap <= 1e-12


def test_quasi_residual_monotone():
    sys_ = make_system(14, 14, seed=110, fg_random=True)
    quasis = [row.est_residual
              for row in gpqmr_solve(sys_, tol=1e-30, maxit=10).record.rows]
    assert all(b <= a + 1e-12 for a, b in zip(quasis, quasis[1:]))


def test_true_residual_bounded_by_basis_norm_times_quasi():
    sys_ = make_system(10, 10, seed=111, fg_random=True)
    for st, hist in stepped(QMRState, sys_, 7):
        bound = np.linalg.norm(hist.W(st.k + 1), 2) * st.quasi
        assert residual_norm(sys_, st.x, st.y) <= bound + 1e-9


# -- driver --------------------------------------------------------------------

def test_solve_maxit_zero():
    sys_ = make_system(5, 4, seed=120)
    res = gpqmr_solve(sys_, tol=1e-10, maxit=0)
    assert res.reason == "maxit" and res.iterations == 0
    assert_allclose(res.x, 0.0)


def test_solve_exact_at_full_dimension():
    sys_ = make_system(6, 6, seed=121)
    res = gpqmr_solve(sys_, tol=1e-10, maxit=40)
    assert res.converged and res.iterations <= 6
    assert residual_norm(sys_, res.x, res.y) <= 1e-10


def test_solve_sqd_shape():
    # symmetric coupling with negative shift: the classic quasi-definite case
    sys_ = make_system(9, 9, seed=122, symmetric=True, mu=-1.0)
    res = gpqmr_solve(sys_, tol=1e-9, maxit=60, explicit_residual=True)
    assert res.converged
    assert residual_norm(sys_, res.x, res.y) <= 1e-8


def test_matches_gpmr_on_small_symmetric_system():
    sys_ = make_system(8, 8, seed=123, symmetric=True, mu=-1.0)
    rq = gpqmr_solve(sys_, tol=1e-30, maxit=5, explicit_residual=True)
    rm = gpmr_solve(sys_, tol=1e-30, maxit=5, explicit_residual=True)
    # theoretically identical iterates while orthogonality holds
    assert np.linalg.norm(rq.x - rm.x) + np.linalg.norm(rq.y - rm.y) <= 1e-6


def test_breakdown_reported_not_raised():
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix(np.eye(2)),
                             Operator.from_matrix(np.eye(2)),
                             [0.0, 1.0], np.ones(2), f=[1.0, 0.0])
    res = gpqmr_solve(sys_, tol=1e-12, maxit=10)
    assert res.reason == "breakdown" and res.breakdown.iteration == 1
