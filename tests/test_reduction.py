import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gpkrylov import (BreakdownReport, Operator, PartitionedSystem,
                      reduction_init, reduction_step)
from gpkrylov.verify import (ReductionHistory, assemble_dense, build_projected_h,
                             reduction_errors, to_dense)

from gpk_support import make_system


def run_steps(sys_, steps):
    red = reduction_init(sys_)
    assert red.breakdown is None
    hist = ReductionHistory(red)
    for _ in range(steps):
        coeffs = reduction_step(red, sys_)
        hist.update(red, coeffs)
        if red.breakdown is not None:
            break
    return red, hist


# -- initialization ----------------------------------------------------------

def test_init_unit_vectors():
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix([[2.0]]),
                             Operator.from_matrix([[3.0]]), [1.0], [1.0])
    red = reduction_init(sys_)
    assert red.eta == red.beta == 1.0
    assert_allclose(red.p_cur, [1.0])
    assert_allclose(red.q_cur, [1.0])


def test_init_scaling_split():
    # f^T b = 4 splits as eta = |4|^(1/2) = 2, beta = 4/2 = 2
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix([[2.0]]),
                             Operator.from_matrix([[3.0]]), [2.0], [2.0])
    red = reduction_init(sys_)
    assert_allclose([red.eta, red.beta], [2.0, 2.0])
    assert_allclose(red.p_cur, [1.0])
    assert_allclose(red.q_cur, [1.0])


def test_init_negative_product_sign_convention():
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix([[2.0]]),
                             Operator.from_matrix([[3.0]]), [1.0], [1.0],
                             f=[-4.0], g=[1.0])
    red = reduction_init(sys_)
    assert red.eta == 2.0 and red.beta == -2.0  # eta nonnegative, beta signed
    assert_allclose(red.p_cur @ red.q_cur, 1.0)


E1, E2, ONES = [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]


# A breakdown is lucky only when every pair that broke down is: a vanished
# b beside a serious c ⟂ g is serious, reported on the first pair.
@pytest.mark.parametrize("f, b, c, g, kind", [
    (E1, E2, ONES, ONES, "p_q"),
    (ONES, ONES, E1, E2, "u_v"),
    (E1, E2, E1, E2, "p_q"),
    (E1, [0.0, 1e-20], E1, E2, "p_q"),
], ids=["f_perp_b", "c_perp_g", "both_serious", "lucky_and_serious"])
def test_init_orthogonal_start_breaks_down(f, b, c, g, kind):
    sys_ = PartitionedSystem(1.0, 1.0, Operator.from_matrix(np.eye(2)),
                             Operator.from_matrix(np.eye(2)), b, c, f=f, g=g)
    rep = reduction_init(sys_).breakdown
    assert isinstance(rep, BreakdownReport)
    assert rep.kind == kind and rep.iteration == 1 and not rep.lucky
    assert rep.magnitude == 0.0


# -- stepping ----------------------------------------------------------------

def test_one_by_one_lucky_breakdown(one_by_one):
    red = reduction_init(one_by_one)
    coeffs = reduction_step(red, one_by_one)
    assert_allclose([coeffs.alpha, coeffs.theta], [2.0, 3.0])
    assert red.breakdown is not None
    assert red.breakdown.lucky and red.breakdown.iteration == 2
    assert red.beta == 0.0
    with pytest.raises(RuntimeError, match="broke"):
        reduction_step(red, one_by_one)


def test_symmetric_coupling_collapses_pairs():
    sys_ = make_system(4, 4, seed=20, symmetric=True)
    red = reduction_init(sys_)
    for _ in range(3):
        reduction_step(red, sys_)
        assert_allclose(red.p_cur, red.q_cur, atol=1e-12)
        assert_allclose(red.v_cur, red.u_cur, atol=1e-12)


def test_matrix_relations_hold():
    sys_ = make_system(5, 5, seed=21, fg_random=True)
    A, B = to_dense(sys_.A), to_dense(sys_.B)
    red, hist = run_steps(sys_, 4)
    _, relations = reduction_errors(hist, A, B)
    assert len(hist.alphas) == 4
    assert max(relations) <= 1e-10 * np.linalg.norm(A)


def test_biorthogonality():
    sys_ = make_system(20, 20, seed=22, fg_random=True)
    red, hist = run_steps(sys_, 10)
    biortho, _ = reduction_errors(hist, to_dense(sys_.A), to_dense(sys_.B))
    assert len(hist.alphas) == 10
    assert biortho <= 1e-8


def test_normalization_products_are_one():
    sys_ = make_system(9, 6, seed=23)
    red = reduction_init(sys_)
    for _ in range(4):
        reduction_step(red, sys_)
        assert_allclose(red.p_cur @ red.q_cur, 1.0, atol=1e-12)
        assert_allclose(red.u_cur @ red.v_cur, 1.0, atol=1e-12)


def test_basis_norms_follow_the_window():
    """q_norm and u_norm, which gpbilq's estimate reads, are the norms of
    q_cur and u_cur, the *_prev_norm slots their previous values, and
    vec_scale the running maximum of the unnormalized vectors' norms."""
    sys_ = make_system(9, 6, seed=23, fg_random=True)
    red = reduction_init(sys_)
    norm = np.linalg.norm
    scale = max(1.0, *(norm(v) for v in (sys_.f, sys_.b, sys_.c, sys_.g)))
    prev = (0.0, 0.0)
    for step in range(5):
        if step:
            reduction_step(red, sys_)
            assert red.breakdown is None
            # the new pairs before normalization: eta p, beta q, delta u, gamma v
            scale = max(scale, red.eta * norm(red.p_cur), abs(red.beta) * norm(red.q_cur),
                        red.delta * norm(red.u_cur), abs(red.gamma) * norm(red.v_cur))
        assert red.vec_scale == pytest.approx(scale, rel=1e-14)
        assert (red.q_prev_norm, red.u_prev_norm) == prev
        assert_allclose([red.q_norm, red.u_norm],
                        [norm(red.q_cur), norm(red.u_cur)], rtol=1e-14)
        prev = (red.q_norm, red.u_norm)


def test_four_operator_applications_per_step():
    calls = {"A": 0, "At": 0, "B": 0, "Bt": 0}
    rng = np.random.default_rng(24)
    A = rng.standard_normal((6, 5))
    B = rng.standard_normal((5, 6))

    def count(key, fn):
        def wrapped(v):
            calls[key] += 1
            return fn(v)
        return wrapped

    opA = Operator(6, 5, count("A", lambda v: A @ v), count("At", lambda v: A.T @ v))
    opB = Operator(5, 6, count("B", lambda v: B @ v), count("Bt", lambda v: B.T @ v))
    sys_ = PartitionedSystem(1.0, -1.0, opA, opB,
                             rng.standard_normal(6), rng.standard_normal(5))
    red = reduction_init(sys_)
    for _ in range(3):
        reduction_step(red, sys_)
    assert calls == {"A": 3, "At": 3, "B": 3, "Bt": 3}


def test_krylov_span_membership():
    # q_k lies in the union Krylov space grown from b and A c
    sys_ = make_system(14, 14, seed=25, fg_random=True)
    A, B = to_dense(sys_.A), to_dense(sys_.B)
    red, hist = run_steps(sys_, 6)
    basis = [sys_.b]
    v = sys_.c
    for _ in range(3):
        basis.append(A @ v)        # A c, A B A c, ...
        v = B @ (A @ v)
    w = sys_.b
    for _ in range(3):
        w = A @ (B @ w)
        basis.append(w)            # (A B)^j b
    Q_basis = np.linalg.qr(np.column_stack(basis))[0]
    for k in range(6):
        qk = hist.qs[k]
        proj = Q_basis @ (Q_basis.T @ qk)
        assert np.linalg.norm(qk - proj) <= 1e-8 * np.linalg.norm(qk)


# -- projected matrix --------------------------------------------------------

def test_projected_block_stencil():
    H = build_projected_h([2.0], [3.0], [9.0, 0.0], [9.0], [9.0, 0.0], [9.0],
                          1.0, 1.0, 1)
    assert_allclose(H, [[1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    # k = 2, every coefficient distinct: S has diagonal alpha, sub beta and
    # super gamma, T theta, delta and eta; beta_1, gamma_1, delta_1 and eta_1
    # (the negative entries) stay out of H
    coeffs = [[2.0, 3.0], [5.0, 7.0], [-1.0, 11.0, 13.0], [-2.0, 17.0],
              [-3.0, 19.0, 23.0], [-4.0, 29.0]]
    H = build_projected_h(*coeffs, 0.5, -0.25, 2)
    assert_array_equal(H, [[0.5, 2.0, 0.0, 17.0],
                           [5.0, -0.25, 29.0, 0.0],
                           [0.0, 11.0, 0.5, 3.0],
                           [19.0, 0.0, 7.0, -0.25],
                           [0.0, 0.0, 0.0, 13.0],
                           [0.0, 0.0, 23.0, 0.0]])
    with pytest.raises(ValueError, match="coupling coefficients"):
        build_projected_h([2.0], [3.0], [9.0], [9.0], [9.0], [9.0], 1.0, 1.0, 1)
    # theta, gamma or eta shorter than k, delta shorter than k+1
    for short in (1, 3, 4, 5):
        cut = [seq[:-1] if i == short else seq for i, seq in enumerate(coeffs)]
        with pytest.raises(ValueError, match="coupling coefficients"):
            build_projected_h(*cut, 0.5, -0.25, 2)


def test_projected_identity_with_permuted_basis():
    sys_ = make_system(5, 5, seed=26, fg_random=True)
    red, hist = run_steps(sys_, 4)
    K = assemble_dense(sys_)
    for k in (2, 3, 4):
        H = hist.projected(sys_.lam, sys_.mu, k)
        gap = np.linalg.norm(K @ hist.W(k) - hist.W(k + 1) @ H)
        assert gap <= 1e-10 * max(1.0, np.linalg.norm(K))


def test_projected_rank_properties():
    sys_ = make_system(6, 6, seed=27, fg_random=True)
    red, hist = run_steps(sys_, 5)
    for k in (2, 3, 4, 5):
        H = hist.projected(sys_.lam, sys_.mu, k)
        # leading 2k-2 rows have full row rank; full matrix has full column rank
        s_rows = np.linalg.svd(H[:2 * k - 2, :], compute_uv=False)
        assert s_rows[2 * k - 3] > 1e-10
        s_cols = np.linalg.svd(H, compute_uv=False)
        assert s_cols[2 * k - 1] > 1e-10
