import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from gpkrylov import (Operator, PartitionedSystem, apply_partitioned,
                      assemble_dense, residual_norm)
from gpkrylov.linop import adjoint_mismatch

from gpk_support import make_system


def test_apply_one_by_one(one_by_one):
    top, bot = apply_partitioned(one_by_one, np.array([1.0]), np.array([1.0]))
    assert_allclose(top, [3.0])
    assert_allclose(bot, [4.0])


def test_apply_zero_blocks():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((3, 4))
    sys_ = PartitionedSystem(0.0, 0.0, Operator.from_matrix(A),
                             Operator.from_matrix(B), np.ones(4), np.ones(3))
    top, bot = apply_partitioned(sys_, np.zeros(4), np.zeros(3))
    assert_allclose(top, 0.0)
    assert_allclose(bot, 0.0)


def test_apply_matches_dense_assembly():
    sys_ = make_system(3, 2, seed=11, lam=1.0, mu=-0.1)
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(3), rng.standard_normal(2)
    K = assemble_dense(sys_)
    expected = K @ np.concatenate([x, y])
    top, bot = apply_partitioned(sys_, x, y)
    assert_allclose(np.concatenate([top, bot]), expected, rtol=1e-12)


def test_residual_norm_zero_iterate():
    sys_ = make_system(5, 4, seed=2)
    assert_allclose(residual_norm(sys_, np.zeros(5), np.zeros(4)),
                    np.linalg.norm(np.concatenate([sys_.b, sys_.c])))


def test_residual_norm_exact_solution(one_by_one):
    assert residual_norm(one_by_one, np.array([0.2]), np.array([0.4])) < 1e-15


def test_residual_norm_matches_dense():
    sys_ = make_system(6, 4, seed=3)
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(6), rng.standard_normal(4)
    K = assemble_dense(sys_)
    r = np.concatenate([sys_.b, sys_.c]) - K @ np.concatenate([x, y])
    assert_allclose(residual_norm(sys_, x, y), np.linalg.norm(r), rtol=1e-12)


def test_assemble_dense_one_by_one(one_by_one):
    assert_allclose(assemble_dense(one_by_one), [[1.0, 2.0], [3.0, 1.0]])


def test_assemble_dense_blocks():
    sys_ = make_system(3, 2, seed=7, lam=0.0, mu=0.0)
    K = assemble_dense(sys_)
    assert_allclose(K[:3, :3], 0.0)
    assert_allclose(K[3:, 3:], 0.0)
    assert_allclose(K[:3, 3:], sys_.A.to_dense())
    assert_allclose(K[3:, :3], sys_.B.to_dense())


def test_assemble_dense_guard():
    sys_ = make_system(4, 4, seed=0)
    with pytest.raises(ValueError, match="dense"):
        assemble_dense(sys_, guard=6)


@pytest.mark.parametrize("sparse_ops", [False, True])
def test_operator_adjointness(sparse_ops):
    sys_ = make_system(30, 17, seed=5, sparse_ops=sparse_ops)
    assert adjoint_mismatch(sys_.A, rng=0) < 1e-12
    assert adjoint_mismatch(sys_.B, rng=1) < 1e-12


def test_operator_shape_checks():
    op = Operator.from_matrix(np.ones((3, 2)))
    with pytest.raises(ValueError, match="length"):
        op.apply(np.ones(3))
    with pytest.raises(ValueError, match="length"):
        op.apply_transpose(np.ones(2))
    # callbacks that return a vector of the wrong length
    bad = Operator(3, 2, lambda x: np.ones(2), lambda y: np.ones(3))
    with pytest.raises(ValueError, match="apply callback returned"):
        bad.apply(np.ones(2))
    with pytest.raises(ValueError, match="apply_transpose callback returned"):
        bad.apply_transpose(np.ones(3))


def test_sparse_and_dense_agree():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 4))
    x = rng.standard_normal(4)
    dense = Operator.from_matrix(A)
    sp = Operator.from_matrix(sparse.csr_matrix(A))
    assert_allclose(dense.apply(x), sp.apply(x), rtol=1e-14)
    y = rng.standard_normal(6)
    assert_allclose(dense.apply_transpose(y), sp.apply_transpose(y), rtol=1e-14)


def test_system_validation():
    A = Operator.from_matrix(np.ones((3, 2)))
    B = Operator.from_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonzero"):
        PartitionedSystem(1.0, 1.0, A, B, np.zeros(3), np.ones(2))
    with pytest.raises(ValueError, match="B must be"):
        PartitionedSystem(1.0, 1.0, A, Operator.from_matrix(np.ones((3, 3))),
                          np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="b must have length 3"):
        PartitionedSystem(1.0, 1.0, A, B, np.ones(2), np.ones(2))


@pytest.mark.parametrize("x_len, y_len", [(2, 2), (3, 3)])
def test_apply_partitioned_rejects_wrong_lengths(x_len, y_len):
    sys_ = make_system(3, 2, seed=12)
    with pytest.raises(ValueError, match="expected x of length 3 and y of length 2"):
        apply_partitioned(sys_, np.ones(x_len), np.ones(y_len))


def test_default_start_vectors_are_rhs():
    sys_ = make_system(4, 3, seed=9)
    assert_allclose(sys_.f, sys_.b)
    assert_allclose(sys_.g, sys_.c)
    sys2 = make_system(4, 3, seed=9, fg_random=True)
    assert not np.allclose(sys2.f, sys2.b)
