import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from gpkrylov import (Operator, PartitionedSystem, apply_partitioned,
                      assemble_dense, gpbilq_solve, gpmr_solve, gpqmr_solve,
                      residual_norm)
from gpkrylov.verify import adjoint_mismatch, to_dense

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
    assert_allclose(K[:3, 3:], to_dense(sys_.A))
    assert_allclose(K[3:, :3], to_dense(sys_.B))


def test_assemble_dense_guard():
    def never(v):
        raise AssertionError("a column was formed above the guard")

    sys_ = PartitionedSystem(1.0, 1.0, Operator(1500, 600, never, never),
                             Operator(600, 1500, never, never),
                             np.ones(1500), np.ones(600))
    with pytest.raises(ValueError, match="dense"):
        assemble_dense(sys_)
    with pytest.raises(ValueError, match="operator too large to densify"):
        to_dense(Operator(2001, 1, never, never))


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
    for name in "bcfg":
        vecs = dict(b=np.ones(3), c=np.ones(2), f=np.ones(3), g=np.ones(2))
        vecs[name] = vecs[name] + 1j
        with pytest.raises(ValueError, match=f"{name} must be real"):
            PartitionedSystem(1.0, 1.0, A, B, **vecs)


@pytest.mark.parametrize("to_matrix", [np.asarray, sparse.csr_matrix],
                         ids=["dense", "sparse"])
def test_from_matrix_rejects_complex(to_matrix):
    with pytest.raises(ValueError, match="matrix must be real"):
        Operator.from_matrix(to_matrix(np.eye(3) + 1j * np.ones((3, 3))))


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


def test_rhs_norm_is_computed_once():
    sys_ = make_system(6, 4, seed=13)
    expected = float(np.hypot(np.linalg.norm(sys_.b), np.linalg.norm(sys_.c)))
    assert sys_.rhs_norm == expected
    assert vars(sys_)["rhs_norm"] is sys_.rhs_norm


def _messy_csr(rng, m, n, per_row, integer=False):
    """Random m x n CSR built from raw arrays: column indices unsorted within
    a row and repeated (duplicate entries), some stored values exactly zero,
    every fourth row empty and the last columns never used."""
    counts = rng.integers(0, per_row + 1, m)
    counts[::4] = 0
    indptr = np.concatenate([[0], np.cumsum(counts)])
    nnz = int(indptr[-1])
    indices = rng.integers(0, max(1, n - 2), nnz)
    indices[1::5] = indices[::5][:len(indices[1::5])]
    data = (rng.integers(-3, 4, nnz) if integer else rng.standard_normal(nnz))
    data[::7] = 0
    return sparse.csr_matrix((data, indices, indptr), shape=(m, n))


@pytest.mark.parametrize("seed", range(12))
def test_sparse_transpose_matches_csr_snapshot_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(1, 40, 2))
    mat = _messy_csr(rng, m, n, per_row=int(rng.integers(3, 9)), integer=seed % 3 == 0)
    assert not mat.has_canonical_format
    op = Operator.from_matrix(mat)
    # Integer data is compared on its float copy, which is what the operator
    # stores: scipy's product on the integer matrix is not bit-equal to it.
    snapshot = mat.astype(float)
    y = rng.standard_normal(m)
    assert op.apply_transpose(y).tobytes() == (snapshot.T.tocsr() @ y).tobytes()
    x = rng.standard_normal(n)
    assert op.apply(x).tobytes() == (snapshot @ x).tobytes()


def _snapshot_operator(mat):
    """The operator as a private float CSR plus a CSR snapshot of its
    transpose, wrapped as callbacks."""
    csr = sparse.csr_matrix(mat, dtype=float, copy=True)
    csr_t = csr.T.tocsr()
    return Operator(csr.shape[0], csr.shape[1], lambda x: csr @ x, lambda y: csr_t @ y)


def _grid_gradient(N):
    D = sparse.diags([-np.ones(N - 1), np.ones(N - 1)], [0, 1], shape=(N - 1, N))
    eye = sparse.identity(N)
    return (N * sparse.vstack([sparse.kron(eye, D), sparse.kron(D, eye)])).tocsr()


def _sparse_pairs():
    A = _grid_gradient(8)
    rng = np.random.default_rng(21)
    b, c = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[1])
    yield "grid8", 1.0, -1e-2, A, (-A.T).tocsr(), b, c
    rng = np.random.default_rng(22)
    A, B = _messy_csr(rng, 45, 30, 8), _messy_csr(rng, 30, 45, 8)
    yield "random", 1.0, -0.5, A, B, rng.standard_normal(45), rng.standard_normal(30)


SOLVES = {
    "gpbilq": lambda s, tol: gpbilq_solve(s, tol=tol),
    "gpbicg": lambda s, tol: gpbilq_solve(s, tol=tol, monitor="c"),
    "gpqmr": lambda s, tol: gpqmr_solve(s, tol=tol),
    "gpmr": lambda s, tol: gpmr_solve(s, tol=tol),
}


@pytest.mark.parametrize("method", SOLVES)
@pytest.mark.parametrize("pair", list(_sparse_pairs()), ids=lambda p: p[0])
def test_sparse_solve_matches_csr_snapshots_bit_for_bit(pair, method):
    _, lam, mu, A, B, b, c = pair
    wrapped = PartitionedSystem(lam, mu, Operator.from_matrix(A), Operator.from_matrix(B), b, c)
    snap = PartitionedSystem(lam, mu, _snapshot_operator(A), _snapshot_operator(B), b, c)
    tol = 1e-6 * wrapped.rhs_norm
    got, ref = SOLVES[method](wrapped, tol), SOLVES[method](snap, tol)
    assert got.iterations > 1
    assert (got.reason, got.iterations, got.residual) == (ref.reason, ref.iterations,
                                                          ref.residual)
    assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()


def test_sparse_operator_keeps_one_copy():
    """A float64 CSR is wrapped by reference, and its transposed action
    allocates only its output."""
    rng = np.random.default_rng(5)
    m, n, per_row = 20_000, 15_000, 5
    indptr = np.arange(0, per_row * m + 1, per_row)
    mat = sparse.csr_matrix((rng.standard_normal(per_row * m),
                             rng.integers(0, n, per_row * m), indptr), shape=(m, n))
    csr_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    y = rng.standard_normal(m)
    tracemalloc.start()
    try:
        op = Operator.from_matrix(mat)
        _, build_peak = tracemalloc.get_traced_memory()
        op.apply_transpose(y)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = op.apply_transpose(y)
        _, apply_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak < csr_bytes / 10
    assert apply_peak - before <= out.nbytes + 1024


def _identity_coupled(identity):
    """A 30 + 30 system whose block A is ``identity(30)``."""
    n = 30
    rng = np.random.default_rng(0)
    B = Operator.from_matrix(rng.standard_normal((n, n)))
    b, c = rng.standard_normal(n), rng.standard_normal(n)
    return PartitionedSystem(1.0, -0.5, identity(n), B, b, c)


@pytest.mark.parametrize("method", SOLVES)
def test_callback_returning_its_input_solves_like_the_identity_matrix(method):
    """An identity callback returns its input itself; the solvers update
    operator results in place, so without a copy they overwrite a basis
    vector or the iterate."""
    aliased = _identity_coupled(lambda n: Operator(n, n, lambda x: x, lambda y: y))
    dense = _identity_coupled(lambda n: Operator.from_matrix(np.eye(n)))
    got, ref = SOLVES[method](aliased, 1e-8), SOLVES[method](dense, 1e-8)
    assert (got.reason, got.iterations) == (ref.reason, ref.iterations)
    assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()


def test_callback_returning_a_column_is_rejected():
    col = Operator(3, 2, lambda x: np.ones((3, 1)), lambda y: np.ones((2, 1)))
    with pytest.raises(ValueError, match="apply callback returned"):
        col.apply(np.ones(2))
    with pytest.raises(ValueError, match="apply_transpose callback returned"):
        col.apply_transpose(np.ones(3))
