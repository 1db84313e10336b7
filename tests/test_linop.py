import dataclasses
import re
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from gpkrylov import (Operator, PartitionedSystem, apply_partitioned,
                      residual_norm)
from gpkrylov import linop
from gpkrylov.verify import assemble_dense, to_dense

from gpk_support import SOLVERS, make_system
from perfbench import gen


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
    rng = np.random.default_rng(0)
    for op in (sys_.A, sys_.B):
        y = rng.standard_normal(op.nrows)
        assert_allclose(op.apply_transpose(y), to_dense(op).T @ y, rtol=0, atol=1e-12)


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
    for shape in ((3,), (3, 2, 1)):
        with pytest.raises(ValueError, match="2-d"):
            Operator.from_matrix(np.ones(shape))


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
        with pytest.raises(ValueError, match=f"^{name} must be real, got complex input$"):
            PartitionedSystem(1.0, 1.0, A, B, **vecs)
    with pytest.raises(ValueError, match="^b must be real, got complex input$"):
        PartitionedSystem(1.0, 1.0, A, B, [1j, 0, 0], np.ones(2))


def _system_with(name, entries):
    """A 3x2 system whose vector ``name`` (b, c, f or g) is ``entries`` in
    its last slots and zero elsewhere; the other three are ones."""
    vecs = dict(b=np.ones(3), c=np.ones(2), f=np.ones(3), g=np.ones(2))
    vecs[name] = np.r_[np.zeros(len(vecs[name]) - len(entries)), entries]
    return PartitionedSystem(1.0, 1.0, Operator.from_matrix(np.ones((3, 2))),
                             Operator.from_matrix(np.ones((2, 3))), **vecs)


@pytest.mark.parametrize("name", "bcfg")
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative_zero"])
def test_all_zero_vector_is_rejected(name, zero):
    with pytest.raises(ValueError, match=f"^{name} must be nonzero$"):
        _system_with(name, [zero, zero])


@pytest.mark.parametrize("name", "bcfg")
@pytest.mark.parametrize("entry", [np.nan, 1e-300, 1e-170, np.inf, 1e200],
                         ids=["nan", "tiny", "square_underflows", "inf", "square_overflows"])
def test_one_nonzero_entry_is_accepted(name, entry):
    vec = getattr(_system_with(name, [entry]), name)
    assert_allclose(vec, [0.0] * (len(vec) - 1) + [entry], rtol=0, atol=0)


@pytest.mark.parametrize("to_matrix", [np.asarray, sparse.csr_matrix, sparse.coo_array,
                                       lambda mat: mat.tolist()],
                         ids=["dense", "sparse", "coo_array", "list"])
def test_from_matrix_rejects_complex(to_matrix):
    with pytest.raises(ValueError, match="^matrix must be real, got complex input$"):
        Operator.from_matrix(to_matrix(np.eye(3) + 1j * np.ones((3, 3))))


# a bad x is rejected by B (2x3), a bad y by A (3x2)
REJECTED = {(2, 2): r"operator is 2x3, input must have length 3, got shape \(2,\)",
            (3, 3): r"operator is 3x2, input must have length 2, got shape \(3,\)"}


@pytest.mark.parametrize("x_len, y_len", list(REJECTED))
def test_apply_partitioned_rejects_wrong_lengths(x_len, y_len):
    sys_ = make_system(3, 2, seed=12)
    with pytest.raises(ValueError, match=REJECTED[x_len, y_len]):
        apply_partitioned(sys_, np.ones(x_len), np.ones(y_len))


def test_default_start_vectors_are_rhs():
    # omitted f and g start the reduction from b and c, bit for bit
    sys_ = make_system(4, 3, seed=9)
    given = dataclasses.replace(sys_, f=sys_.b, g=sys_.c)
    for solve in SOLVERS.values():
        got, ref = (solve(s, tol=0.0, maxit=3) for s in (sys_, given))
        assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()
    sys2 = make_system(4, 3, seed=9, fg_random=True)
    assert not np.allclose(sys2.f, sys2.b)


def test_omitted_start_vectors_are_the_rhs_arrays():
    sys_ = make_system(4, 3, seed=9)
    assert sys_.f is None and sys_.g is None
    blocks = (sys_.lam, sys_.mu, sys_.A, sys_.B, sys_.b, sys_.c)
    with pytest.raises(ValueError, match="f must be nonzero"):
        PartitionedSystem(*blocks, f=np.zeros(4))
    with pytest.raises(ValueError, match="g must have length 3"):
        PartitionedSystem(*blocks, g=np.ones(4))


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


def _sparse_pairs():
    A = gen.grid_gradient(8)
    rng = np.random.default_rng(21)
    b, c = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[1])
    yield "grid8", 1.0, -1e-2, A, (-A.T).tocsr(), b, c
    rng = np.random.default_rng(22)
    A, B = _messy_csr(rng, 45, 30, 8), _messy_csr(rng, 30, 45, 8)
    yield "random", 1.0, -0.5, A, B, rng.standard_normal(45), rng.standard_normal(30)


@pytest.mark.parametrize("method", SOLVERS)
@pytest.mark.parametrize("pair", list(_sparse_pairs()), ids=lambda p: p[0])
def test_sparse_solve_matches_csr_snapshots_bit_for_bit(pair, method):
    _, lam, mu, A, B, b, c = pair
    wrapped = PartitionedSystem(lam, mu, Operator.from_matrix(A), Operator.from_matrix(B), b, c)
    snap = PartitionedSystem(lam, mu, _snapshot_operator(A), _snapshot_operator(B), b, c)
    tol = 1e-6 * wrapped.rhs_norm
    got, ref = SOLVERS[method](wrapped, tol), SOLVERS[method](snap, tol)
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


@pytest.mark.parametrize("method", SOLVERS)
def test_callback_returning_its_input_solves_like_the_identity_matrix(method):
    """An identity callback returns its input itself; the solvers update
    operator results in place, so without a copy they overwrite a basis
    vector or the iterate."""
    aliased = _identity_coupled(lambda n: Operator(n, n, lambda x: x, lambda y: y))
    dense = _identity_coupled(lambda n: Operator.from_matrix(np.eye(n)))
    got, ref = SOLVERS[method](aliased, 1e-8), SOLVERS[method](dense, 1e-8)
    assert (got.reason, got.iterations) == (ref.reason, ref.iterations)
    assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()


def _recording_operator(calls):
    return Operator(2, 2, lambda x: calls.append(x) or np.ones(2),
                    lambda y: calls.append(y) or np.ones(2))


def _matrix_operator(calls):
    return Operator.from_matrix(np.ones((2, 2)))


WRONG_SHAPES = {"0-d": np.float64(1.0), "column": np.ones((2, 1)), "row": np.ones((1, 2))}


@pytest.mark.parametrize("make, vec", [
    *(pytest.param(_recording_operator, vec, id=name) for name, vec in WRONG_SHAPES.items()),
    *(pytest.param(_matrix_operator, vec, id=f"matrix-{name}")
      for name, vec in WRONG_SHAPES.items())])
def test_input_of_wrong_shape_is_rejected_before_the_callback(make, vec):
    """Checked for matrix operators too: a matrix's own ``dot`` would
    broadcast a 0-d input and return a column for a column."""
    calls = []
    op = make(calls)
    shape = re.escape(f"got shape {np.shape(vec)}")
    with pytest.raises(ValueError, match=f"^operator is 2x2, input must have length 2, {shape}$"):
        op.apply(vec)
    with pytest.raises(ValueError,
                       match=f"^operator is 2x2, transpose input must have length 2, {shape}$"):
        op.apply_transpose(vec)
    assert calls == []


def test_callback_returning_a_column_is_rejected():
    col = Operator(3, 2, lambda x: np.ones((3, 1)), lambda y: np.ones((2, 1)))
    with pytest.raises(ValueError, match="apply callback returned"):
        col.apply(np.ones(2))
    with pytest.raises(ValueError, match="apply_transpose callback returned"):
        col.apply_transpose(np.ones(3))


# a float64 result as a callback might hand it back instead
RESULT_KINDS = {"int64": lambda v: np.rint(v).astype(np.int64), "list": list,
                "float32": lambda v: v.astype(np.float32)}


@pytest.mark.parametrize("kind", RESULT_KINDS)
@pytest.mark.parametrize("method", SOLVERS)
def test_callback_results_are_made_float64(method, kind):
    """Integer-valued A and B as callbacks whose results are int64 arrays,
    lists or float32 arrays: each is made float64 once, so the solve runs in
    double precision, bit for bit as with the same values returned as
    float64.  Unconverted, int64 fails an in-place update, a list has no
    shape, and float32 keeps the basis vectors in single precision."""
    base = make_system(6, 5, seed=1)
    rng = np.random.default_rng(15)
    A, B = rng.integers(-3, 4, (6, 5)).astype(float), rng.integers(-3, 4, (5, 6)).astype(float)

    def system(out):
        def op(mat):
            return Operator(*mat.shape, lambda x: out(mat @ x), lambda y: out(mat.T @ y))
        return PartitionedSystem(base.lam, base.mu, op(A), op(B), base.b, base.c)

    convert = RESULT_KINDS[kind]
    result = system(convert).A.apply(np.ones(5))
    assert type(result) is np.ndarray and result.dtype == np.float64
    got = SOLVERS[method](system(convert), 1e-10)
    ref = SOLVERS[method](system(lambda v: np.array(convert(v), dtype=float)), 1e-10)
    assert (got.reason, got.iterations) == (ref.reason, ref.iterations)
    assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()


def test_callback_returning_complex_values_is_rejected():
    op = Operator(2, 2, lambda x: x * 1j, lambda y: y + 0j)
    for action in (op.apply, op.apply_transpose):
        with pytest.raises(ValueError, match="^matrix must be real, got complex input$"):
            action(np.ones(2))


@pytest.mark.parametrize("size, message", [
    (3.7, "nrows must be an integer, got 3.7"),
    (True, "nrows must be an integer, got True"),
    ("3", "nrows must be an integer, got '3'"),
    (-3, "nrows must be >= 0, got -3")], ids=["float", "bool", "str", "negative"])
def test_operator_rejects_a_shape_that_is_not_a_count(size, message):
    never = lambda v: pytest.fail("called")  # noqa: E731
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Operator(size, 2, never, never)
    with pytest.raises(ValueError, match=f"^{re.escape(message.replace('nrows', 'ncols'))}$"):
        Operator(2, size, never, never)


def test_operator_accepts_numpy_integer_shapes():
    op = Operator(np.int64(3), np.int32(2), lambda x: np.ones(3), lambda y: np.ones(2))
    assert op.shape == (3, 2) and all(type(v) is int for v in op.shape)
    assert_allclose(op.apply(np.ones(2)), np.ones(3))


_DENSE = np.arange(1.0, 13.0).reshape(4, 3) - 5.5
FROM_MATRIX_INPUTS = {
    "c_float64": lambda: np.ascontiguousarray(_DENSE),
    "f_float64": lambda: np.asfortranarray(_DENSE),
    "int": lambda: _DENSE.astype(int),
    "float32": lambda: _DENSE.astype(np.float32),
    "list": lambda: _DENSE.tolist(),
    "csr": lambda: sparse.csr_matrix(_DENSE),
    "csc": lambda: sparse.csc_matrix(_DENSE),
    "coo": lambda: sparse.coo_matrix(_DENSE),
    "csr_array": lambda: sparse.csr_array(_DENSE),
}


@pytest.mark.parametrize("kind", FROM_MATRIX_INPUTS)
def test_from_matrix_results_are_fresh_vectors(kind):
    """What lets from_matrix store the matrix's ``dot`` without the checks a
    callback's results get: each result is a new float64 1-d array of the
    output length, sharing memory with neither the input nor the matrix."""
    mat = FROM_MATRIX_INPUTS[kind]()
    op = Operator.from_matrix(mat)
    dense = np.array(mat.toarray() if sparse.issparse(mat) else mat, dtype=float)
    stored = op._apply.__self__
    held = ([stored] if isinstance(stored, np.ndarray)
            else [stored.data, stored.indices, stored.indptr])
    rng = np.random.default_rng(0)
    for action, expected in ((op.apply, dense), (op.apply_transpose, dense.T)):
        vec = rng.standard_normal(expected.shape[1])
        out, again = action(vec), action(vec)
        assert out.shape == (expected.shape[0],) and out.dtype == np.float64
        assert_allclose(out, expected @ vec, rtol=1e-6)
        for other in [vec, again, *held]:
            assert not np.may_share_memory(out, other)


def _callback_twin(op):
    """The same stored actions behind the callback wrapper."""
    return Operator(op.nrows, op.ncols, op._apply, op._apply_t)


@pytest.mark.parametrize("method", SOLVERS)
@pytest.mark.parametrize("sparse_ops", [False, True], ids=["dense", "sparse"])
def test_callback_solves_match_matrix_solves_bit_for_bit(sparse_ops, method):
    wrapped = make_system(40, 30, seed=14, sparse_ops=sparse_ops)
    twin = PartitionedSystem(wrapped.lam, wrapped.mu, _callback_twin(wrapped.A),
                             _callback_twin(wrapped.B), wrapped.b, wrapped.c)
    tol = 1e-8 * wrapped.rhs_norm
    got, ref = SOLVERS[method](twin, tol), SOLVERS[method](wrapped, tol)
    assert got.iterations > 1
    assert (got.reason, got.iterations, got.residual) == (ref.reason, ref.iterations,
                                                          ref.residual)
    assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()


def _python_calls(fn, *args):
    """The code objects of the Python frames that ``fn(*args)`` opens, in
    order, itself included."""
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return codes


def test_matrix_application_is_one_python_frame():
    op = Operator.from_matrix(np.ones((4, 3)))
    assert _python_calls(op.apply, np.ones(3)) == [Operator.apply.__code__]
    assert _python_calls(op.apply_transpose, np.ones(4)) == [Operator.apply_transpose.__code__]


@pytest.mark.parametrize("method, per_iteration",
                         [("gpbilq", 4), ("gpqmr", 4), ("gpmr", 2)])
def test_iteration_makes_one_linop_call_per_operator_application(method, per_iteration):
    """Python calls into linop per iteration of a desk-sized solve, taken as
    the difference of an 80-step and a 40-step run so set-up and exit
    cancel: exactly the operator applications, with no frame of their own
    below them."""
    sys_ = make_system(200, 150, seed=0)
    sys_.rhs_norm  # cached before either run, so neither computes it
    solve = SOLVERS[method]
    counts, results = {}, []
    for maxit in (40, 80):
        codes = _python_calls(lambda: results.append(solve(sys_, tol=0.0, maxit=maxit)))
        counts[maxit] = sum(code.co_filename == linop.__file__ for code in codes)
    assert [r.iterations for r in results] == [40, 80]
    assert counts[80] - counts[40] == 40 * per_iteration


def test_system_is_frozen_and_replace_revalidates():
    sys_ = make_system(4, 3, seed=15)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys_.lam = 2.0
    moved = dataclasses.replace(sys_, lam=2.0)
    assert moved.lam == 2.0 and moved.f is None and moved.g is None
    assert moved.b is sys_.b and moved.A is sys_.A
    assert repr(sys_).startswith("PartitionedSystem(lam=1.0, mu=-0.5, A=")
    with pytest.raises(ValueError, match="^b must be nonzero$"):
        dataclasses.replace(sys_, b=np.zeros(4))
    with pytest.raises(ValueError, match="^B must be 3x4 to pair with A 4x3"):
        dataclasses.replace(sys_, B=sys_.A)


def test_replaced_rhs_moves_an_omitted_start_vector():
    # with f omitted, replace(s, b=x) starts from x; x is orthogonal to the
    # old b, so a stale f = b would break down at k = 0
    sys_ = make_system(40, 30, 1)
    x = np.random.default_rng(7).standard_normal(40)
    x -= (x @ sys_.b) / (sys_.b @ sys_.b) * sys_.b
    moved = dataclasses.replace(sys_, b=x)
    fresh = PartitionedSystem(sys_.lam, sys_.mu, sys_.A, sys_.B, x, sys_.c)
    for method in ("gpbilq", "gpqmr"):
        got, ref = (SOLVERS[method](s, tol=0.0, maxit=30) for s in (moved, fresh))
        assert (got.reason, got.iterations) == (ref.reason, ref.iterations) == ("maxit", 30)
        assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()


def test_system_equality_is_identity():
    sys_ = make_system(4, 3, seed=0)
    twin = dataclasses.replace(sys_, b=sys_.b.copy())
    assert sys_ == sys_ and sys_ != twin and len({sys_, twin, sys_}) == 2


def test_system_keyword_construction():
    A, B = Operator.from_matrix(np.ones((3, 2))), Operator.from_matrix(np.ones((2, 3)))
    sys_ = PartitionedSystem(mu=-1, lam=2, A=A, B=B, c=[1, 2], b=(1.0, 0.0, 0.0),
                             g=np.ones(2))
    assert (sys_.lam, sys_.mu) == (2.0, -1.0)
    assert type(sys_.lam) is float and type(sys_.mu) is float
    assert sys_.f is None and sys_.b.dtype == np.float64
    assert_allclose(sys_.c, [1.0, 2.0])
    assert_allclose(sys_.g, [1.0, 1.0])
