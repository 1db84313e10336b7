import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpkrylov import (ConvergenceRecord, apply_partitioned, build_experiment,
                      build_system, read_matrix_market, write_convergence_csv)
from gpkrylov.io import EXPERIMENTS, MatrixMarketError
from gpkrylov.verify import to_dense

from hypothesis import given, settings
from hypothesis import strategies as st

from gpk_support import read_csv, write_matrix_market


def write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- matrix market reader ------------------------------------------------------

def test_coordinate_identity(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate real general
% comment line
2 2 2
1 1 1.0
2 2 1.0
""")
    mat = read_matrix_market(path)
    assert_allclose(mat.toarray(), np.eye(2))


def test_symmetric_mirrors_off_diagonal(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 3.0
2 1 5.0
""")
    mat = read_matrix_market(path)
    assert_allclose(mat.toarray(), [[3.0, 5.0], [5.0, 3.0 * 0 + 0]])
    assert mat.nnz == 3


def test_skew_symmetric_mirrors_with_sign(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 4.0
""")
    assert_allclose(read_matrix_market(path).toarray(), [[0.0, -4.0], [4.0, 0.0]])


def test_duplicates_are_summed(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.5
1 1 2.5
""")
    assert_allclose(read_matrix_market(path).toarray(), [[4.0, 0.0], [0.0, 0.0]])


def test_array_format_column_major(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix array real general
2 2
1.0
2.0
3.0
4.0
""")
    assert_allclose(read_matrix_market(path).toarray(), [[1.0, 3.0], [2.0, 4.0]])


def test_pattern_rejected(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate pattern general
2 2 1
1 1
""")
    with pytest.raises(MatrixMarketError, match="pattern"):
        read_matrix_market(path)


def test_complex_rejected(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate complex general
1 1 1
1 1 1.0 0.0
""")
    with pytest.raises(MatrixMarketError, match="complex"):
        read_matrix_market(path)


def test_array_symmetry_rejected(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix array real symmetric
2 2
1.0
2.0
3.0
""")
    with pytest.raises(MatrixMarketError, match="unsupported array symmetry 'symmetric'"):
        read_matrix_market(path)


def test_malformed_header(tmp_path):
    path = write(tmp_path, "1 1 1\n1 1 2.0\n")
    with pytest.raises(MatrixMarketError, match="header"):
        read_matrix_market(path)


def test_index_out_of_bounds(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 1
3 1 1.0
""")
    with pytest.raises(MatrixMarketError, match="out of bounds"):
        read_matrix_market(path)


def test_truncated_entries(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.0
""")
    with pytest.raises(MatrixMarketError, match="expected 3"):
        read_matrix_market(path)


def test_entries_beyond_the_declared_count(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate real general
2 2 1
1 1 1.0
2 2 5.0
""")
    with pytest.raises(MatrixMarketError, match="expected 1"):
        read_matrix_market(path)


def test_integer_field_reads_as_float64(tmp_path):
    path = write(tmp_path, """%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 3
2 2 -4
""")
    mat = read_matrix_market(path)
    assert mat.dtype == np.float64
    assert_allclose(mat.toarray(), [[3.0, 0.0], [0.0, -4.0]])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_writer_reader_round_trip(nrows, ncols, seed):
    import tempfile
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((nrows, ncols)) < 0.6,
                     rng.standard_normal((nrows, ncols)), 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/m.mtx"
        write_matrix_market(dense, path)
        back = read_matrix_market(path).toarray()
    assert_allclose(back, dense, rtol=0, atol=0)


# -- experiment construction -----------------------------------------------------

def test_build_system_ones_identity():
    rng = np.random.default_rng(300)
    A = rng.standard_normal((6, 4))
    B = rng.standard_normal((4, 6))
    sys_ = build_system(A, B, 1.0, -0.1)
    top, bot = apply_partitioned(sys_, np.ones(6), np.ones(4))
    assert_allclose(top, sys_.b, rtol=1e-14)
    assert_allclose(bot, sys_.c, rtol=1e-14)
    assert sys_.f is None and sys_.g is None


def test_experiment_recipes_pin_shifts():
    assert EXPERIMENTS["well1033"].lam == 1.0
    assert EXPERIMENTS["well1033"].mu == -0.1
    assert EXPERIMENTS["well1850"].mu == -0.05
    assert EXPERIMENTS["lp_osa_07"].mu == -1.0
    assert EXPERIMENTS["lpi_klein3"].mu == -1.0
    assert EXPERIMENTS["well1033"].transpose_a
    assert EXPERIMENTS["lp_osa_07"].b_file is None


def test_build_experiment_from_local_files(tmp_path):
    rng = np.random.default_rng(301)
    write_matrix_market(rng.standard_normal((7, 4)), tmp_path / "well1033.mtx")
    write_matrix_market(rng.standard_normal((7, 4)), tmp_path / "illc1033.mtx")
    sys_ = build_experiment("well1033", tmp_path)
    assert sys_.m == 4 and sys_.n == 7  # first matrix enters transposed
    assert sys_.lam == 1.0 and sys_.mu == -0.1
    top, bot = apply_partitioned(sys_, np.ones(4), np.ones(7))
    assert_allclose(top, sys_.b, rtol=1e-14)
    assert_allclose(bot, sys_.c, rtol=1e-14)


def test_build_experiment_sqd_uses_transpose(tmp_path):
    rng = np.random.default_rng(302)
    A = rng.standard_normal((5, 3))
    write_matrix_market(A, tmp_path / "lp_osa_07.mtx")
    sys_ = build_experiment("lp_osa_07", tmp_path)
    assert_allclose(to_dense(sys_.B), A.T, atol=1e-14)


@pytest.mark.parametrize("present,missing", [((), "well1850"),
                                             (("well1850",), "illc1850")])
def test_build_experiment_missing_file(tmp_path, present, missing):
    for name in present:
        write_matrix_market(np.ones((7, 4)), tmp_path / f"{name}.mtx")
    with pytest.raises(FileNotFoundError, match=f"{missing}.mtx not found; "
                       f"download '{missing}' from the SuiteSparse"):
        build_experiment("well1850", tmp_path)


def test_build_experiment_incompatible_shapes(tmp_path):
    write_matrix_market(np.ones((7, 4)), tmp_path / "well1033.mtx")
    write_matrix_market(np.ones((5, 5)), tmp_path / "illc1033.mtx")
    with pytest.raises(ValueError, match=r"B must be 7x4 to pair with A 4x7, "
                       r"got \(5, 5\)"):
        build_experiment("well1033", tmp_path)


def test_build_experiment_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        build_experiment("nope", tmp_path)


# -- convergence CSV --------------------------------------------------------------

def test_empty_record_is_header_only(tmp_path):
    path = tmp_path / "r.csv"
    write_convergence_csv(ConvergenceRecord(), path)
    assert path.read_text().strip() == "k,est_residual,true_residual,transfer_defined,elapsed_s"


def test_rows_and_reason(tmp_path):
    rec = ConvergenceRecord()
    rec.append(0, 10.0)
    rec.append(1, 1.0, 0.9, True, 0.01)
    rec.append(2, 0.1, 0.09, False, 0.02)
    rec.reason = "converged"
    path = tmp_path / "r.csv"
    write_convergence_csv(rec, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    assert lines[-1] == "# terminated: converged"


def test_round_trip(tmp_path):
    rec = ConvergenceRecord()
    rec.append(0, 3.5)
    rec.append(1, 1.25, 1.25, True, 0.5)
    rec.append(3, 0.03125, None, False, 0.75)
    rec.reason = "maxit"
    path = tmp_path / "r.csv"
    write_convergence_csv(rec, path)
    rows, reason = read_csv(path)
    assert reason == "maxit"
    assert len(rows) == 3
    for a, b in zip(rec.rows, rows):
        assert a.k == int(b["k"])
        assert a.est_residual == float(b["est_residual"])
        assert a.true_residual == (float(b["true_residual"]) if b["true_residual"] else None)
        assert a.transfer_defined == (bool(int(b["transfer_defined"]))
                                      if b["transfer_defined"] else None)
