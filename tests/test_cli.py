import os
import subprocess
import sys

import numpy as np
import pytest

import gpkrylov
from gpkrylov import (build_system, cli, gpbilq_solve, read_convergence_csv,
                      read_matrix_market, write_matrix_market)
from gpkrylov.cli import main
from gpkrylov.verify import CheckResult, to_dense

from gpk_support import make_system


@pytest.fixture
def matrices(tmp_path):
    # square blocks so the short-recurrence methods reach exact termination
    rng = np.random.default_rng(400)
    write_matrix_market(rng.standard_normal((6, 6)), tmp_path / "A.mtx")
    write_matrix_market(rng.standard_normal((6, 6)), tmp_path / "B.mtx")
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_solve_writes_csv_and_exits_zero(matrices, capsys):
    out = matrices / "run.csv"
    code = run("solve", "--method", "gpqmr",
               "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
               "--lambda", "1", "--mu", "-0.1", "--tol", "1e-8",
               "--maxit", "100", "--output", str(out))
    assert code == 0
    rec = read_convergence_csv(out)
    assert rec.reason == "converged"
    assert rec.rows[-1].est_residual <= 1e-8
    assert "gpqmr: converged" in capsys.readouterr().out


def test_solve_maxit_zero_exits_two(matrices):
    code = run("solve", "--method", "gpbilq",
               "--a", str(matrices / "A.mtx"), "--b-transpose-a",
               "--maxit", "0")
    assert code == 2


def test_unknown_method_exits_one(matrices, capsys):
    with pytest.raises(SystemExit) as exc:
        run("solve", "--method", "nope", "--a", str(matrices / "A.mtx"))
    assert exc.value.code == 1


def test_missing_matrix_args_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run("solve", "--method", "gpqmr")
    assert exc.value.code == 1


def test_incompatible_shapes_exit_one(tmp_path, capsys):
    write_matrix_market(np.ones((6, 4)), tmp_path / "A.mtx")
    write_matrix_market(np.ones((5, 6)), tmp_path / "B.mtx")
    with pytest.raises(SystemExit) as exc:
        run("solve", "--method", "gpqmr", "--a", str(tmp_path / "A.mtx"),
            "--b", str(tmp_path / "B.mtx"))
    assert exc.value.code == 1
    assert "incompatible shapes: A (6, 4), B (5, 6)" in capsys.readouterr().err


def test_start_vector_files_are_read(matrices, capsys):
    rng = np.random.default_rng(403)
    for name in ("f", "g"):
        write_matrix_market(rng.standard_normal((6, 1)), matrices / f"{name}.mtx")
    f, g = (np.asarray(read_matrix_market(matrices / f"{name}.mtx").todense()).ravel()
            for name in ("f", "g"))
    A, B = (read_matrix_market(matrices / name) for name in ("A.mtx", "B.mtx"))
    run("solve", "--method", "gpbilq", "--a", str(matrices / "A.mtx"),
        "--b", str(matrices / "B.mtx"), "--tol", "0", "--maxit", "3",
        "--f-file", str(matrices / "f.mtx"), "--g-file", str(matrices / "g.mtx"))
    out = capsys.readouterr().out
    for start, seen in (((f, g), True), ((None, None), False)):
        res = gpbilq_solve(build_system(A, B, 1.0, -1.0, *start), tol=0.0, maxit=3)
        assert (f"residual {res.residual:.6e}" in out) == seen


@pytest.mark.parametrize("flag", ["--f-file", "--g-file"])
def test_start_vector_of_wrong_length_exits_one(matrices, capsys, flag):
    write_matrix_market(np.ones((5, 1)), matrices / "v.mtx")
    with pytest.raises(SystemExit) as exc:
        run("solve", "--method", "gpbilq", "--a", str(matrices / "A.mtx"),
            "--b", str(matrices / "B.mtx"), flag, str(matrices / "v.mtx"))
    assert exc.value.code == 1
    assert "must have 6 entries, got 5" in capsys.readouterr().err


def test_breakdown_exits_three(tmp_path):
    # square blocks, orthogonal-start reduction dies at once via random rhs
    rng = np.random.default_rng(401)
    write_matrix_market(rng.standard_normal((4, 2)), tmp_path / "A.mtx")
    # m=4, n=2: the reduction exhausts at k=2 long before the 6-dim system
    code = run("solve", "--method", "gpqmr", "--a", str(tmp_path / "A.mtx"),
               "--b-transpose-a", "--mu", "-1.0", "--rhs", "random",
               "--tol", "1e-12", "--maxit", "50")
    assert code == 3


def test_zero_pivot_exits_three(tmp_path, capsys):
    # B = 0 with lam = 0: gpqmr's first QR pivot vanishes
    A = to_dense(make_system(6, 4, seed=600).A)
    write_matrix_market(A, tmp_path / "A.mtx")
    write_matrix_market(np.zeros((4, 6)), tmp_path / "B.mtx")
    code = run("solve", "--method", "gpqmr", "--a", str(tmp_path / "A.mtx"),
               "--b", str(tmp_path / "B.mtx"), "--lambda", "0", "--mu", "1")
    assert code == 3
    assert "gpqmr: breakdown after 0 iterations" in capsys.readouterr().out


def test_nonfinite_exits_four(tmp_path):
    A = np.random.default_rng(402).standard_normal((6, 4))
    A[2, 1] = np.nan
    write_matrix_market(A, tmp_path / "A.mtx")
    code = run("solve", "--method", "gpqmr", "--a", str(tmp_path / "A.mtx"),
               "--b-transpose-a", "--tol", "1e-10", "--maxit", "50")
    assert code == 4


def test_solve_svg_output(matrices):
    svg = matrices / "run.svg"
    code = run("solve", "--method", "gpmr",
               "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
               "--tol", "1e-8", "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_compare_writes_all_outputs(matrices, capsys):
    outdir = matrices / "cmp"
    code = run("compare", "--methods", "gpbilq,gpqmr,gpmr",
               "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
               "--lambda", "1", "--mu", "-0.5", "--tol", "1e-8",
               "--output-dir", str(outdir), "--svg", str(outdir / "all.svg"))
    assert code == 0
    for name in ("gpbilq", "gpqmr", "gpmr"):
        assert (outdir / f"{name}.csv").exists()
    merged = (outdir / "compare.csv").read_text().splitlines()
    assert merged[0] == "k,gpbilq,gpqmr,gpmr"
    assert (outdir / "all.svg").exists()


def test_compare_one_by_one_converges_first_step(tmp_path):
    write_matrix_market(np.array([[2.0]]), tmp_path / "A.mtx")
    write_matrix_market(np.array([[3.0]]), tmp_path / "B.mtx")
    outdir = tmp_path / "cmp"
    code = run("compare", "--methods", "gpbicg,gpqmr",
               "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx"),
               "--lambda", "1", "--mu", "1", "--rhs", "random",
               "--tol", "1e-10", "--output-dir", str(outdir))
    assert code == 0
    for name in ("gpbicg", "gpqmr"):
        rec = read_convergence_csv(outdir / f"{name}.csv")
        assert rec.reason == "converged"
        assert rec.rows[-1].k == 1


def test_compare_restarted_not_faster(matrices):
    outdir = matrices / "cmp2"
    code = run("compare", "--methods", "gpmr,gpmr_restarted",
               "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
               "--tol", "1e-8", "--restart", "3", "--maxit", "400",
               "--output-dir", str(outdir))
    full = read_convergence_csv(outdir / "gpmr.csv")
    part = read_convergence_csv(outdir / "gpmr_restarted.csv")
    if part.reason == "converged":
        assert part.rows[-1].k >= full.rows[-1].k
    assert code in (0, 2)


@pytest.mark.parametrize("methods", ["gpqmr,bogus", "gpqmr,gpqmr"])
def test_compare_malformed_methods_exit_one(matrices, methods):
    with pytest.raises(SystemExit) as exc:
        run("compare", "--methods", methods,
            "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"))
    assert exc.value.code == 1


def test_check_passes(capsys):
    assert run("check", "--size", "10", "--seed", "3") == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_check_failure_exits_four(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_invariant_suite", lambda size, seed: [
        CheckResult("forced failure", False, "1.000e+00 (tol 0)")])
    assert run("check") == 4
    out = capsys.readouterr().out
    assert "FAIL  forced failure" in out
    assert "0/1 checks passed" in out


def test_check_oversize_exits_one():
    with pytest.raises(SystemExit) as exc:
        run("check", "--size", "5000")
    assert exc.value.code == 1


def test_check_size_one_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run("check", "--size", "1")
    assert exc.value.code == 1
    assert "size 1" in capsys.readouterr().err


def test_experiment_missing_files_exit_one(tmp_path, capsys):
    code = run("solve", "--method", "gpqmr", "--experiment", "well1033",
               "--matrix-dir", str(tmp_path))
    assert code == 1
    assert "SuiteSparse" in capsys.readouterr().err


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs about 8 MB of resident memory on import
    src = os.path.dirname(os.path.dirname(gpkrylov.__file__))
    code = ("import sys, gpkrylov, gpkrylov.cli; "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
