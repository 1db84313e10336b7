import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpkrylov
from gpkrylov import (Operator, PartitionedSystem, build_system, cli, gpbilq_solve,
                      read_matrix_market)
from gpkrylov.cli import main
from gpkrylov.verify import CheckResult, to_dense

from gpk_support import make_system, read_csv, write_matrix_market


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
    out = matrices / "run"
    code = run("solve", "--method", "gpqmr",
               "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
               "--lambda", "1", "--mu", "-0.1", "--tol", "1e-8",
               "--maxit", "100", "--output-dir", str(out))
    assert code == 0
    rows, reason = read_csv(out / "gpqmr.csv")
    assert reason == "converged"
    assert float(rows[-1]["est_residual"]) <= 1e-8
    assert os.listdir(out) == ["gpqmr.csv"]
    stdout = capsys.readouterr().out
    assert "gpqmr: converged" in stdout
    assert "wrote" not in stdout


def test_solve_maxit_zero_exits_two(matrices):
    code = run("solve", "--method", "gpbilq",
               "--a", str(matrices / "A.mtx"), "--b-transpose-a",
               "--maxit", "0")
    assert code == 2


@pytest.mark.parametrize("tol", ["-0.5", "nan"])
def test_negative_or_nan_tol_exits_one(matrices, capsys, tol):
    code = run("solve", "--method", "gpqmr",
               "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
               "--tol", tol)
    assert code == 1
    assert "tol must be >= 0" in capsys.readouterr().err


def test_unknown_method_exits_one(matrices, capsys):
    with pytest.raises(SystemExit) as exc:
        run("solve", "--method", "nope", "--a", str(matrices / "A.mtx"))
    assert exc.value.code == 1


def test_missing_matrix_args_exit_one(matrices, capsys):
    for args, message in (((), "one of the arguments --a --experiment is required"),
                          (("--a", str(matrices / "A.mtx")), "provide --b or --b-transpose-a")):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--method", "gpqmr", *args)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    pytest.param(["--b-transpose-a", "--b", "Bbad.mtx"],
                 "argument --b: not allowed with argument --b-transpose-a", id="b"),
    pytest.param(["--experiment", "lp_osa_07"],
                 "argument --experiment: not allowed with argument --a", id="experiment"),
])
def test_conflicting_system_sources_exit_one(tmp_path, monkeypatch, capsys, args, message):
    # a 3x3 B cannot pair with a 6x4 A, so running on A^T would hide it
    monkeypatch.chdir(tmp_path)
    write_matrix_market(np.ones((6, 4)), tmp_path / "A.mtx")
    write_matrix_market(np.ones((3, 3)), tmp_path / "Bbad.mtx")
    with pytest.raises(SystemExit) as exc:
        run("solve", "--method", "gpqmr", "--a", "A.mtx", *args)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    pytest.param(["--seed", "3", "--lambda", "5"], "--lambda --seed", id="seed-lambda"),
    # explicit defaults count as given
    pytest.param(["--mu", "-1", "--seed", "0", "--b-transpose-a"],
                 "--b-transpose-a --mu --seed", id="mu-seed-b-transpose-a"),
    pytest.param(["--b", "B.mtx", "--f-file", "f.mtx", "--g-file", "g.mtx"],
                 "--b --f-file --g-file", id="b-f-file-g-file"),
])
def test_experiment_rejects_system_options_before_reading(tmp_path, capsys, args, named):
    # the recipe fixes the system: each flag that would change it is named,
    # and no file is looked for (the matrix directory is empty)
    with pytest.raises(SystemExit) as exc:
        run("solve", "--method", "gpqmr", "--experiment", "lp_osa_07",
            "--matrix-dir", str(tmp_path), *args)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"--experiment fixes the system; drop {named}" in err, err
    assert "SuiteSparse" not in err and "not found" not in err, err


def test_omitted_system_options_take_their_stated_defaults(matrices, capsys):
    # the parser leaves them None, so that --experiment can tell them apart
    def solve(*args):
        assert run("solve", "--method", "gpbilq", "--a", str(matrices / "A.mtx"),
                   "--b", str(matrices / "B.mtx"), *args, "--tol", "0", "--maxit", "3") == 2
        return capsys.readouterr().out

    assert solve() == solve("--lambda", "1", "--mu", "-1")
    # no --seed: the exact solution is the vector of ones; --seed 0: a draw
    A, B = (read_matrix_market(matrices / name) for name in ("A.mtx", "B.mtx"))
    rng = np.random.default_rng(0)
    drawn = PartitionedSystem(1.0, -1.0, Operator.from_matrix(A), Operator.from_matrix(B),
                              rng.standard_normal(6), rng.standard_normal(6))
    expected = [f"gpbilq: maxit after 3 iterations, residual "
                f"{gpbilq_solve(system, tol=0.0, maxit=3).residual:.6e}\n"
                for system in (build_system(A, B, 1.0, -1.0), drawn)]
    assert expected[0] != expected[1]
    assert [solve(), solve("--seed", "0")] == expected
    with pytest.raises(SystemExit):
        run("solve", "--help")
    help_text = capsys.readouterr().out
    for stated in ("(default 1)", "(default -1)"):
        assert stated in help_text


def test_incompatible_shapes_exit_one(tmp_path, capsys):
    write_matrix_market(np.ones((6, 4)), tmp_path / "A.mtx")
    write_matrix_market(np.ones((5, 6)), tmp_path / "B.mtx")
    for seed in ((), ("--seed", "0")):
        assert run("solve", "--method", "gpqmr", "--a", str(tmp_path / "A.mtx"),
                   "--b", str(tmp_path / "B.mtx"), *seed) == 1
        assert ("B must be 4x6 to pair with A 6x4, got (5, 6)"
                in capsys.readouterr().err)


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
    assert run("solve", "--method", "gpbilq", "--a", str(matrices / "A.mtx"),
               "--b", str(matrices / "B.mtx"), flag, str(matrices / "v.mtx")) == 1
    assert (f"{flag[2]} must have length 6, got shape (5,)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag, shape", [pytest.param("--f-file", (3, 2), id="f"),
                                         pytest.param("--g-file", (2, 2), id="g")])
def test_start_vector_file_must_be_one_row_or_column(tmp_path, capsys, flag, shape):
    # each matrix has as many entries as the vector needs (6 for f, 4 for
    # g), so flattening it would run on; a row or a column is accepted
    write_matrix_market(np.random.default_rng(404).standard_normal((6, 4)), tmp_path / "A.mtx")
    write_matrix_market(np.ones(shape), tmp_path / "v.mtx")
    length = shape[0] * shape[1]
    write_matrix_market(np.ones((1, length)), tmp_path / "row.mtx")
    write_matrix_market(np.ones((length, 1)), tmp_path / "col.mtx")
    base = ("solve", "--method", "gpbilq", "--a", str(tmp_path / "A.mtx"),
            "--b-transpose-a", "--tol", "0", "--maxit", "3", flag)
    assert run(*base, str(tmp_path / "v.mtx")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{tmp_path / 'v.mtx'}: a start vector must be one row or one column, "
            f"got {shape[0]}x{shape[1]}") in captured.err, captured.err
    outputs = []
    for name in ("row.mtx", "col.mtx"):
        assert run(*base, str(tmp_path / name)) == 2
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_breakdown_exits_three(tmp_path):
    # square blocks, orthogonal-start reduction dies at once via random rhs
    rng = np.random.default_rng(401)
    write_matrix_market(rng.standard_normal((4, 2)), tmp_path / "A.mtx")
    # m=4, n=2: the reduction exhausts at k=2 long before the 6-dim system
    code = run("solve", "--method", "gpqmr", "--a", str(tmp_path / "A.mtx"),
               "--b-transpose-a", "--mu", "-1.0", "--seed", "0",
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


def test_svg_option_is_a_usage_error(matrices, capsys):
    # the convergence CSVs are the files to plot; there is no built-in plotter
    for methods in (["gpmr"], ["gpqmr", "gpmr"]):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--method", *methods,
                "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
                "--svg", str(matrices / "run.svg"))
        assert exc.value.code == 1
        assert "unrecognized arguments: --svg" in capsys.readouterr().err
    assert not (matrices / "run.svg").exists()


def test_compare_writes_all_outputs(matrices, capsys):
    # gpmr_restarted (cycles of 3) stops at maxit 10, the others converge at
    # k = 6; each method's history is its own CSV and nothing else is written
    outdir = matrices / "cmp"
    methods = ["gpbilq", "gpmr_restarted", "gpqmr", "gpmr"]
    code = run("solve", "--method", *methods,
               "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
               "--lambda", "1", "--mu", "-0.5", "--tol", "1e-8",
               "--restart", "3", "--maxit", "10", "--output-dir", str(outdir))
    assert code == 2
    stdout = capsys.readouterr().out
    assert "gpmr_restarted: maxit after 10 iterations" in stdout
    assert "wrote" not in stdout
    assert sorted(os.listdir(outdir)) == sorted(f"{name}.csv" for name in methods)
    histories = [read_csv(outdir / f"{name}.csv") for name in methods]
    for rows, _ in histories:
        assert [row["k"] for row in rows] == [str(k) for k in range(len(rows))]
    assert [(len(rows), reason) for rows, reason in histories] == [
        (7, "converged"), (11, "maxit"), (7, "converged"), (7, "converged")]


def test_compare_one_by_one_converges_first_step(tmp_path):
    write_matrix_market(np.array([[2.0]]), tmp_path / "A.mtx")
    write_matrix_market(np.array([[3.0]]), tmp_path / "B.mtx")
    outdir = tmp_path / "cmp"
    code = run("solve", "--method", "gpbicg", "gpqmr",
               "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx"),
               "--lambda", "1", "--mu", "1", "--seed", "0",
               "--tol", "1e-10", "--output-dir", str(outdir))
    assert code == 0
    for name in ("gpbicg", "gpqmr"):
        rows, reason = read_csv(outdir / f"{name}.csv")
        assert reason == "converged"
        assert rows[-1]["k"] == "1"


def test_compare_restarted_not_faster(tmp_path):
    # the fixture's blocks scaled by 0.3: restarted gpmr stalls at residual
    # 0.39 on the unscaled ones, and here converges in cycles of 3 steps
    rng = np.random.default_rng(400)
    for name in ("A", "B"):
        write_matrix_market(0.3 * rng.standard_normal((6, 6)), tmp_path / f"{name}.mtx")
    outdir = tmp_path / "cmp2"
    code = run("solve", "--method", "gpmr", "gpmr_restarted",
               "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx"),
               "--tol", "1e-8", "--restart", "3", "--maxit", "400",
               "--output-dir", str(outdir))
    (full, full_reason), (part, part_reason) = (read_csv(outdir / f"{m}.csv")
                                                for m in ("gpmr", "gpmr_restarted"))
    assert (code, full_reason, part_reason) == (0, "converged", "converged")
    assert int(part[-1]["k"]) > int(full[-1]["k"]) == 6


@pytest.mark.parametrize("methods, messages", [
    pytest.param(["gpqmr", "bogus"], ["invalid choice", "bogus"], id="gpqmr,bogus"),
    pytest.param(["gpqmr", "gpqmr"], ["names a method more than once"], id="gpqmr,gpqmr"),
    pytest.param([], ["--method: expected at least one argument"], id=","),
])
def test_compare_malformed_methods_exit_one(matrices, capsys, methods, messages):
    # an unknown, a repeated and an empty method list are rejected before
    # any solve, so the output directory is never made
    outdir = matrices / "cmp"
    with pytest.raises(SystemExit) as exc:
        run("solve", "--method", *methods,
            "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
            "--output-dir", str(outdir))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert all(message in err for message in messages), err
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "gpqmr", "--output", "x.csv"],
    ["solve", "--method", "gpqmr", "--output-d", "x"],
    ["compare", "--methods", "gpqmr"],
])
def test_removed_options_and_commands_exit_one_and_write_nothing(
        matrices, monkeypatch, capsys, argv):
    # options are not abbreviated: --output would otherwise match --output-dir
    # and make a directory named x.csv; compare's default directory is gone
    monkeypatch.chdir(matrices)
    before = sorted(os.listdir(matrices))
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--a", "A.mtx", "--b", "B.mtx")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice: 'compare'" in err, err
    assert sorted(os.listdir(matrices)) == before


@pytest.mark.parametrize("argv, unknown", [
    (["solve", "--method", "gpqmr", "--a", "x.mtx", "--output", "run.csv"],
     "--output run.csv"),
    (["check", "--bogus"], "--bogus"),
])
def test_unknown_option_prints_the_subcommands_usage(capsys, argv, unknown):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gpkrylov {argv[0]} "), err
    assert f"gpkrylov {argv[0]}: error: unrecognized arguments: {unknown}" in err, err


@pytest.mark.parametrize("args, message", [
    pytest.param(["--method", "gpqmr", "gpmr_restarted", "--restart", "0"],
                 "restart must be >= 1, got 0", id="restart-after-another-method"),
    pytest.param(["--method", "gpqmr", "--maxit", "-1"], "maxit must be >= 0, got -1",
                 id="maxit"),
    pytest.param(["--method", "gpqmr", "--tol", "nan"], "tol must be >= 0, got nan",
                 id="tol"),
])
def test_failing_solve_prints_only_the_error_and_writes_nothing(
        matrices, capsys, args, message):
    # every method is run before the output directory is made
    outdir = matrices / "D"
    assert run("solve", "--a", str(matrices / "A.mtx"), "--b", str(matrices / "B.mtx"),
               *args, "--output-dir", str(outdir)) == 1
    assert capsys.readouterr() == ("", f"gpkrylov: error: {message}\n")
    assert not outdir.exists()


def test_solve_without_output_dir_writes_nothing(matrices, monkeypatch, capsys):
    monkeypatch.chdir(matrices)
    before = sorted(os.listdir(matrices))
    assert run("solve", "--method", "gpqmr", "gpmr", "--a", "A.mtx", "--b", "B.mtx",
               "--mu", "-0.5") == 0
    assert sorted(os.listdir(matrices)) == before
    assert "wrote" not in capsys.readouterr().out


def test_unwritable_output_dir_exits_one_without_traceback(matrices):
    # an OSError other than FileNotFoundError (here FileExistsError from a
    # file where the directory should go) is a usage error, not a crash
    src = os.path.dirname(os.path.dirname(gpkrylov.__file__))
    out = subprocess.run([sys.executable, "-m", "gpkrylov.cli", "solve",
                          "--method", "gpqmr", "--a", str(matrices / "A.mtx"),
                          "--b", str(matrices / "B.mtx"),
                          "--output-dir", str(matrices / "A.mtx")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 1, out.stderr
    assert "gpkrylov: error:" in out.stderr
    assert "Traceback" not in out.stderr


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


def test_check_oversize_exits_one(capsys):
    assert run("check", "--size", "5000") == 1
    assert "size 5000 exceeds" in capsys.readouterr().err


def test_check_size_one_exits_one(capsys):
    assert run("check", "--size", "1") == 1
    assert "size 1" in capsys.readouterr().err


def test_module_entry_point_exits_one_on_bad_input(tmp_path):
    # ``python -m gpkrylov.cli``: main's return code becomes the exit status
    write_matrix_market(np.ones((6, 4)), tmp_path / "A.mtx")
    write_matrix_market(np.ones((5, 6)), tmp_path / "B.mtx")
    src = os.path.dirname(os.path.dirname(gpkrylov.__file__))
    for argv, message in (
            (("check", "--size", "1"), "gpkrylov: error: size 1"),
            (("solve", "--method", "gpqmr", "--a", str(tmp_path / "A.mtx"),
              "--b", str(tmp_path / "B.mtx")),
             "B must be 4x6 to pair with A 6x4, got (5, 6)")):
        out = subprocess.run([sys.executable, "-m", "gpkrylov.cli", *argv],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 1, out.stderr
        assert message in out.stderr


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


_MATRIX_FREE_RUN = """
import sys
import numpy as np
import gpkrylov, gpkrylov.cli
from gpkrylov import Operator, PartitionedSystem, gpbilq_solve, gpmr_solve, gpqmr_solve
from gpkrylov.verify import random_system

M = np.random.default_rng(3).standard_normal((7, 5))
callback = PartitionedSystem(1.0, -0.5, Operator(7, 5, M.__matmul__, M.T.__matmul__),
                             Operator(5, 7, M.T.__matmul__, M.__matmul__),
                             np.ones(7), np.ones(5))
for system in (random_system(7, 5, seed=2), callback):
    gpbilq_solve(system, monitor="l")
    gpbilq_solve(system, monitor="c")
    gpqmr_solve(system)
    gpmr_solve(system)
    gpmr_solve(system, restart=3)
gpkrylov.cli.main(["check"])
print("scipy modules:", sorted(m for m in sys.modules if m.startswith("scipy")))

mat = gpkrylov.read_matrix_market(sys.argv[1])
assert mat.format == "csr" and mat.dtype == np.float64, (mat.format, mat.dtype)
op = Operator.from_matrix(mat)
view = op._apply_t.__self__  # the bound dot of the transposed action
assert op._apply.__self__ is mat and view.format == "csc", view.format
assert np.shares_memory(view.data, mat.data)
y = np.arange(4.0)
assert np.array_equal(op.apply_transpose(y), mat.T @ y)
print("sparse branch: ok")
"""


def test_dense_and_callback_runs_leave_scipy_unloaded(tmp_path):
    # scipy.sparse and scipy.io cost about 23 MB of resident memory on
    # import; only reading a Matrix Market file or wrapping a sparse matrix
    # needs them
    path = tmp_path / "A.mtx"
    write_matrix_market(np.arange(12.0).reshape(4, 3), path)
    src = os.path.dirname(os.path.dirname(gpkrylov.__file__))
    out = subprocess.run([sys.executable, "-c", _MATRIX_FREE_RUN, str(path)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-2:] == ["scipy modules: []", "sparse branch: ok"], lines[-3:]


def _readme_block(heading, lang):
    """The first ``lang`` code block under README's ``## heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {heading}", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """Every ``gpkrylov ...`` command in README's "Command line" block, with
    lines ending in a backslash joined to the next."""
    lines = _readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gpkrylov ")]


def test_readme_command_examples_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"solve", "check"}
    for argv in commands:
        cli.build_parser().parse_args(argv)


def test_readme_library_example_runs():
    # only that it runs: the example's solve ends in breakdown (ROADMAP item 6)
    src = os.path.dirname(os.path.dirname(gpkrylov.__file__))
    out = subprocess.run([sys.executable, "-c", _readme_block("Library use", "python")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
