"""``tools/probe_digest.py`` is the bit-identity check for refactors.  It
imports the benchmark's solver table and desk workload and the seeded
system builder, so a rename in any of them breaks it; this module runs it."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from gpkrylov import reduction
from gpkrylov.convergence import BREAKDOWN, CONVERGED, MAXIT, NONFINITE

TOOL = Path(__file__).resolve().parents[1] / "tools" / "probe_digest.py"
_spec = importlib.util.spec_from_file_location("probe_digest", TOOL)
probe_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe_digest)

METHODS = ["gpbilq", "gpbicg", "gpqmr", "gpmr", "gpmr9"]


def test_runs_cover_the_probe_grid_and_the_desk_batches():
    runs = list(probe_digest.runs())
    assert list(probe_digest.METHODS) == METHODS
    assert [method for _, method, *_ in runs] == METHODS * 150
    probe = [f"probe-{base + 7 * si + ci}-{m}x{n}" for base in (1000, 2000)
             for si, (m, n) in enumerate(probe_digest.SHAPES) for ci in range(5)]
    desk = [f"desk-{seed}-{i}" for seed in (0, 1) for i in range(32)]
    early = [f"{case}-{shape}" for shape in ("1000-40x25", "1007-25x40")
             for case in ("maxit0", "fperp")]
    grid = ["grid6-60x36", "grid9-144x81"]
    assert [name for name, *_ in runs] == [name for name in probe + desk + early + grid
                                           for _ in METHODS]
    assert [maxit for name, _, _, _, maxit in runs if name.startswith("maxit0")] == [0] * 10
    for name, _, s, _, maxit in runs:
        if name.startswith("fperp"):
            assert abs(s.f @ s.b) <= 1e-12 * np.linalg.norm(s.f) * np.linalg.norm(s.b)
        if name.startswith("grid"):
            assert (s.lam, s.mu, maxit) == (1.0, -1e-2, None)


@pytest.mark.parametrize("method", METHODS)
def test_digest_has_five_fields(method):
    _, _, s, tol, maxit = next(r for r in probe_digest.runs() if r[1] == method)
    reason, k, residual, xy, est = probe_digest.digest(
        probe_digest.METHODS[method](s, tol, maxit)).split()
    assert reason in (CONVERGED, MAXIT, BREAKDOWN, NONFINITE)
    assert int(k) >= 0 and float(residual) >= 0.0
    assert re.fullmatch("[0-9a-f]{40}", xy) and re.fullmatch("[0-9a-f]{40}", est)


def _run(name, method):
    return next(r for r in probe_digest.runs() if r[:2] == (name, method))


@pytest.mark.parametrize("name, method, cls", [
    ("desk-0-0", "gpbilq", "stable"),
    ("probe-1045-30x30", "gpbilq", "chaotic"),  # breakdown at k = 30, a draw converges
    ("probe-1045-30x30", "gpmr", "stable"),
])
def test_draws_classify_named_runs(name, method, cls):
    run = _run(name, method)
    res, outcomes, got = probe_digest.classify(run, 3)
    assert got == cls and len(outcomes) == 4
    assert outcomes[0] == (res.reason, res.iterations)
    assert probe_digest.digest(res) == probe_digest.digest(
        probe_digest.METHODS[method](*run[2:]))


def test_perturbation_moves_b_and_c_at_rounding_level_and_f_follows():
    _, _, s, _, _ = _run("probe-1000-40x25", "gpbilq")
    moved = probe_digest.perturbed("probe-1000-40x25", s, 1)
    for new, old in ((moved.b, s.b), (moved.c, s.c)):
        rel = np.abs(new / old - 1.0)
        assert 0.0 < rel.max() <= 40 * np.finfo(float).eps
    assert moved.f is None and moved.g is None
    _, _, fperp, _, _ = _run("fperp-1000-40x25", "gpbilq")
    moved = probe_digest.perturbed("fperp-1000-40x25", fperp, 1)
    assert moved.f is fperp.f and moved.g is None


def test_strip_rows_runs_every_probe_at_that_strip_size(monkeypatch, capsys):
    # grid9's 144 and 81 rows span several 7-row sweep strips and, at a
    # quarter of that, 1-row direction-update strips; the flag lasts one call
    run = _run("grid9-144x81", "gpqmr")
    monkeypatch.setattr(probe_digest, "runs", lambda: iter([run]))
    plain = probe_digest.digest(probe_digest.METHODS["gpqmr"](*run[2:]))
    with monkeypatch.context() as mp:
        mp.setattr(reduction, "STRIP_ROWS", 7)
        striped = probe_digest.digest(probe_digest.METHODS["gpqmr"](*run[2:]))
    assert striped != plain
    assert probe_digest.main(["--strip-rows", "7"]) == 0
    assert capsys.readouterr().out == f"grid9-144x81 gpqmr {striped}\n"
    assert reduction.STRIP_ROWS == 2 ** 15
    with pytest.raises(SystemExit):
        probe_digest.main(["--strip-rows", "0"])


def test_table_has_four_method_rows_and_pins_gpmrs(capsys):
    # gpmr's runs move under rounding in 0 of 80 cases, so its row is pinned;
    # the short recurrences' rows move under rounding (ROADMAP item 7)
    assert probe_digest.main(["--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert len(lines) == 6 and cells[0][0] == "method" and set(cells[1]) == {"---"}
    rows = {row[0]: row[1:] for row in cells[2:]}
    assert list(rows) == probe_digest.TABLE_METHODS == ["gpbilq", "gpbicg", "gpqmr", "gpmr"]
    for row in rows.values():
        assert [cell.split("/")[1] for cell in row[:4]] == ["30", "10", "30", "10"]
        assert all(re.fullmatch(r"\d+; \d+", cell) for cell in row[4:]), row
    assert rows["gpmr"] == ["18/30", "10/10", "18/30", "10/10", "0; 0", "0; 0"]
    with pytest.raises(SystemExit):
        probe_digest.main(["--table", "--draws", "1"])
