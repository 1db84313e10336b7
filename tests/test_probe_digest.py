"""``tools/probe_digest.py`` is the bit-identity check for refactors.  It
imports the benchmark's solver table and desk workload and the seeded
system builder, so a rename in any of them breaks it; this module runs it."""

import importlib.util
import re
from pathlib import Path

import pytest

from gpkrylov.convergence import BREAKDOWN, CONVERGED, MAXIT, NONFINITE

TOOL = Path(__file__).resolve().parents[1] / "tools" / "probe_digest.py"
_spec = importlib.util.spec_from_file_location("probe_digest", TOOL)
probe_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe_digest)

METHODS = ["gpbilq", "gpbicg", "gpqmr", "gpmr", "gpmr9"]


def test_runs_cover_the_probe_grid_and_the_desk_batches():
    runs = list(probe_digest.runs())
    assert list(probe_digest.METHODS) == METHODS
    assert [method for _, method, *_ in runs] == METHODS * 144
    probe = [f"probe-{base + 7 * si + ci}-{m}x{n}" for base in (1000, 2000)
             for si, (m, n) in enumerate(probe_digest.SHAPES) for ci in range(5)]
    desk = [f"desk-{seed}-{i}" for seed in (0, 1) for i in range(32)]
    assert [name for name, *_ in runs] == [name for name in probe + desk for _ in METHODS]


@pytest.mark.parametrize("method", METHODS)
def test_digest_has_five_fields(method):
    _, _, s, tol, maxit = next(r for r in probe_digest.runs() if r[1] == method)
    reason, k, residual, xy, est = probe_digest.digest(
        probe_digest.METHODS[method](s, tol, maxit)).split()
    assert reason in (CONVERGED, MAXIT, BREAKDOWN, NONFINITE)
    assert int(k) >= 0 and float(residual) >= 0.0
    assert re.fullmatch("[0-9a-f]{40}", xy) and re.fullmatch("[0-9a-f]{40}", est)
