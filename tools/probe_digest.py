"""One line per solve on the probe grid and the desk batches, for bit-for-bit
comparison of two versions of gpkrylov.

Runs gpbilq, gpbicg, gpqmr, gpmr and gpmr9 (gpmr restarted every 9 steps,
the CLI's default cycle) on:

* the probe grid: ``verify.random_system(m, n, seed, lam, mu)`` on eight
  shapes and five (lam, mu) pairs, seed 1000 + 7 * shape + scalars (general
  B) or 2000 + ... with B = A^T, tol 1e-8 ||[b; c]|| and the default maxit;
* the desk batches of seeds 0 and 1 (32 dense 200 x 150 systems each), with
  the scalars, tolerance and maxit of perfbench's desk-dense workload
  (gpmr9 takes gpmr's).

Each line names the run and gives the exit reason, the iteration count,
``repr`` of the reported residual, a SHA-1 of the bytes of x then y, and a
SHA-1 of the recorded residual estimates.  A refactor is bit-identical when
the outputs of the two versions do not differ:

    PYTHONPATH=src python tools/probe_digest.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from gpkrylov import Operator, PartitionedSystem, gpmr_solve
from gpkrylov.verify import random_system

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import gen  # noqa: E402
from perfbench.bench import SOLVERS, WORKLOADS  # noqa: E402

SHAPES = [(40, 25), (25, 40), (60, 45), (45, 60), (40, 30), (30, 40),
          (30, 30), (50, 50)]
SCALARS = [(1.0, -0.5), (0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (2.0, 1.0)]
DESK = WORKLOADS["desk-dense"]
METHODS = {**SOLVERS, "gpmr9": lambda s, tol, maxit: gpmr_solve(s, tol=tol, maxit=maxit,
                                                                 restart=9)}


def runs():
    """(name, method, system, tol, maxit) of every run, probe grid first."""
    for symmetric, base in ((False, 1000), (True, 2000)):
        for si, (m, n) in enumerate(SHAPES):
            for ci, (lam, mu) in enumerate(SCALARS):
                seed = base + 7 * si + ci
                s = random_system(m, n, seed, lam, mu, symmetric=symmetric)
                for method in METHODS:
                    yield f"probe-{seed}-{m}x{n}", method, s, 1e-8 * s.rhs_norm, None
    for seed in (0, 1):
        for i in range(DESK.pool):
            A, B, b, c = gen.desk_arrays(seed, i)
            s = PartitionedSystem(DESK.lam, DESK.mu, Operator.from_matrix(A),
                                  Operator.from_matrix(B), b, c)
            for method in METHODS:
                rtol, maxit = DESK.runs.get(method, DESK.runs["gpmr"])
                yield f"desk-{seed}-{i}", method, s, rtol * s.rhs_norm, maxit


def digest(res) -> str:
    xy = hashlib.sha1(np.ascontiguousarray(res.x).tobytes()
                      + np.ascontiguousarray(res.y).tobytes()).hexdigest()
    est = hashlib.sha1(res.record.est_residuals().tobytes()).hexdigest()
    return f"{res.reason} {res.iterations} {res.residual!r} {xy} {est}"


def main() -> int:
    for name, method, s, tol, maxit in runs():
        print(f"{name} {method} {digest(METHODS[method](s, tol, maxit))}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
