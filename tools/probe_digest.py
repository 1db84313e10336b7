"""One line per solve on the probe grid, the desk batches and two sparse
grids, for bit-for-bit comparison of two versions of gpkrylov.

Runs gpbilq, gpbicg, gpqmr, gpmr and gpmr9 (gpmr restarted every 9 steps,
the CLI's default cycle) on:

* the probe grid: ``verify.random_system(m, n, seed, lam, mu)`` on eight
  shapes and five (lam, mu) pairs, seed 1000 + 7 * shape + scalars (general
  B) or 2000 + ... with B = A^T, tol 1e-8 ||[b; c]|| and the default maxit;
* the desk batches of seeds 0 and 1 (32 dense 200 x 150 systems each), with
  the scalars, tolerance and maxit of perfbench's desk-dense workload
  (gpmr9 takes gpmr's);
* the exits before a first step, on ``random_system(40, 25, 1000)`` and
  ``random_system(25, 40, 1007)``: ``maxit = 0`` ("maxit0"), and a start
  vector f made orthogonal to b ("fperp"; only the short recurrences read
  f), at tol 1e-8 ||[b; c]||;
* two small grids of perfbench's grid family, N = 6 and 9: sparse CSR
  blocks A = ``gen.grid_gradient(N)`` and B = -A^T through
  ``Operator.from_matrix``, b and c from ``gen.grid_rhs(N, 0, 0)``, the grid
  workloads' lam and mu, tol 1e-6 ||[b; c]|| and the default maxit.

Each line names the run and gives the exit reason, the iteration count,
``repr`` of the reported residual, a SHA-1 of the bytes of x then y, and a
SHA-1 of the recorded residual estimates.  A refactor is bit-identical when
the outputs of the two versions do not differ:

    PYTHONPATH=src python tools/probe_digest.py > after.txt
    diff before.txt after.txt

A change that moves only the iterate's rounding (the short recurrences'
directions feed nothing but x and y) keeps the name, method, reason,
iteration count and estimates digest, fields 1-4 and 7:

    diff <(cut -d' ' -f1-4,7 before.txt) <(cut -d' ' -f1-4,7 after.txt)

is then empty, and the x/y digest and residual fields may differ on
gpbilq, gpbicg and gpqmr runs only; gpmr and gpmr9 lines stay identical.

A change that moves rounding in the reduction moves exits too: on the
probe systems the short recurrences run past the dimension after
biorthogonality is lost, and there a rounding-level change of the input
moves most of their exits.  Such a change is judged against rounding.
``--draws K`` re-runs every run on K seeded perturbations of the input
(each entry of b and c multiplied by 1 + 4 eps N(0, 1); f and g follow
b and c wherever they equal them, which leaves only fperp's f) and appends
one field per line: ``stable`` when the reason and iteration count of
every draw equal the run's own, else ``chaotic``.  Per method it also
writes to stderr the spread, over the run and its draws, of the chaotic
runs' solved count (``converged`` exits) and median iteration count.
The rule for a change that moves rounding, with the version before it as
the reference, run at ``--draws 10`` and judging the change's plain digest:

* on lines the reference's draws mark ``stable``, fields 1-4 (name,
  method, reason, iteration count) are identical;
* on the lines they mark ``chaotic``, per method, the change's solved
  count and median iteration count each lie within the reference's spread.

    PYTHONPATH=src python tools/probe_digest.py --draws 10 > draws.txt 2> spread.txt
    # at the change: PYTHONPATH=src python tools/probe_digest.py > after.txt
    paste -d' ' draws.txt after.txt | awk '$8 == "stable" && ($3 != $11 || $4 != $12)'

The last command prints the stable lines that moved.  Three draws (about
20 s; ten take about a minute) give a spread narrower than rounding's own, so
a failure at three draws is no verdict.  Ten draws are not the whole of it
either: judged the other way round (the change's draws, the reference's
digest), a change that passes can still fall just outside.

Without ``--draws`` the output is the plain digest, unchanged.

No probe vector is longer than 200 rows, so at the default
``reduction.STRIP_ROWS`` every vector pass runs whole and the plain digest
never reaches the row-strip code.  ``--strip-rows N`` runs every probe with
``reduction.STRIP_ROWS = N``: the reduction's sweeps in N-row strips and the
direction updates in strips of a quarter of that.  A refactor keeps this
striped digest bit-identical as well:

    PYTHONPATH=src python tools/probe_digest.py --strip-rows 7 > after7.txt
    diff before7.txt after7.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import zlib
from pathlib import Path

import numpy as np

from gpkrylov import CONVERGED, Operator, PartitionedSystem, gpmr_solve, reduction
from gpkrylov.verify import random_system

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import gen  # noqa: E402
from perfbench.bench import SOLVERS, WORKLOADS  # noqa: E402

SHAPES = [(40, 25), (25, 40), (60, 45), (45, 60), (40, 30), (30, 40),
          (30, 30), (50, 50)]
SCALARS = [(1.0, -0.5), (0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (2.0, 1.0)]
DESK = WORKLOADS["desk-dense"]
GRID = WORKLOADS["grid-35k"]
EPS = np.finfo(float).eps
METHODS = {**SOLVERS, "gpmr9": lambda s, tol, maxit: gpmr_solve(s, tol=tol, maxit=maxit,
                                                                 restart=9)}


def runs():
    """(name, method, system, tol, maxit) of every run, probe grid first and
    the sparse grids last."""
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
    for m, n, seed in ((40, 25, 1000), (25, 40, 1007)):
        s = random_system(m, n, seed)
        f = np.random.default_rng(seed).standard_normal(m)
        f -= (f @ s.b) / (s.b @ s.b) * s.b
        fperp = PartitionedSystem(s.lam, s.mu, s.A, s.B, s.b, s.c, f=f, g=s.g)
        for name, sys_, maxit in (("maxit0", s, 0), ("fperp", fperp, None)):
            for method in METHODS:
                yield f"{name}-{seed}-{m}x{n}", method, sys_, 1e-8 * s.rhs_norm, maxit
    for N in (6, 9):
        A = gen.grid_gradient(N)
        s = PartitionedSystem(GRID.lam, GRID.mu, Operator.from_matrix(A),
                              Operator.from_matrix((-A.T).tocsr()), *gen.grid_rhs(N, 0, 0))
        for method in METHODS:
            yield f"grid{N}-{s.m}x{s.n}", method, s, 1e-6 * s.rhs_norm, None


def digest(res) -> str:
    xy = hashlib.sha1(np.ascontiguousarray(res.x).tobytes()
                      + np.ascontiguousarray(res.y).tobytes()).hexdigest()
    est = hashlib.sha1(res.record.est_residuals().tobytes()).hexdigest()
    return f"{res.reason} {res.iterations} {res.residual!r} {xy} {est}"


def perturbed(name: str, s: PartitionedSystem, draw: int) -> PartitionedSystem:
    """Draw ``draw`` of run ``name``'s system: each entry of b and c times
    1 + 4 eps N(0, 1), seeded by the draw and the name; f and g follow b and
    c where they equal them."""
    rng = np.random.default_rng([draw, zlib.crc32(name.encode())])
    b, c = (v * (1.0 + 4.0 * EPS * rng.standard_normal(len(v))) for v in (s.b, s.c))
    f = b if np.array_equal(s.f, s.b) else s.f
    g = c if np.array_equal(s.g, s.c) else s.g
    return PartitionedSystem(s.lam, s.mu, s.A, s.B, b, c, f, g)


def classify(run, draws: int):
    """(result, outcomes, class) of one run: ``outcomes`` holds the
    (reason, iterations) of the run itself and then of each of ``draws``
    perturbations of it, and the class is stable when they are all equal."""
    name, method, s, tol, maxit = run
    res = METHODS[method](s, tol, maxit)
    outcomes = [(res.reason, res.iterations)]
    for draw in range(1, draws + 1):
        moved = METHODS[method](perturbed(name, s, draw), tol, maxit)
        outcomes.append((moved.reason, moved.iterations))
    return res, outcomes, "stable" if len(set(outcomes)) == 1 else "chaotic"


def _summary(outcomes):
    """Solved count and median iteration count of a list of outcomes."""
    return (sum(reason == CONVERGED for reason, _ in outcomes),
            float(np.median([k for _, k in outcomes])))


def spreads(classified):
    """{method: ((solved lo, hi), (median k lo, hi))} over the chaotic runs
    of ``classified`` (name, method, class, outcomes), each summary taken
    once for the runs themselves and once per draw."""
    out = {}
    for method in METHODS:
        rows = [oc for _, m, cls, oc in classified if m == method and cls == "chaotic"]
        if rows:
            per_draw = [_summary(col) for col in zip(*rows)]
            out[method] = tuple((min(v), max(v)) for v in zip(*per_draw))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--draws", type=int, default=0,
                    help="classify each run against this many perturbed draws")
    ap.add_argument("--strip-rows", type=int, default=None,
                    help="run every probe with reduction.STRIP_ROWS set to this")
    args = ap.parse_args(argv)
    if args.draws < 0:
        ap.error("--draws must be >= 0")
    if args.strip_rows is not None and args.strip_rows < 1:
        ap.error("--strip-rows must be >= 1")
    classified, saved = [], reduction.STRIP_ROWS
    reduction.STRIP_ROWS = args.strip_rows or saved
    try:
        for run in runs():
            name, method = run[:2]
            res, outcomes, cls = classify(run, args.draws)
            classified.append((name, method, cls, outcomes))
            tail = f" {cls}" if args.draws else ""
            print(f"{name} {method} {digest(res)}{tail}", flush=True)
    finally:
        reduction.STRIP_ROWS = saved
    for method, ((s_lo, s_hi), (k_lo, k_hi)) in spreads(classified).items():
        print(f"spread {method}: solved {s_lo}..{s_hi}, median k {k_lo:g}..{k_hi:g}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
