"""Command-line driver: solve, compare, and check subcommands.

The CLI is a thin shell over the library API.  Systems are built either
from Matrix Market files (with the right-hand side constructed so the exact
solution is the vector of ones, or drawn at random) or from one of the named
benchmark recipes.

Exit codes: 0 tolerance reached (``check``: every check passed), 1 usage
error, 2 iteration limit, 3 breakdown, 4 non-finite residual (``check``: a
check failed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .baselines import gpmr_solve
from .convergence import BREAKDOWN, CONVERGED, MAXIT, NONFINITE
from .gpbilq import gpbilq_solve
from .gpqmr import gpqmr_solve
from .io import (EXPERIMENTS, build_experiment, build_system,
                 read_matrix_market, write_convergence_csv)
from .linop import Operator, PartitionedSystem
from .verify import run_invariant_suite

__all__ = ["main"]

# each method's solve call; ``kw`` carries tol, maxit and explicit_residual
_SOLVERS = {
    "gpbilq": lambda s, args, **kw: gpbilq_solve(s, monitor="l", **kw),
    "gpbicg": lambda s, args, **kw: gpbilq_solve(s, monitor="c", **kw),
    "gpqmr": lambda s, args, **kw: gpqmr_solve(s, **kw),
    "gpmr": lambda s, args, **kw: gpmr_solve(s, **kw),
    "gpmr_restarted": lambda s, args, **kw: gpmr_solve(s, restart=args.restart, **kw),
}
METHODS = tuple(_SOLVERS)

_EXIT_FOR_REASON = {CONVERGED: 0, MAXIT: 2, BREAKDOWN: 3, NONFINITE: 4}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; 2 is reserved for the iteration limit
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_system_args(p):
    p.add_argument("--a", metavar="A.mtx", help="Matrix Market file for A")
    p.add_argument("--b", metavar="B.mtx", help="Matrix Market file for B")
    p.add_argument("--b-transpose-a", action="store_true",
                   help="use B = A^T instead of reading --b")
    p.add_argument("--experiment", choices=sorted(EXPERIMENTS),
                   help="named benchmark system (fixes lambda/mu and files)")
    p.add_argument("--matrix-dir", default=".",
                   help="directory holding the experiment .mtx files")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="scalar on the top-left identity block")
    p.add_argument("--mu", type=float, default=-1.0,
                   help="scalar on the bottom-right identity block")
    p.add_argument("--rhs", choices=("ones", "random"), default="ones",
                   help="right-hand side: exact solution of ones, or random")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --rhs random")
    p.add_argument("--f-file", metavar="F.mtx",
                   help="auxiliary start vector f (default: f = b)")
    p.add_argument("--g-file", metavar="G.mtx",
                   help="auxiliary start vector g (default: g = c)")


def _add_solver_args(p):
    p.add_argument("--tol", type=float, default=1e-8,
                   help="residual tolerance")
    p.add_argument("--maxit", type=int, default=None,
                   help="iteration limit (default 2(m+n))")
    p.add_argument("--restart", type=int, default=9,
                   help="cycle length for gpmr_restarted")
    p.add_argument("--residual", choices=("estimate", "explicit"),
                   default="estimate",
                   help="stopping quantity: recurrence estimates or explicit residuals")


def _read_vector(path, length, name, parser):
    mat = read_matrix_market(path)
    vec = np.asarray(mat.todense()).ravel()
    if vec.shape[0] != length:
        parser.error(f"{name} must have {length} entries, got {vec.shape[0]}")
    return vec


def _build_from_args(args, parser) -> PartitionedSystem:
    if args.experiment:
        return build_experiment(args.experiment, args.matrix_dir)
    if not args.a:
        parser.error("either --experiment or --a is required")
    A = read_matrix_market(args.a)
    if args.b_transpose_a:
        B = A.T.tocsr()
    elif args.b:
        B = read_matrix_market(args.b)
    else:
        parser.error("provide --b or --b-transpose-a")
    if B.shape != (A.shape[1], A.shape[0]):
        parser.error(f"incompatible shapes: A {A.shape}, B {B.shape}")
    f = _read_vector(args.f_file, A.shape[0], "f", parser) if args.f_file else None
    g = _read_vector(args.g_file, A.shape[1], "g", parser) if args.g_file else None
    if args.rhs == "ones":
        return build_system(A, B, args.lam, args.mu, f=f, g=g)
    rng = np.random.default_rng(args.seed)
    return PartitionedSystem(args.lam, args.mu, Operator.from_matrix(A),
                             Operator.from_matrix(B),
                             rng.standard_normal(A.shape[0]),
                             rng.standard_normal(A.shape[1]), f=f, g=g)


def _run_method(method, sys_, args):
    return _SOLVERS[method](sys_, args, tol=args.tol, maxit=args.maxit,
                            explicit_residual=args.residual == "explicit")


def _summarize(method, result):
    print(f"{method}: {result.reason} after {result.iterations} iterations, "
          f"residual {result.residual:.6e}")


def cmd_solve(args, parser) -> int:
    sys_ = _build_from_args(args, parser)
    result = _run_method(args.method, sys_, args)
    if args.output:
        write_convergence_csv(result.record, args.output)
        print(f"wrote {args.output}")
    if args.svg:
        write_convergence_svg([(args.method, result.record)], args.svg)
        print(f"wrote {args.svg}")
    _summarize(args.method, result)
    return _EXIT_FOR_REASON[result.reason]


def cmd_compare(args, parser) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            parser.error(f"unknown method '{m}' (choose from {', '.join(METHODS)})")
    if len(set(methods)) < len(methods):
        parser.error(f"--methods names a method more than once: {args.methods}")
    if not methods:
        parser.error("--methods must name at least one method")
    sys_ = _build_from_args(args, parser)
    os.makedirs(args.output_dir, exist_ok=True)
    results = {}
    for m in methods:
        results[m] = _run_method(m, sys_, args)
        path = os.path.join(args.output_dir, f"{m}.csv")
        write_convergence_csv(results[m].record, path)
        _summarize(m, results[m])
    merged = os.path.join(args.output_dir, "compare.csv")
    _write_merged_csv(results, methods, merged)
    print(f"wrote {merged}")
    if args.svg:
        write_convergence_svg([(m, results[m].record) for m in methods], args.svg)
        print(f"wrote {args.svg}")
    return max(_EXIT_FOR_REASON[r.reason] for r in results.values())


def _write_merged_csv(results, methods, path):
    maxk = max((r.record.rows[-1].k for r in results.values() if r.record.rows),
               default=0)
    series = {}
    for m in methods:
        series[m] = {row.k: row.est_residual for row in results[m].record.rows}
    with open(path, "w", encoding="ascii") as fh:
        fh.write("k," + ",".join(methods) + "\n")
        for k in range(maxk + 1):
            cells = [f"{series[m][k]:.17g}" if k in series[m] else ""
                     for m in methods]
            fh.write(f"{k}," + ",".join(cells) + "\n")


def cmd_check(args, parser) -> int:
    try:
        results = run_invariant_suite(args.size, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name.ljust(width)}  {r.detail}")
        ok = ok and r.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 4


# -- minimal SVG plotting ----------------------------------------------------

_COLORS = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#e67e22", "#16a085")


def write_convergence_svg(series, path, width=720, height=480) -> None:
    """Log-scale residual curves, one polyline per (label, record) pair."""
    pts = []
    for _, record in series:
        for row in record.rows:
            if row.est_residual > 0 and math.isfinite(row.est_residual):
                pts.append((row.k, row.est_residual))
    if not pts:
        raise ValueError("nothing to plot: no positive residuals recorded")
    kmax = max(1, max(p[0] for p in pts))
    lo = math.floor(math.log10(min(p[1] for p in pts)))
    hi = math.ceil(math.log10(max(p[1] for p in pts)))
    if hi == lo:
        hi = lo + 1
    mleft, mright, mtop, mbot = 70, 20, 20, 50

    def sx(k):
        return mleft + (width - mleft - mright) * k / kmax

    def sy(r):
        t = (math.log10(r) - lo) / (hi - lo)
        return height - mbot - (height - mtop - mbot) * t

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    for d in range(lo, hi + 1):
        yy = sy(10.0 ** d)
        out.append(f'<line x1="{mleft}" y1="{yy:.1f}" x2="{width - mright}" '
                   f'y2="{yy:.1f}" stroke="#dddddd"/>')
        out.append(f'<text x="{mleft - 8}" y="{yy + 4:.1f}" text-anchor="end" '
                   f'font-size="12">1e{d}</text>')
    xticks = max(1, kmax // 8)
    for k in range(0, kmax + 1, xticks):
        xx = sx(k)
        out.append(f'<line x1="{xx:.1f}" y1="{height - mbot}" x2="{xx:.1f}" '
                   f'y2="{height - mbot + 5}" stroke="black"/>')
        out.append(f'<text x="{xx:.1f}" y="{height - mbot + 20}" '
                   f'text-anchor="middle" font-size="12">{k}</text>')
    out.append(f'<line x1="{mleft}" y1="{height - mbot}" x2="{width - mright}" '
               f'y2="{height - mbot}" stroke="black"/>')
    out.append(f'<line x1="{mleft}" y1="{mtop}" x2="{mleft}" '
               f'y2="{height - mbot}" stroke="black"/>')
    out.append(f'<text x="{(mleft + width - mright) / 2}" y="{height - 10}" '
               f'text-anchor="middle" font-size="13">iteration</text>')
    for idx, (label, record) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{sx(row.k):.1f},{sy(row.est_residual):.1f}"
                          for row in record.rows
                          if row.est_residual > 0 and math.isfinite(row.est_residual))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = mtop + 16 * (idx + 1)
        out.append(f'<line x1="{width - mright - 150}" y1="{ly}" '
                   f'x2="{width - mright - 120}" y2="{ly}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{width - mright - 114}" y="{ly + 4}" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpkrylov",
                     description="Krylov solvers for 2x2 block partitioned systems")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[], help="run one method on one system")
    ps.add_argument("--method", choices=METHODS, required=True)
    _add_system_args(ps)
    _add_solver_args(ps)
    ps.add_argument("--output", metavar="OUT.csv", help="convergence CSV path")
    ps.add_argument("--svg", metavar="OUT.svg", help="convergence plot path")
    ps.set_defaults(run=cmd_solve)

    pc = sub.add_parser("compare", help="run several methods on the same system")
    pc.add_argument("--methods", required=True,
                    help="comma-separated list, e.g. gpbilq,gpqmr,gpmr")
    _add_system_args(pc)
    _add_solver_args(pc)
    pc.add_argument("--output-dir", default="compare-out",
                    help="directory for per-method and merged CSVs")
    pc.add_argument("--svg", metavar="OUT.svg", help="combined plot path")
    pc.set_defaults(run=cmd_compare)

    pk = sub.add_parser("check", help="run the invariant suite")
    pk.add_argument("--size", type=int, default=12)
    pk.add_argument("--seed", type=int, default=7)
    pk.set_defaults(run=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except (ValueError, FileNotFoundError) as exc:
        print(f"gpkrylov: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
