"""Command-line driver: ``solve`` runs one or more methods on one system,
``check`` runs the invariant suite.

The CLI is a thin shell over the library API.  Systems are built either
from Matrix Market files (with the right-hand side constructed so the exact
solution is the vector of ones, or drawn at random from ``--seed``) or from
one of the named benchmark recipes.  ``solve`` runs every method before it
writes anything, so a failing command leaves no output; ``--output-dir DIR``
gets each method's convergence CSV as ``DIR/<method>.csv`` and nothing else.

Exit codes: 0 tolerance reached (``check``: every check passed), 1 usage
error or unwritable output, 2 iteration limit, 3 breakdown, 4 non-finite
residual (``check``: a check failed); ``solve`` exits with the largest of
its methods' codes.
"""

from __future__ import annotations

import argparse
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


def _read_vector(path):
    mat = read_matrix_market(path)  # flattening a matrix would hide its shape
    if 1 not in mat.shape:
        raise ValueError(f"{path}: a start vector must be one row or one column, "
                         f"got {mat.shape[0]}x{mat.shape[1]}")
    return mat.toarray().ravel()


def _build_from_args(args, parser) -> PartitionedSystem:
    if args.experiment:
        given = [flag for flag, value in (
            ("--b", args.b), ("--b-transpose-a", args.b_transpose_a or None),
            ("--lambda", args.lam), ("--mu", args.mu), ("--seed", args.seed),
            ("--f-file", args.f_file), ("--g-file", args.g_file)) if value is not None]
        if given:
            parser.error(f"--experiment fixes the system; drop {' '.join(given)}")
        return build_experiment(args.experiment, args.matrix_dir)
    A = read_matrix_market(args.a)
    if args.b_transpose_a:
        B = A.T.tocsr()
    elif args.b:
        B = read_matrix_market(args.b)
    else:
        parser.error("provide --b or --b-transpose-a")
    f, g = (_read_vector(path) if path else None for path in (args.f_file, args.g_file))
    lam = 1.0 if args.lam is None else args.lam
    mu = -1.0 if args.mu is None else args.mu
    if args.seed is None:
        return build_system(A, B, lam, mu, f=f, g=g)
    rng = np.random.default_rng(args.seed)
    return PartitionedSystem(lam, mu, Operator.from_matrix(A), Operator.from_matrix(B),
                             rng.standard_normal(A.shape[0]),
                             rng.standard_normal(A.shape[1]), f=f, g=g)


def cmd_solve(args, parser) -> int:
    if len(set(args.method)) < len(args.method):
        parser.error(f"--method names a method more than once: {' '.join(args.method)}")
    sys_ = _build_from_args(args, parser)
    # every solve returns before anything is written, so an error leaves nothing
    results = {m: _SOLVERS[m](sys_, args, tol=args.tol, maxit=args.maxit,
                              explicit_residual=args.residual == "explicit")
               for m in args.method}
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        for m, result in results.items():
            write_convergence_csv(result.record, os.path.join(args.output_dir, f"{m}.csv"))
    for m, result in results.items():
        print(f"{m}: {result.reason} after {result.iterations} iterations, "
              f"residual {result.residual:.6e}")
    return max(_EXIT_FOR_REASON[result.reason] for result in results.values())


def cmd_check(args, parser) -> int:
    results = run_invariant_suite(args.size, args.seed)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name.ljust(width)}  {r.detail}")
        ok = ok and r.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpkrylov", allow_abbrev=False,
                     description="Krylov solvers for 2x2 block partitioned systems")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", allow_abbrev=False,
                        help="run one or more methods on the same system")
    ps.add_argument("--method", nargs="+", choices=METHODS, required=True)
    source = ps.add_mutually_exclusive_group(required=True)
    source.add_argument("--a", metavar="A.mtx", help="Matrix Market file for A")
    source.add_argument("--experiment", choices=sorted(EXPERIMENTS),
                        help="named benchmark system (fixes B, lambda, mu and the rhs)")
    second = ps.add_mutually_exclusive_group()
    second.add_argument("--b", metavar="B.mtx", help="Matrix Market file for B")
    second.add_argument("--b-transpose-a", action="store_true",
                        help="use B = A^T instead of reading --b")
    ps.add_argument("--matrix-dir", default=".",
                    help="directory holding the experiment .mtx files")
    # None marks an option as not given, which --experiment rejects
    ps.add_argument("--lambda", dest="lam", type=float,
                    help="scalar on the top-left identity block (default 1)")
    ps.add_argument("--mu", type=float,
                    help="scalar on the bottom-right identity block (default -1)")
    ps.add_argument("--seed", type=int, help="draw the right-hand side at random from "
                    "this seed (default: the exact solution is the vector of ones)")
    ps.add_argument("--f-file", metavar="F.mtx",
                    help="auxiliary start vector f, one row or column (default: f = b)")
    ps.add_argument("--g-file", metavar="G.mtx",
                    help="auxiliary start vector g, one row or column (default: g = c)")
    ps.add_argument("--tol", type=float, default=1e-8, help="residual tolerance")
    ps.add_argument("--maxit", type=int, help="iteration limit (default 2(m+n))")
    ps.add_argument("--restart", type=int, default=9,
                    help="cycle length for gpmr_restarted")
    ps.add_argument("--residual", choices=("estimate", "explicit"), default="estimate",
                    help="stopping quantity: recurrence estimates or explicit residuals")
    ps.add_argument("--output-dir", metavar="DIR",
                    help="write each method's convergence CSV to DIR/<method>.csv")
    ps.set_defaults(run=cmd_solve, parser=ps)

    pk = sub.add_parser("check", allow_abbrev=False, help="run the invariant suite")
    pk.add_argument("--size", type=int, default=12)
    pk.add_argument("--seed", type=int, default=7)
    pk.set_defaults(run=cmd_check, parser=pk)
    return parser


def main(argv=None) -> int:
    # argparse hands a subcommand's unknown options back to the top parser;
    # reporting them through the subcommand prints that command's usage
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.run(args, args.parser)
    except (ValueError, OSError) as exc:
        print(f"gpkrylov: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
