"""Per-iteration convergence records, the common solve result, and the
solve loop that every method runs."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linop import PartitionedSystem, residual_norm
from .reduction import BreakdownReport
from .rotations import SingularWindowError

__all__ = ["IterationRow", "ConvergenceRecord", "SolveResult",
           "CONVERGED", "MAXIT", "BREAKDOWN", "NONFINITE"]

CONVERGED = "converged"
MAXIT = "maxit"
BREAKDOWN = "breakdown"
NONFINITE = "nonfinite"


@dataclass
class IterationRow:
    k: int
    est_residual: float
    true_residual: float | None = None
    transfer_defined: bool | None = None
    elapsed: float = 0.0


@dataclass
class ConvergenceRecord:
    """Ordered per-iteration residual history plus the termination reason."""

    rows: list[IterationRow] = field(default_factory=list)
    reason: str | None = None

    def append(self, k, est_residual, true_residual=None,
               transfer_defined=None, elapsed=0.0) -> None:
        if self.rows and k <= self.rows[-1].k:
            raise ValueError("iteration indices must be strictly increasing")
        if est_residual < 0 or (true_residual is not None and true_residual < 0):
            raise ValueError("residual norms must be nonnegative")
        self.rows.append(IterationRow(int(k), float(est_residual),
                                      None if true_residual is None else float(true_residual),
                                      transfer_defined, float(elapsed)))

    def finalize(self, reason: str) -> None:
        self.reason = reason

    def __len__(self) -> int:
        return len(self.rows)

    def est_residuals(self) -> np.ndarray:
        return np.array([r.est_residual for r in self.rows])

    def true_residuals(self) -> np.ndarray:
        return np.array([np.nan if r.true_residual is None else r.true_residual
                         for r in self.rows])


@dataclass
class SolveResult:
    """Outcome of one solver run.

    ``x``/``y`` is the iterate of the monitored method at termination.  Once
    gpbilq/gpbicg has run a step it also fills ``x_l``/``y_l`` (the
    minimum-norm iterate) and ``x_c``/``y_c`` (the transfer iterate if it
    exists at the final step, else None).
    """

    x: np.ndarray
    y: np.ndarray
    iterations: int
    reason: str
    residual: float
    record: ConvergenceRecord
    breakdown: object | None = None
    x_l: np.ndarray | None = None
    y_l: np.ndarray | None = None
    x_c: np.ndarray | None = None
    y_c: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.reason == CONVERGED


def _solve(sys: PartitionedSystem, state, tol: float, maxit: int | None,
           explicit_residual: bool) -> SolveResult:
    """The loop behind every public solve function.

    ``state`` is the BreakdownReport of a process that could not start, or
    a method state with: ``k`` (iterations done), ``advance()``,
    ``estimate()`` (the monitored residual, None where the monitored iterate
    does not exist), ``iterate()`` (its x, y), ``stopped`` (the process can
    build nothing more), ``tracks_transfer`` (rows record whether the
    iterate existed), ``settle_breakdown(tol)`` (True if a stopped run
    converged after all) and ``result(reason, residual, record)``.

    The record starts with a k=0 row at the initial residual norm; each
    iteration is tested converged, then nonfinite (the monitored residual is
    NaN or infinite), then breakdown, then maxit.  With
    ``explicit_residual`` the true residual is recorded next to the
    estimate and replaces it in the stopping test.  Where the process
    stopped, a met estimate counts only if the true residual meets tol too
    (a dead pair's scalars vanish from the estimate); a zero pivot in a
    sliding factorization ends the run with ``breakdown`` on the last
    completed iterate.  Both exits report the true residual.
    """
    if maxit is None:
        maxit = 2 * (sys.m + sys.n)
    if maxit < 0:
        raise ValueError(f"maxit must be >= 0, got {maxit}")
    t0 = time.perf_counter()
    rhs_norm = sys.rhs_norm
    record = ConvergenceRecord()
    record.append(0, rhs_norm, rhs_norm if explicit_residual else None,
                  elapsed=time.perf_counter() - t0)
    report = state if isinstance(state, BreakdownReport) else None
    if report is not None or maxit == 0:
        reason = MAXIT if report is None else BREAKDOWN
        record.finalize(reason)
        return SolveResult(np.zeros(sys.m), np.zeros(sys.n), 0, reason,
                           rhs_norm, record, breakdown=report)
    while True:
        try:
            state.advance()
        except SingularWindowError:
            record.finalize(BREAKDOWN)
            out = state.result(BREAKDOWN, math.nan, record)
            out.residual = residual_norm(sys, out.x, out.y)
            return out
        est = state.estimate()
        true = None
        if explicit_residual and est is not None:
            true = residual_norm(sys, *state.iterate())
        res = true if explicit_residual else est
        record.append(state.k, np.nan if est is None else est, true,
                      (est is not None) if state.tracks_transfer else None,
                      time.perf_counter() - t0)
        if state.stopped and true is None and res is not None and res <= tol:
            true = residual_norm(sys, *state.iterate())
            res = res if true <= tol else true
        if res is not None and res <= tol:
            reason = CONVERGED
        elif res is not None and not math.isfinite(res):
            reason = NONFINITE
        elif state.stopped:
            reason = CONVERGED if state.settle_breakdown(tol) else BREAKDOWN
        elif state.k >= maxit:
            reason = MAXIT
        else:
            continue
        record.finalize(reason)
        return state.result(reason, res, record)
