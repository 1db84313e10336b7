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


@dataclass
class SolveResult:
    """Outcome of one solver run.

    ``x``/``y`` is the iterate the solve loop chose at termination.  Once
    gpbilq/gpbicg has run a step it also fills ``x_l``/``y_l`` (the
    minimum-norm iterate) and ``x_c``/``y_c`` (the transfer iterate if it
    exists at the final step, else None).
    ``residual`` is that of ``x``/``y``: its true norm where the solve loop
    certified it (see ``_solve``), else the method's estimate.
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
    """The loop behind every public solve function, and the one place that
    decides what an exit returns and reports.

    ``state`` is the BreakdownReport of a process that could not start, or
    a method state that steps, estimates and offers iterates: ``k``
    (iterations done), ``advance()``, ``estimate()`` (the monitored
    residual, None where the monitored iterate does not exist),
    ``iterate()`` (the x, y an exit returns), ``stopped`` (the process can
    build nothing more), ``tracks_transfer`` (rows record whether the
    iterate existed), ``rescue()`` (another iterate for a stopped step, or
    None) and ``result(x, y, reason, residual, record)``.

    The record starts with a k=0 row at the initial residual norm.  An
    iteration ends the run as breakdown if the process stopped, else tests
    converged, nonfinite (NaN or infinite) and maxit in turn.  With
    ``explicit_residual`` the true residual is recorded next to the
    estimate and replaces it in the stopping test.

    Exit rule: the true residual of ``iterate()`` (its certificate)
    replaces an estimate that is missing or unreliable: at a stopped step
    (a dead pair's scalars vanish from it), a zero pivot in a sliding
    factorization and a gpbicg exit without its iterate.  A breakdown is
    converged or nonfinite by its certificate; failing both, a stopped step
    returns ``rescue()``'s iterate as converged if that meets tol.
    """
    if maxit is None:
        maxit = 2 * (sys.m + sys.n)
    if maxit < 0:
        raise ValueError(f"maxit must be >= 0, got {maxit}")
    t0 = time.perf_counter()
    rhs_norm = sys.rhs_norm

    def certificate(x, y):  # true residual; ||[b; c]|| for the zero iterate
        return residual_norm(sys, x, y) if x.any() or y.any() else rhs_norm
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
            reason, res = BREAKDOWN, None
            break
        est = state.estimate()
        true = None
        if explicit_residual and est is not None:
            true = residual_norm(sys, *state.iterate())
        res = true if explicit_residual else est
        record.append(state.k, np.nan if est is None else est, true,
                      (est is not None) if state.tracks_transfer else None,
                      time.perf_counter() - t0)
        if state.stopped:
            reason, res = BREAKDOWN, true
        elif res is not None and res <= tol:
            reason = CONVERGED
        elif res is not None and not math.isfinite(res):
            reason = NONFINITE
        elif state.k >= maxit:
            reason = MAXIT
        else:
            continue
        break
    x, y = state.iterate()
    if res is None:
        res = certificate(x, y)
    if reason == BREAKDOWN and res <= tol:
        reason = CONVERGED
    elif reason == BREAKDOWN and not math.isfinite(res):
        reason = NONFINITE
    elif reason == BREAKDOWN and state.stopped:
        rescued = state.rescue()
        cert = math.inf if rescued is None else certificate(*rescued)
        if cert <= tol:
            (x, y), res, reason = rescued, cert, CONVERGED
    record.finalize(reason)
    return state.result(x, y, reason, res, record)
