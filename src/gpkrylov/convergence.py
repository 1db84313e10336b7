"""Per-iteration convergence records, the common solve result, and the
solve loop that every method runs."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linop import PartitionedSystem, check_count, residual_norm
from .rotations import SingularWindowError

__all__ = ["IterationRow", "ConvergenceRecord", "SolveResult",
           "CONVERGED", "MAXIT", "BREAKDOWN", "NONFINITE"]

CONVERGED = "converged"
MAXIT = "maxit"
BREAKDOWN = "breakdown"
NONFINITE = "nonfinite"


@dataclass(slots=True)
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
        self.rows.append(IterationRow(int(k), float(est_residual),
                                      None if true_residual is None else float(true_residual),
                                      transfer_defined, float(elapsed)))

    def est_residuals(self) -> np.ndarray:
        return np.array([r.est_residual for r in self.rows])


@dataclass(eq=False)
class SolveResult:
    """Outcome of one solver run.

    ``x``/``y`` is the iterate the solve loop chose at termination.
    gpbilq/gpbicg also fills ``x_l``/``y_l`` at every exit (the
    minimum-norm iterate, zero before a first step) and ``x_c``/``y_c``
    (the transfer iterate if it exists at the final step, else None); ``x``
    is one of the two.
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


@np.errstate(all="ignore")
def _solve(sys: PartitionedSystem, make_state, tol: float, maxit: int | None,
           explicit_residual: bool) -> SolveResult:
    """The loop behind every public solve function, and the one place that
    decides what an exit returns and reports.

    ``make_state()`` builds the method state once ``maxit`` and ``tol`` are
    checked.  The state steps, estimates and offers iterates:
    ``k`` (iterations done), ``advance()``, ``estimate()`` (the monitored
    residual, None where the monitored iterate does not exist),
    ``iterate()`` (the x, y an exit returns), ``stopped`` (the process can
    build nothing more, already at the start where it cannot start),
    ``tracks_transfer`` (rows record whether the iterate existed),
    ``rescue()`` (the other iterate the state holds, or None) and
    ``result(x, y, reason, residual, record)``, which builds every exit's
    SolveResult.

    The record starts with a k=0 row at ||[b; c]||; ``explicit_residual``
    records the true residual too and stops on it.  Exit rule: a run ends
    as breakdown where the process stopped or a window pivot vanished, else
    as converged, nonfinite or maxit by its residual (maxit at once for
    ``maxit`` 0).  Where the loop trusts no residual (a breakdown after a
    first step, a missing estimate) the exit reports the true residual of
    ``iterate()``; a stopped step after the first whose residual is finite
    and above tol also certifies the other iterate the state holds and
    returns the better one.  A breakdown whose reported residual meets tol
    is converged, and one whose residual is not finite is nonfinite.
    numpy's floating-point warnings are off throughout, so an overflow or
    an invalid operation does not raise; where it makes the residual
    non-finite, the run ends nonfinite.
    """
    maxit = 2 * (sys.m + sys.n) if maxit is None else check_count(maxit, "maxit", 0)
    if not tol >= 0:  # NaN fails this too; 0 and inf are valid
        raise ValueError(f"tol must be >= 0, got {tol}")
    state = make_state()
    t0 = time.perf_counter()
    rhs_norm = sys.rhs_norm

    def certificate(x, y):  # true residual; ||[b; c]|| for the zero iterate
        return residual_norm(sys, x, y) if x.any() or y.any() else rhs_norm
    record = ConvergenceRecord()
    record.append(0, rhs_norm, rhs_norm if explicit_residual else None,
                  elapsed=time.perf_counter() - t0)
    reason = BREAKDOWN if state.stopped else MAXIT if maxit == 0 else None
    res = rhs_norm
    while reason is None:
        try:
            state.advance()
        except SingularWindowError:
            reason, res = BREAKDOWN, None
            break
        est = state.estimate()
        true = None
        if explicit_residual and est is not None:
            true = certificate(*state.iterate())
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
    x, y = state.iterate()
    if res is None:
        res = certificate(x, y)
    if state.stopped and state.k and tol < res < math.inf:
        rescued = state.rescue()
        cert = math.inf if rescued is None else certificate(*rescued)
        if cert < res:
            (x, y), res = rescued, cert
    if reason == BREAKDOWN:
        reason = (CONVERGED if res <= tol else BREAKDOWN if math.isfinite(res)
                  else NONFINITE)
    record.reason = reason
    return state.result(x, y, reason, res, record)
