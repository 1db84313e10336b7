"""GPQMR: quasi-minimum-residual solver for partitioned systems.

The iterate minimizes the projected residual norm over the interleaved
subspace, computed through the sliding banded QR factorization of the
projected block-tridiagonal matrix (``rotations.BandWindow``), each step
running one bundle's late stage and the next bundle's early stage.  Each
step forms two directions from the last four (a depth-4 back-recurrence
whose coefficients are gpbilq's substitution step on unit inputs) in the
block layout and kernel it shares with gpbilq, two steps per pass
(``reduction.RecurrenceState``); per side nine vectors, the iterate, a basis
pair and a six-column block of the other pair's two slots around the four
directions, and a five-column scratch touched in one direction-update strip.
"""

from __future__ import annotations

import numpy as np

from .convergence import SolveResult, _solve
from .linop import PartitionedSystem
from .reduction import RecurrenceState, commit, reduction_step
from .rotations import BandWindow, rotation_bundle_transposed, substitute_pair

__all__ = [
    "QMRState",
    "qr_step",
    "rotate_rhs",
    "gpqmr_solve",
]

# substitution inputs, one per direction-block column: d_{2k-5}..d_{2k-2}
# (entries r-4..r-1), then q_k and u_k (right-hand-side rows r and r+1)
_UNIT_INPUTS = [(e[:4], e[4:]) for e in
                [tuple(float(i == j) for j in range(6)) for i in range(6)]]


def qr_step(w: BandWindow, alpha_k, theta_k, beta_next, delta_next,
            gamma_next, eta_next) -> None:
    """Advance the factorization by one step of the underlying reduction.

    Completes the previous bundle's rows with the step-k diagonal entries
    and index-k+1 superdiagonal couplings (late stage), then builds the new
    bundle with the index-k+1 subdiagonal couplings (early stage).
    """
    w.late(alpha_k, theta_k, eta_next, gamma_next)
    w.early(delta_next, beta_next)


def rotate_rhs(w: BandWindow, carry: tuple[float, float]):
    """Apply the newest bundle, transposed, to the right-hand-side window.

    Returns (w_odd, w_even, carry_odd, carry_even): the two finalized entries
    for the triangular solve and the carries whose norm is the current
    quasi-residual.
    """
    return rotation_bundle_transposed(w.rot, (*carry, 0.0, 0.0))


class QMRState(RecurrenceState):
    """gpqmr's QR policy on the shared recurrence state, six-column blocks
    per side (``reduction.RecurrenceState``, which owns the layout), and
    the rotated right-hand side.

    Columns 1..4 of ``fx``/``fy`` hold the last four directions d_{2k-5}
    .. d_{2k-2} before step k (zero below index 1); ``update`` writes
    d_{2k-1}, d_{2k} over the oldest two.  The rotated right-hand side
    ``rhs`` starts from the reduction's beta_1, delta_1 as its carries.
    """

    def __init__(self, sys: PartitionedSystem):
        super().__init__(sys, 6)
        # rotated right-hand side: the two entries the last step finalized,
        # then the two carries whose norm is the quasi-residual
        self.rhs = (0.0, 0.0, self.red.beta, self.red.delta)
        self.quasi = float(np.hypot(*self.rhs[2:]))

    def advance(self):
        """One solver step: reduction, staged bundle, rhs rotation,
        direction back-recurrence, iterate update."""
        red, w = self.red, self.window
        coeffs = reduction_step(red, self.sys, defer=True)
        qr_step(w, coeffs.alpha, coeffs.theta, red.beta, red.delta, red.gamma,
                red.eta)
        self.k += 1
        self.rhs = rotate_rhs(w, self.rhs[2:])
        w1, w2, b3, b4 = self.rhs
        self.quasi = float(np.hypot(b3, b4))

        ab = [substitute_pair(w.cols, v, rhs) for v, rhs in _UNIT_INPUTS]
        self.update([(a, b, w1 * a + w2 * b) for a, b in ab])
        commit(red)
        return coeffs

    def estimate(self) -> float:
        return self.quasi


def gpqmr_solve(sys: PartitionedSystem, tol: float = 1e-8,
                maxit: int | None = None,
                explicit_residual: bool = False) -> SolveResult:
    """Run GPQMR until the quasi-residual (or true residual) drops below tol.

    The quasi-residual is the projected least-squares residual norm; the true
    residual is bounded by it times the basis norm.  ``explicit_residual``
    evaluates and stops on true residuals instead (two extra operator
    applications per step), mirroring comparison-grade runs.
    """
    return _solve(sys, QMRState(sys), tol, maxit, explicit_residual)

