"""GPBiLQ and GPBiCG: short-recurrence solvers for partitioned systems.

GPBiLQ defines its iterate through the minimum-norm solution of the
underdetermined projected system (first 2k-2 rows of the projected
block-tridiagonal matrix), computed with a sliding LQ factorization whose
orthogonal factor is a product of two-column rotation bundles.  The LQ is
gpqmr's sliding QR (``rotations.BandWindow``) run on the transposed
projection, and the lower factor is the transposed upper one, of bandwidth
4; one forward-substitution pair per step and one four-column direction
update per two steps advance the iterate.

GPBiCG solves the square projected system instead.  Its iterate need not
exist at every step; when the trailing 2x2 of the LQ factor is nonsingular
it is obtained from the GPBiLQ iterate with one extra rotation, and formed
only where it is read, by the kernel of the direction updates.  GPBiLQ
follows the smaller of the two iterates' closed-form residual norms.

The steady-state loop performs exactly four operator applications per
iteration, whose results are its only length-m/n allocations after startup,
and keeps seven m-vectors and seven n-vectors: the iterate, a basis pair and a
(len x 4) block per side whose end columns hold the other pair, plus a scratch
whose first direction-update strip of rows alone is touched; the transfer
iterate adds one vector per side, allocated on its first read.  Two steps'
direction updates and iterate increments are one matmul per row strip of a
side (``reduction.mix``).  The scalars are fixed in size: the window keeps
two factor columns, one rotation bundle and its carries, and the state the
bundle before it and four substitution entries.
"""

from __future__ import annotations

import math

import numpy as np

from .convergence import SolveResult, _solve
from .linop import PartitionedSystem
from .reduction import RecurrenceState, StepCoeffs, commit, mix, reduction_step
# rotation_block is not called here: the benchmark tracer reads gpbilq.rotation_block
from .rotations import BandWindow, rotation_block, rotation_bundle, substitute_pair

__all__ = [
    "BiLQState",
    "lq_step",
    "substitute_step",
    "transfer_scalars",
    "gpbilq_solve",
]


def lq_step(w: BandWindow, gamma_k, eta_k, alpha_k, theta_k,
            beta_next, delta_next) -> None:
    """Advance the LQ factorization by one step: the window's early and
    late stage of bundle k-1 on the transposed projection.

    Consumes the index-k couplings gamma_k, eta_k, the step-k diagonal
    entries alpha_k, theta_k and the freshly produced index-k+1 couplings.
    At k = 1 only the late stage runs, seeding the hand-off.
    """
    # the transpose swaps alpha<->theta, beta<->eta and gamma<->delta
    if w.rb1 is not None:
        w.early(gamma_k, eta_k)
    w.late(theta_k, alpha_k, beta_next, delta_next)


def substitute_step(w: BandWindow, varpi, rhs) -> tuple:
    """Forward-substitute rows 2i-1 and 2i of the banded lower solve.

    ``varpi`` holds entries 2i-5..2i-2 and ``rhs`` the right-hand side's
    rows 2i-1 and 2i; returns entries 2i-3..2i.
    """
    return varpi[2:] + substitute_pair(w.cols, varpi, rhs)


def transfer_scalars(w: BandWindow, varpi, rhs):
    """Rotation and substitution scalars for the square-system iterate.

    ``varpi`` holds substitution entries 2i-3..2i and ``rhs`` the
    right-hand side's rows 2i+1 and 2i+2.  These rows of the square factor
    are the off-diagonal entries the late stage finished and the hand-off
    corner of L (``BandWindow.corner``).  Returns (c_k, s_k, w_odd, w_even)
    for the current step k = i+1, or None when the corner's determinant is
    at most 1e-13 of its two products (iterate does not exist).
    """
    rb1, tb, nb1, rb2 = w.rb1, w.tb, w.nb1, w.rb2
    det = rb1 * rb2 - tb * nb1
    if abs(det) <= 1e-13 * (abs(rb1 * rb2) + abs(tb * nb1)):
        return None
    c_k, s_k, *cols = w.corner()
    return (c_k, s_k) + substitute_pair(cols, varpi, rhs)


# -- solver ------------------------------------------------------------------


class BiLQState(RecurrenceState):
    """gpbilq's LQ policy on the shared recurrence state, four-column
    blocks per side (``reduction.RecurrenceState``, which owns the layout).

    Columns 1 and 2 of ``fx``/``fy`` hold the provisional pair carried to
    the next step, between the basis slots; the retired pair is never
    formed.  ``coeffs`` keeps the last step's scalars beside ``red``'s
    couplings, and ``unsubstituted`` the right-hand side (beta_1, delta_1)
    until the first substitution, then (0, 0).  ``monitor`` picks what the
    solve loop follows: the smaller residual of the two iterates ("l") or
    the square-system one ("c"), formed in ``x_c``/``y_c`` where it is read.
    """

    def __init__(self, sys: PartitionedSystem, monitor: str = "l"):
        if monitor not in ("l", "c"):
            raise ValueError("monitor must be 'l' or 'c'")
        super().__init__(sys, 4)
        self.monitor = monitor
        self.tracks_transfer = monitor == "c"
        self.rot_prev = None  # the bundle before the window's latest
        self.varpi = (0.0,) * 4  # the last four forward-substitution entries
        self.unsubstituted = (self.red.beta, self.red.delta)
        self.fx[:, 1], self.fy[:, 2] = self.red.q_cur, self.red.u_cur  # q_1|0, 0|u_1
        self.coeffs: StepCoeffs | None = None
        self.transfer = None  # transfer coefficients on the live pair, this step
        self.follows_c = False  # estimate() returned x_c's residual
        self.x_c = self.y_c = None

    def advance(self) -> StepCoeffs:
        """One solver step: reduction and window step, then past the k=1
        seeding substitution, direction update and iterate update."""
        red, w = self.red, self.window
        coeffs = reduction_step(red, self.sys, defer=True)
        self.rot_prev = w.rot
        lq_step(w, coeffs.gamma, coeffs.eta, coeffs.alpha, coeffs.theta,
                red.beta, red.delta)
        self.k, self.coeffs = self.k + 1, coeffs
        if w.i:
            self.varpi = substitute_step(w, self.varpi, self.unsubstituted)
            self.unsubstituted = (0.0, 0.0)
            _, _, w1, w2 = self.varpi
            # M, the latest bundle's trailing 4x4, mixes [ft1, ft2, q_k, u_k]
            # into (f1, f2, ft1', ft2'); f1, f2 are read only as w1 f1 + w2 f2;
            # built by a comprehension: list(zip) trips the retention audit
            self.update([r for r in zip(rotation_bundle(w.rot, (0.0, 0.0, 1.0, 0.0)),
                                        rotation_bundle(w.rot, (0.0, 0.0, 0.0, 1.0)),
                                        rotation_bundle(w.rot, (w1, w2, 0.0, 0.0)))])
            self.transfer = None
        commit(red)
        return coeffs

    def attempt_transfer(self) -> bool:
        """The square-system iterate's two coefficients on the live pair at
        the current step, if it exists (``transfer_iterate`` forms it)."""
        t = transfer_scalars(self.window, self.varpi, self.unsubstituted)
        if t is None:
            self.transfer = None
            return False
        c_k, s_k, w_odd, w_even = t
        self.transfer = (c_k * w_odd - s_k * w_even, s_k * w_odd + c_k * w_even)
        return True

    def transfer_iterate(self):
        """Form x_c, y_c (allocated on first use): x + live pair @ transfer
        per side, one ``mix`` with no dead directions."""
        self.flush()
        if self.x_c is None:
            self.x_c, self.y_c = np.empty(self.sys.m), np.empty(self.sys.n)
        coef = np.reshape(self.transfer, (2, 1))
        for (f, _, s, it, _), out in zip(self.views, (self.x_c, self.y_c)):
            out[...] = it
            mix(f[:, 1:3], f[:, :0], s[:, :1], out, coef)
        return self.x_c, self.y_c

    # -- residual estimates -------------------------------------------------

    def _z_tail(self):
        """Last four entries of the expanded minimum-norm solution: the last
        two bundles applied to the trailing substitution entries (at k = 2
        the bundle before is the window's bundle 0, the identity)."""
        v1, v2, v3, v4 = self.varpi
        z3, z4, z5, z6 = rotation_bundle(self.window.rot, (v3, v4, 0.0, 0.0))
        _, _, z3, z4 = rotation_bundle(self.rot_prev, (v1, v2, z3, z4))
        return z3, z4, z5, z6

    def estimate_residual_l(self) -> float:
        """Residual norm of the current minimum-norm iterate (k >= 2),
        recovered exactly from window scalars and four basis-vector norms."""
        if self.k < 2:
            raise ValueError("residual estimate needs at least one full step")
        co = self.coeffs
        lam, mu = self.sys.lam, self.sys.mu
        z3, z4, z5, z6 = self._z_tail()
        red = self.red
        vartheta = co.beta * z4 + lam * z5 + co.alpha * z6
        varrho = co.delta * z3 + co.theta * z5 + mu * z6
        chi = red.beta * z6
        varsigma = red.delta * z5
        qq = float(red.q_prev.dot(red.q_cur))
        uu = float(red.u_prev.dot(red.u_cur))
        q_part = (vartheta * red.q_prev_norm) ** 2 \
            + 2.0 * vartheta * chi * qq + (chi * red.q_norm) ** 2
        u_part = (varrho * red.u_prev_norm) ** 2 \
            + 2.0 * varrho * varsigma * uu + (varsigma * red.u_norm) ** 2
        return math.sqrt(max(q_part, 0.0) + max(u_part, 0.0))

    def estimate_residual_c(self) -> float:
        """Residual norm of the square-system iterate at the current step
        (at k = 1 the window's bundle is bundle 0, the identity)."""
        if self.transfer is None:
            raise ValueError("transfer iterate is not defined at this step")
        a, b = self.transfer
        _, _, z_odd, z_even = rotation_bundle(self.window.rot,
                                              (*self.varpi[2:], a, b))
        red = self.red
        chi_t = red.beta * z_even
        varsigma_t = red.delta * z_odd
        return float(np.hypot(chi_t * red.q_norm, varsigma_t * red.u_norm))

    # -- solve-loop protocol (see convergence._solve) ------------------------

    def estimate(self) -> float | None:
        """The monitored residual, x_c's ("c", None where x_c does not exist)
        or the smaller of x_l's and x_c's ("l"); ``follows_c`` says whose."""
        est_c = self.estimate_residual_c() if self.attempt_transfer() else None
        if self.monitor == "c":
            self.follows_c = est_c is not None
            return est_c
        est_l = self.sys.rhs_norm if self.k < 2 else self.estimate_residual_l()
        self.follows_c = est_c is not None and est_c < est_l
        return est_c if self.follows_c else est_l

    def iterate(self):
        """The iterate whose estimate ``estimate()`` returned: x_c or x_l."""
        return self.transfer_iterate() if self.follows_c else super().iterate()

    def rescue(self):
        """The iterate ``iterate()`` passed over, or None: x_l after x_c, else
        x_c where it exists (exact at gpbilq's lucky breakdown)."""
        if self.follows_c:
            return super().iterate()
        return None if self.transfer is None else self.transfer_iterate()

    def result(self, x, y, reason, residual, record) -> SolveResult:
        res = super().result(x, y, reason, residual, record)
        res.x_l, res.y_l = self.x, self.y
        if self.transfer is not None:  # iterate() may have formed an older one
            res.x_c, res.y_c = (x, y) if x is self.x_c else self.transfer_iterate()
        return res


def gpbilq_solve(sys: PartitionedSystem, tol: float = 1e-8,
                 maxit: int | None = None, monitor: str = "l",
                 explicit_residual: bool = False) -> SolveResult:
    """Run the solver until the monitored residual drops below tol.

    Parameters
    ----------
    monitor : {"l", "c"}
        What drives the stopping test: gpbilq ("l") follows the smaller of
        the two closed-form residuals at every step, of the minimum-norm
        iterate and of the square-system iterate where it exists, and
        returns that iterate; gpbicg ("c") follows the square-system iterate,
        skipped at steps where it does not exist.  At a stopped step the
        solve also tries the other iterate (a lucky breakdown makes the
        transfer iterate exact) and returns the better one.
    explicit_residual : bool
        Evaluate true residuals of the monitored iterate each iteration and
        stop on them (two extra operator applications per step); otherwise
        the exact closed-form estimates are used.

    Iteration counting follows the reduction index: iteration k=1 is the
    startup step whose minimum-norm iterate is zero.  The record starts with
    a k=0 row holding the initial residual norm.
    """
    return _solve(sys, BiLQState(sys, monitor), tol, maxit, explicit_residual)

