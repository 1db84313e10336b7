"""GPBiLQ and GPBiCG: short-recurrence solvers for partitioned systems.

GPBiLQ defines its iterate through the minimum-norm solution of the
underdetermined projected system (first 2k-2 rows of the projected
block-tridiagonal matrix), computed with a sliding LQ factorization whose
orthogonal factor is a product of two-column rotation bundles.  The lower
factor has bandwidth 4; one forward-substitution pair and one four-column
direction update advance the iterate per step.

GPBiCG solves the square projected system instead.  Its iterate need not
exist at every step; when the trailing 2x2 of the LQ factor is nonsingular
it is obtained from the GPBiLQ iterate with one extra rotation, and formed
only where it is read by one two-column matmul per row strip of a side.

The steady-state loop performs exactly four operator applications per
iteration and keeps a fixed working set of eleven m-vectors and eleven
n-vectors: the iterate, two reduction basis pairs and two (len x 3) direction
blocks per side; the transfer iterate adds one vector per side, allocated on
its first read.  Each side's direction update and iterate increment are one
matmul per row strip (``reduction.mix``); no fresh length-m/n arrays are
allocated after startup.  The scalar state is fixed in size too: the LQ window
keeps the six factor columns and two rotation bundles the recurrences read,
and the state the last four substitution entries.
"""

from __future__ import annotations

import numpy as np

from .convergence import SolveResult, _solve
from .linop import PartitionedSystem
from .reduction import (BreakdownReport, StepCoeffs, mix, reduction_init,
                        reduction_step, strips)
# rotation_block is not called here: the benchmark tracer reads gpbilq.rotation_block
from .rotations import (SingularWindowError, plane_rotation, rotation_block,
                        rotation_bundle)

__all__ = [
    "LQWindow",
    "BiLQState",
    "lq_step",
    "substitute_step",
    "transfer_scalars",
    "gpbilq_solve",
]


class LQWindow:
    """Sliding data of the banded LQ factorization, fixed in size.

    ``i`` counts completed rotation bundles; bundle i finalizes columns
    2i-1 and 2i of the lower factor, column c held as its five band entries
    (rho, nu, omega, zeta, xi) in rows c..c+4.  ``cols`` keeps columns
    2i-5..2i and ``rots`` the cosine/sine octets of bundles i-1 and i: all
    the recurrences read.  Columns below 1 are zero.  The seven carry
    scalars describe the not-yet-finalized trailing 2x2 corner and its two
    trailing columns.
    """

    __slots__ = ("lam", "mu", "i", "cols", "rots", "c_rho1", "c_alpha",
                 "c_nu1", "c_rho2", "c_omega", "c_nu2", "c_zeta")

    def __init__(self, lam, mu, alpha1, theta1, beta2, delta2):
        """Seed the carries from the first diagonal block and coupling pair."""
        self.lam = float(lam)
        self.mu = float(mu)
        self.i = 0
        self.cols = ((0.0,) * 5,) * 6
        self.rots = (None, None)
        self.c_rho1 = float(lam)
        self.c_alpha = float(alpha1)
        self.c_nu1 = float(theta1)
        self.c_rho2 = float(mu)
        self.c_omega = 0.0
        self.c_nu2 = float(beta2)
        self.c_zeta = float(delta2)

    def finalized(self):
        """Columns 2i-1, 2i and bundle i: what the latest lq_step finalized."""
        return self.cols[4], self.cols[5], self.rots[1]


def lq_step(w: LQWindow, gamma_k, eta_k, alpha_k, theta_k,
            beta_next, delta_next) -> None:
    """Apply the next four-rotation bundle, finalizing two band columns.

    Consumes the index-k coupling scalars gamma_k, eta_k, the step-k diagonal
    entries alpha_k, theta_k, and the freshly produced index-k+1 couplings.
    Raises SingularWindowError when a rotation denominator vanishes.
    """
    i = w.i + 1
    lam, mu = w.lam, w.mu
    rb1, ab, nb1, rb2 = w.c_rho1, w.c_alpha, w.c_nu1, w.c_rho2
    ob, nb2, zb = w.c_omega, w.c_nu2, w.c_zeta

    c1, s1, rho_t = plane_rotation(rb1, gamma_k)
    if rho_t == 0.0:
        raise SingularWindowError(f"zero pivot in rotation 1 of bundle {i}")
    nu_t = c1 * nb1
    t_i = -s1 * nb1
    omega_t = c1 * ob + s1 * alpha_k
    alpha_t = -s1 * ob + c1 * alpha_k
    zeta_t = c1 * zb + s1 * mu
    rho_t2 = -s1 * zb + c1 * mu
    xi_t = s1 * beta_next
    nu_t3 = c1 * beta_next

    c2, s2, rho_odd = plane_rotation(rho_t, ab)
    nu_even = c2 * nu_t + s2 * rb2
    rho_h = -s2 * nu_t + c2 * rb2
    omega_odd = c2 * omega_t + s2 * nb2
    nu_h = -s2 * omega_t + c2 * nb2
    zeta_even = c2 * zeta_t
    omega_h = -s2 * zeta_t
    xi_odd = c2 * xi_t
    zeta_h = -s2 * xi_t

    c3, s3, rho_c = plane_rotation(rho_h, t_i)
    if rho_c == 0.0:
        raise SingularWindowError(f"zero pivot in rotation 3 of bundle {i}")
    nu_c = c3 * nu_h + s3 * alpha_t
    alpha_bar = -s3 * nu_h + c3 * alpha_t
    omega_c = c3 * omega_h + s3 * rho_t2
    rho_bar_even = -s3 * omega_h + c3 * rho_t2
    zeta_c = c3 * zeta_h + s3 * nu_t3
    nu_bar2 = -s3 * zeta_h + c3 * nu_t3

    c4, s4, rho_even = plane_rotation(rho_c, eta_k)
    nu_odd = c4 * nu_c + s4 * lam
    rho_bar_odd = -s4 * nu_c + c4 * lam
    omega_even = c4 * omega_c + s4 * theta_k
    nu_bar1 = -s4 * omega_c + c4 * theta_k
    zeta_odd = c4 * zeta_c
    omega_bar = -s4 * zeta_c
    xi_even = s4 * delta_next
    zeta_bar = c4 * delta_next

    # local names follow the parity of the row; rows 2i-1..2i+3 of column
    # 2i-1, rows 2i..2i+4 of column 2i
    w.cols = w.cols[2:] + ((rho_odd, nu_even, omega_odd, zeta_even, xi_odd),
                           (rho_even, nu_odd, omega_even, zeta_odd, xi_even))
    w.c_rho1, w.c_alpha, w.c_nu1, w.c_rho2 = rho_bar_odd, alpha_bar, nu_bar1, rho_bar_even
    w.c_omega, w.c_nu2, w.c_zeta = omega_bar, nu_bar2, zeta_bar
    w.rots = (w.rots[1], (c1, s1, c2, s2, c3, s3, c4, s4))
    w.i = i


def _row_pair(cols, v, rhs, rho1, nu2, rho2):
    """Rows r, r+1 of the banded lower solve from columns r-4..r-1 and their
    entries ``v``: row r is (rhs_r - xi_r w_{r-4} - zeta_r w_{r-3} - omega_r
    w_{r-2} - nu_r w_{r-1}) / rho_r.  rho1, nu2 and rho2 are the pair's own
    diagonal entries and the subdiagonal between them."""
    c4, c3, c2, c1 = cols
    w1 = (rhs[0] - c4[4] * v[0] - c3[3] * v[1] - c2[2] * v[2] - c1[1] * v[3]) / rho1
    w2 = (rhs[1] - c3[4] * v[1] - c2[3] * v[2] - c1[2] * v[3] - nu2 * w1) / rho2
    return w1, w2


def substitute_step(w: LQWindow, varpi, beta1, delta1) -> tuple:
    """Forward-substitute rows 2i-1 and 2i of the banded lower solve.

    ``varpi`` holds entries 2i-5..2i-2; returns entries 2i-3..2i.
    """
    c = w.cols
    if c[4][0] == 0.0 or c[5][0] == 0.0:
        raise SingularWindowError(f"zero diagonal in substitution rows {2 * w.i - 1}-{2 * w.i}")
    rhs = (beta1, delta1) if w.i == 1 else (0.0, 0.0)
    return varpi[2:] + _row_pair(c[:4], varpi, rhs, c[4][0], c[4][1], c[5][0])


def transfer_scalars(w: LQWindow, varpi, beta1, delta1):
    """Rotation and substitution scalars for the square-system iterate.

    ``varpi`` holds substitution entries 2i-3..2i.  Returns (c_k, s_k,
    w_odd, w_even) for the current step k = i+1, or None when the trailing
    2x2 determinant is at most 1e-13 of its two products (iterate does not
    exist).
    """
    rb1, ab, nb1, rb2 = w.c_rho1, w.c_alpha, w.c_nu1, w.c_rho2
    det = rb1 * rb2 - ab * nb1
    if abs(det) <= 1e-13 * (abs(rb1 * rb2) + abs(ab * nb1)):
        return None
    c_k, s_k, rho_dd1 = plane_rotation(rb1, ab)
    nu_dd = c_k * nb1 + s_k * rb2
    rho_dd2 = -s_k * nb1 + c_k * rb2
    rhs = (beta1, delta1) if w.i == 0 else (0.0, 0.0)
    return (c_k, s_k) + _row_pair(w.cols[2:], varpi, rhs, rho_dd1, nu_dd, rho_dd2)


# -- solver ------------------------------------------------------------------


class BiLQState:
    """Single-owner solver state: reduction window, LQ window, directions.

    Each side's live directions form one Fortran-ordered block, ``fx``
    (m x 3) and ``fy`` (n x 3): columns 0 and 1 hold the provisional pair
    carried to the next step, and column 2 takes the newest basis vector
    while a step runs.  ``reduction.mix`` writes the next provisional pair
    and the iterate increment into the spare block ``gx``/``gy``, and the
    blocks swap; the retired pair is never formed.  ``monitor`` picks the
    iterate the solve loop follows: the minimum-norm one ("l") or the
    square-system one ("c"), formed in ``x_c``/``y_c`` where it is read.
    """

    def __init__(self, sys: PartitionedSystem, red, monitor: str = "l"):
        m, n = sys.m, sys.n
        self.sys = sys
        self.red = red
        self.monitor = monitor
        self.tracks_transfer = monitor == "c"
        self.window = None
        self.varpi = (0.0,) * 4  # the last four forward-substitution entries
        self.k = 1
        self.x = np.zeros(m)
        self.y = np.zeros(n)
        self.fx = np.zeros((m, 3), order="F")
        self.fy = np.zeros((n, 3), order="F")
        self.fx[:, 0] = red.q_cur
        self.fy[:, 1] = red.u_cur
        self.gx = np.empty((m, 3), order="F")
        self.gy = np.empty((n, 3), order="F")
        self.coef = np.empty((3, 3))
        self.coeffs: StepCoeffs | None = None
        self.transfer = None  # transfer coefficients on the live pair, this step
        self.x_c = None
        self.y_c = None

    def advance(self) -> StepCoeffs:
        """One solver step: reduction, then at k=1 the seeding of the LQ
        carries, else bundle, substitution, direction update and iterate
        update."""
        red = self.red
        coeffs = reduction_step(red, self.sys)
        if self.window is None:
            self.window = LQWindow(self.sys.lam, self.sys.mu,
                                   coeffs.alpha, coeffs.theta,
                                   coeffs.beta_next, coeffs.delta_next)
            self.coeffs = coeffs
            return coeffs
        lq_step(self.window, coeffs.gamma_k, coeffs.eta_k,
                coeffs.alpha, coeffs.theta,
                coeffs.beta_next, coeffs.delta_next)
        self.varpi = substitute_step(self.window, self.varpi,
                                     red.beta1, red.delta1)
        self.k = coeffs.k
        _, _, w1, w2 = self.varpi
        # the trailing 4x4 of the latest bundle mixes [ft1, ft2, q_k, u_k]
        # into (f1, f2, ft1', ft2'); only ft1', ft2' and the increment
        # w1 f1 + w2 f2 (its only use) are formed
        r1, r2, rq, ru = rotation_bundle(self.window.rots[1])
        for block, spare, basis, it, rb in ((self.fx, self.gx, red.q_prev, self.x, rq),
                                            (self.fy, self.gy, red.u_prev, self.y, ru)):
            self.coef[...] = [(r[2], r[3], w1 * r[0] + w2 * r[1]) for r in (r1, r2, rb)]
            mix(block, spare, basis, it, self.coef)
        self.fx, self.gx = self.gx, self.fx
        self.fy, self.gy = self.gy, self.fy
        self.coeffs = coeffs
        self.transfer = None
        return coeffs

    def attempt_transfer(self) -> bool:
        """The square-system iterate's two coefficients on the live pair at
        the current step, if it exists (``transfer_iterate`` forms it)."""
        t = transfer_scalars(self.window, self.varpi,
                             self.red.beta1, self.red.delta1)
        if t is None:
            self.transfer = None
            return False
        c_k, s_k, w_odd, w_even = t
        self.transfer = (c_k * w_odd - s_k * w_even, s_k * w_odd + c_k * w_even)
        return True

    def transfer_iterate(self):
        """Form x_c, y_c (allocated on first use): one strip pass per side."""
        if self.x_c is None:
            self.x_c, self.y_c = np.empty(self.sys.m), np.empty(self.sys.n)
        for side in ((self.fx, self.x_c, self.x), (self.fy, self.y_c, self.y)):
            for f, out, it in strips(*side):
                np.matmul(f[:, :2], self.transfer, out=out)
                out += it
        return self.x_c, self.y_c

    # -- residual estimates -------------------------------------------------

    def _z_tail(self):
        """Last four entries of the expanded minimum-norm solution: the last
        two bundles applied to the trailing substitution entries."""
        v1, v2, v3, v4 = self.varpi
        prev, last = self.window.rots
        z3, z4, z5, z6 = rotation_bundle(last, (v3, v4, 0.0, 0.0))
        if self.k >= 3:
            _, _, z3, z4 = rotation_bundle(prev, (v1, v2, z3, z4))
        return z3, z4, z5, z6

    def estimate_residual_l(self) -> float:
        """Residual norm of the current minimum-norm iterate (k >= 2),
        recovered exactly from window scalars and four basis-vector norms."""
        if self.k < 2:
            raise ValueError("residual estimate needs at least one full step")
        co = self.coeffs
        lam, mu = self.sys.lam, self.sys.mu
        z3, z4, z5, z6 = self._z_tail()
        vartheta = co.beta_k * z4 + lam * z5 + co.alpha * z6
        varrho = co.delta_k * z3 + co.theta * z5 + mu * z6
        chi = co.beta_next * z6
        varsigma = co.delta_next * z5
        red = self.red
        qq = float(red.q_prev @ red.q_cur)
        uu = float(red.u_prev @ red.u_cur)
        q_part = (vartheta * red.q_prev_norm) ** 2 \
            + 2.0 * vartheta * chi * qq + (chi * red.q_norm) ** 2
        u_part = (varrho * red.u_prev_norm) ** 2 \
            + 2.0 * varrho * varsigma * uu + (varsigma * red.u_norm) ** 2
        return float(np.sqrt(max(q_part, 0.0) + max(u_part, 0.0)))

    def estimate_residual_c(self) -> float:
        """Residual norm of the square-system iterate at the current step."""
        if self.transfer is None:
            raise ValueError("transfer iterate is not defined at this step")
        a, b = self.transfer
        if self.k >= 2:
            _, _, z_odd, z_even = rotation_bundle(
                self.window.rots[1], (*self.varpi[2:], a, b))
        else:
            z_odd, z_even = a, b
        co = self.coeffs
        chi_t = co.beta_next * z_even
        varsigma_t = co.delta_next * z_odd
        red = self.red
        return float(np.hypot(chi_t * red.q_norm, varsigma_t * red.u_norm))

    # -- solve-loop protocol (see convergence._solve) ------------------------

    @property
    def stopped(self) -> bool:
        return self.red.breakdown is not None

    def estimate(self) -> float | None:
        if self.monitor == "c":
            return self.estimate_residual_c() if self.attempt_transfer() else None
        return self.sys.rhs_norm if self.k < 2 else self.estimate_residual_l()

    def iterate(self):
        """The monitored iterate; gpbicg's is x_l where x_c does not exist."""
        if self.monitor == "c" and self.transfer is not None:
            return self.transfer_iterate()
        return self.x, self.y

    def rescue(self):
        """gpbilq's transfer iterate, exact at a lucky breakdown, or None."""
        if self.monitor == "l" and self.attempt_transfer():
            return self.transfer_iterate()
        return None

    def result(self, x, y, reason, residual, record) -> SolveResult:
        # where x_c exists, the loop's iterate() or rescue() has formed it
        x_c = y_c = None
        if self.transfer is not None:
            x_c, y_c = self.x_c, self.y_c
        return SolveResult(x, y, self.k, reason, float(residual), record,
                           breakdown=self.red.breakdown,
                           x_l=self.x, y_l=self.y, x_c=x_c, y_c=y_c)


def gpbilq_solve(sys: PartitionedSystem, tol: float = 1e-8,
                 maxit: int | None = None, monitor: str = "l",
                 explicit_residual: bool = False) -> SolveResult:
    """Run the solver until the monitored residual drops below tol.

    Parameters
    ----------
    monitor : {"l", "c"}
        Which iterate drives the stopping test: the always-defined
        minimum-norm iterate ("l") or the square-system iterate ("c",
        skipped at steps where it does not exist).  Its coefficients are
        found each step only when monitored; at a stopped step gpbilq tries
        it too, since a lucky breakdown makes it exact.
    explicit_residual : bool
        Evaluate true residuals of the monitored iterate each iteration and
        stop on them (two extra operator applications per step); otherwise
        the exact closed-form estimates are used.

    Iteration counting follows the reduction index: iteration k=1 is the
    startup step whose minimum-norm iterate is zero.  The record starts with
    a k=0 row holding the initial residual norm.
    """
    if monitor not in ("l", "c"):
        raise ValueError("monitor must be 'l' or 'c'")
    init = reduction_init(sys)
    state = (init if isinstance(init, BreakdownReport)
             else BiLQState(sys, init, monitor))
    return _solve(sys, state, tol, maxit, explicit_residual)

