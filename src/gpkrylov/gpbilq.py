"""GPBiLQ and GPBiCG: short-recurrence solvers for partitioned systems.

GPBiLQ defines its iterate through the minimum-norm solution of the
underdetermined projected system (first 2k-2 rows of the projected
block-tridiagonal matrix), computed with a sliding LQ factorization whose
orthogonal factor is a product of two-column rotation bundles.  The lower
factor has bandwidth 4; one forward-substitution pair and one four-column
direction update advance the iterate per step.

GPBiCG solves the square projected system instead.  Its iterate need not
exist at every step; when the trailing 2x2 of the LQ factor is nonsingular
it is obtained from the GPBiLQ iterate with one extra rotation and one
two-column matmul per side.

The steady-state loop performs exactly four operator applications per
iteration and keeps a fixed working set of eleven m-vectors and eleven
n-vectors: the iterate, two reduction basis pairs and two (len x 3)
direction blocks per side; the transfer iterate adds one vector per side
once formed, and the reduction holds its last operator results.  Each
side's direction update and iterate increment are one matmul; no fresh
length-m/n arrays are allocated after startup.
"""

from __future__ import annotations

import numpy as np

from .convergence import CONVERGED, SolveResult, _solve
from .linop import PartitionedSystem, residual_norm
from .reduction import (BreakdownReport, StepCoeffs, reduction_init,
                        reduction_step)
from .rotations import (Band, SingularWindowError, bundle_product,
                        plane_rotation, rotation_block, rotation_bundle)

__all__ = [
    "LQWindow",
    "BiLQState",
    "lq_window_init",
    "lq_step",
    "substitute_step",
    "transfer_scalars",
    "rotation_block",
    "dense_lq_factors",
    "dense_gk",
    "gpbilq_solve",
]


class LQWindow:
    """Sliding data of the banded LQ factorization.

    Band entries are indexed by row: row j holds (xi_j, zeta_j, omega_j,
    nu_j, rho_j) in columns j-4..j.  ``i`` counts completed rotation
    bundles; the seven carry scalars describe the not-yet-finalized trailing
    2x2 corner and its two trailing columns.  Rotation cosine/sine quadruples
    are retained per bundle (scalars only) for the residual estimates and for
    dense reconstruction.
    """

    __slots__ = ("lam", "mu", "i", "rho", "nu", "omega", "zeta", "xi",
                 "rotations", "c_rho1", "c_alpha", "c_nu1", "c_rho2",
                 "c_omega", "c_nu2", "c_zeta")

    def __init__(self, lam, mu):
        self.lam = float(lam)
        self.mu = float(mu)
        self.i = 0
        self.rho = Band(1)
        self.nu = Band(2)
        self.omega = Band(3)
        self.zeta = Band(4)
        self.xi = Band(5)
        self.rotations: list[tuple] = []


def lq_window_init(lam, mu, alpha1, theta1, beta2, delta2) -> LQWindow:
    """Seed the carries from the first diagonal block and coupling pair."""
    w = LQWindow(lam, mu)
    w.c_rho1 = float(lam)
    w.c_alpha = float(alpha1)
    w.c_nu1 = float(theta1)
    w.c_rho2 = float(mu)
    w.c_omega = 0.0
    w.c_nu2 = float(beta2)
    w.c_zeta = float(delta2)
    return w


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

    w.rho.push(rho_odd)       # row 2i-1
    w.rho.push(rho_even)      # row 2i
    w.nu.push(nu_even)        # row 2i
    w.nu.push(nu_odd)         # row 2i+1
    w.omega.push(omega_odd)   # row 2i+1
    w.omega.push(omega_even)  # row 2i+2
    w.zeta.push(zeta_even)    # row 2i+2
    w.zeta.push(zeta_odd)     # row 2i+3
    w.xi.push(xi_odd)         # row 2i+3
    w.xi.push(xi_even)        # row 2i+4

    w.c_rho1, w.c_alpha, w.c_nu1, w.c_rho2 = rho_bar_odd, alpha_bar, nu_bar1, rho_bar_even
    w.c_omega, w.c_nu2, w.c_zeta = omega_bar, nu_bar2, zeta_bar
    w.rotations.append((c1, s1, c2, s2, c3, s3, c4, s4))
    w.i = i


def _row_rest(w: LQWindow, varpi: Band, r, beta1, delta1) -> float:
    """rhs_r - xi_r w_{r-4} - zeta_r w_{r-3} - omega_r w_{r-2} of row r."""
    rhs = beta1 if r == 1 else delta1 if r == 2 else 0.0
    return (rhs - w.xi[r] * varpi[r - 4] - w.zeta[r] * varpi[r - 3]
            - w.omega[r] * varpi[r - 2])


def substitute_step(w: LQWindow, varpi: Band, beta1, delta1) -> tuple[float, float]:
    """Forward-substitute the next two entries of the banded lower solve.

    Row r resolves as (rhs_r - xi_r w_{r-4} - zeta_r w_{r-3} - omega_r w_{r-2}
    - nu_r w_{r-1}) / rho_r with out-of-range terms zero.
    """
    out = []
    for _ in range(2):
        r = varpi.last_index + 1
        rho_r = w.rho[r]
        if rho_r == 0.0:
            raise SingularWindowError(f"zero diagonal {r} in forward substitution")
        val = (_row_rest(w, varpi, r, beta1, delta1)
               - w.nu[r] * varpi[r - 1]) / rho_r
        varpi.push(val)
        out.append(val)
    return out[0], out[1]


def transfer_scalars(w: LQWindow, varpi: Band, beta1, delta1):
    """Rotation and substitution scalars for the square-system iterate.

    Returns (c_k, s_k, w_odd, w_even) for the current step k = i+1, or None
    when the trailing 2x2 determinant is at most 1e-13 of its two products
    (iterate does not exist).
    """
    rb1, ab, nb1, rb2 = w.c_rho1, w.c_alpha, w.c_nu1, w.c_rho2
    det = rb1 * rb2 - ab * nb1
    if abs(det) <= 1e-13 * (abs(rb1 * rb2) + abs(ab * nb1)):
        return None
    c_k, s_k, rho_dd1 = plane_rotation(rb1, ab)
    nu_dd = c_k * nb1 + s_k * rb2
    rho_dd2 = -s_k * nb1 + c_k * rb2
    k = w.i + 1
    r1, r2 = 2 * k - 1, 2 * k
    w_odd = (_row_rest(w, varpi, r1, beta1, delta1)
             - w.nu[r1] * varpi[r1 - 1]) / rho_dd1
    w_even = (_row_rest(w, varpi, r2, beta1, delta1) - nu_dd * w_odd) / rho_dd2
    return c_k, s_k, w_odd, w_even


# -- dense reconstruction (verification support) ----------------------------


def dense_gk(w: LQWindow) -> np.ndarray:
    """Accumulated 2k x 2k product of the k-1 rotation bundles (k = i+1)."""
    return bundle_product(w.rotations, 2 * w.i + 2)


def dense_lq_factors(w: LQWindow) -> tuple[np.ndarray, np.ndarray]:
    """(L~, Q~) of the square projected matrix at the current step k = i+1.

    L~ is lower banded(4) except for its rotated trailing 2x2 corner and Q~
    is orthogonal; their product reproduces the projected matrix.
    """
    k = w.i + 1
    dim = 2 * k
    c_k, s_k, rho_dd1 = plane_rotation(w.c_rho1, w.c_alpha)
    nu_dd = c_k * w.c_nu1 + s_k * w.c_rho2
    rho_dd2 = -s_k * w.c_nu1 + c_k * w.c_rho2
    L = np.zeros((dim, dim))
    for r in range(1, dim + 1):
        for name, off in (("xi", 4), ("zeta", 3), ("omega", 2), ("nu", 1), ("rho", 0)):
            col = r - off
            if col < 1 or col > dim:
                continue
            if r >= dim - 1 and col >= dim - 1:
                continue  # trailing corner handled below
            band = getattr(w, name)
            if col <= 2 * (k - 1):
                L[r - 1, col - 1] = band[r]
    L[dim - 2, dim - 2] = rho_dd1
    L[dim - 1, dim - 2] = nu_dd
    L[dim - 1, dim - 1] = rho_dd2
    gt = np.eye(dim)
    gt[dim - 2:, dim - 2:] = np.array([[c_k, -s_k], [s_k, c_k]])
    Q = (dense_gk(w) @ gt).T
    return L, Q


# -- solver ------------------------------------------------------------------


class BiLQState:
    """Single-owner solver state: reduction window, LQ window, directions.

    Each side's live directions form one Fortran-ordered block, ``fx``
    (m x 3) and ``fy`` (n x 3): columns 0 and 1 hold the provisional pair
    carried to the next step, and column 2 takes the newest basis vector
    while a step runs.  One matmul per side writes the next provisional pair
    and the iterate increment into the spare block ``gx``/``gy``, and the
    blocks swap; the retired pair is never formed.  ``monitor`` picks the
    iterate the solve loop follows: the minimum-norm one ("l") or the
    square-system one ("c").
    """

    def __init__(self, sys: PartitionedSystem, red, monitor: str = "l"):
        m, n = sys.m, sys.n
        self.sys = sys
        self.red = red
        self.monitor = monitor
        self.tracks_transfer = monitor == "c"
        self.settled = None  # true residual of the transfer iterate at a breakdown
        self.window = None
        self.varpi = Band(1)
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
        self.transfer = None      # (c_k, s_k, w_odd, w_even) at current step
        self.x_c = None
        self.y_c = None

    def startup(self) -> StepCoeffs:
        """Run reduction step 1 and seed the LQ carries (solver step k=1)."""
        coeffs = reduction_step(self.red, self.sys)
        self.window = lq_window_init(self.sys.lam, self.sys.mu,
                                     coeffs.alpha, coeffs.theta,
                                     coeffs.beta_next, coeffs.delta_next)
        self.coeffs = coeffs
        return coeffs

    def advance(self) -> StepCoeffs:
        """One solver step: ``startup`` at k=1, else reduction, bundle,
        substitution, direction update and iterate update."""
        if self.window is None:
            return self.startup()
        red = self.red
        coeffs = reduction_step(red, self.sys)
        self.k = coeffs.k
        lq_step(self.window, coeffs.gamma_k, coeffs.eta_k,
                coeffs.alpha, coeffs.theta,
                coeffs.beta_next, coeffs.delta_next)
        w1, w2 = substitute_step(self.window, self.varpi,
                                 red.beta1, red.delta1)
        # the trailing 4x4 of the latest bundle mixes [ft1, ft2, q_k, u_k]
        r1, r2, rq, ru = rotation_bundle(self.window.rotations[-1])
        _mix(self.fx, self.gx, red.q_prev, (r1, r2, rq), w1, w2, self.coef)
        _mix(self.fy, self.gy, red.u_prev, (r1, r2, ru), w1, w2, self.coef)
        self.fx, self.gx = self.gx, self.fx
        self.fy, self.gy = self.gy, self.fy
        self.x += self.fx[:, 2]
        self.y += self.fy[:, 2]
        self.coeffs = coeffs
        self.transfer = None
        return coeffs

    def attempt_transfer(self) -> bool:
        """Compute the square-system iterate at the current step if it exists."""
        t = transfer_scalars(self.window, self.varpi,
                             self.red.beta1, self.red.delta1)
        if t is None:
            self.transfer = None
            return False
        c_k, s_k, w_odd, w_even = t
        ab = (c_k * w_odd - s_k * w_even, s_k * w_odd + c_k * w_even)
        if self.x_c is None:  # created on the first transfer
            self.x_c, self.y_c = np.zeros(self.sys.m), np.zeros(self.sys.n)
        np.matmul(self.fx[:, :2], ab, out=self.x_c)
        self.x_c += self.x
        np.matmul(self.fy[:, :2], ab, out=self.y_c)
        self.y_c += self.y
        self.transfer = t
        return True

    # -- residual estimates -------------------------------------------------

    def _z_tail(self):
        """Last four entries of the expanded minimum-norm solution: the last
        two bundles applied to the trailing substitution entries."""
        k, varpi, rots = self.k, self.varpi, self.window.rotations
        z3, z4, z5, z6 = rotation_bundle(
            rots[-1], (varpi[2 * k - 3], varpi[2 * k - 2], 0.0, 0.0))
        if k >= 3:
            _, _, z3, z4 = rotation_bundle(
                rots[-2], (varpi[2 * k - 5], varpi[2 * k - 4], z3, z4))
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
        c_k, s_k, w_odd, w_even = self.transfer
        a = c_k * w_odd - s_k * w_even
        b = s_k * w_odd + c_k * w_even
        if self.k >= 2:
            _, _, z_odd, z_even = rotation_bundle(
                self.window.rotations[-1],
                (self.varpi[2 * self.k - 3], self.varpi[2 * self.k - 2], a, b))
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
        return (self.x, self.y) if self.monitor == "l" else (self.x_c, self.y_c)

    def settle_breakdown(self, tol) -> bool:
        """A lucky breakdown makes the square-system iterate exact; try it as
        a last resort even when it was not monitored."""
        if not self.attempt_transfer():
            return False
        self.settled = residual_norm(self.sys, self.x_c, self.y_c)
        return self.settled <= tol

    def result(self, reason, residual, record) -> SolveResult:
        """The monitored iterate, or the transfer iterate of a breakdown
        rescue; gpbicg falls back to the minimum-norm iterate (with its true
        residual) when the square-system one does not exist at the end."""
        x, y = self.x, self.y
        x_c = y_c = None
        if self.transfer is not None:
            x_c, y_c = self.x_c, self.y_c
        rescued = reason == CONVERGED and self.settled is not None
        if x_c is not None and (self.monitor == "c" or rescued):
            x, y = x_c, y_c
            if self.settled is not None:
                residual = self.settled
        elif self.monitor == "c":  # no square-system iterate at the final step
            residual = residual_norm(self.sys, x, y)
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
        skipped at steps where it does not exist).  The square-system
        iterate is computed each step only when monitored; on breakdown it
        is attempted either way, since a lucky breakdown makes it exact.
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


def _mix(block, spare, basis, rows, w1, w2, coef):
    """spare = block @ coef after the basis vector is copied into column 2.

    ``rows`` are the bundle rows of the three source columns; their entries
    0..3 mix into (f1, f2, ft1', ft2').  Only ft1', ft2' and the increment
    w1 f1 + w2 f2 (its only use) are written.
    """
    block[:, 2] = basis
    coef[...] = [(r[2], r[3], w1 * r[0] + w2 * r[1]) for r in rows]
    np.matmul(block, coef, out=spare)
