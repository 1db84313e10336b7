"""GPQMR: quasi-minimum-residual solver for partitioned systems.

The iterate minimizes the projected residual norm over the interleaved
subspace, computed through a sliding QR factorization of the projected
block-tridiagonal matrix.  The upper factor has bandwidth 4; rotations
premultiply, arriving as four-rotation bundles that finalize two rows at a
time.  Direction vectors satisfy a depth-4 back-recurrence, so four retained
pairs plus the two being formed are live at any step.

Entries of the upper factor in columns beyond the current ones depend on
coupling coefficients that only become available one or two reduction steps
later; each bundle is therefore applied in two stages (an early stage that
fixes the rotations, diagonals and right-hand side, and a late stage that
completes the trailing-column entries once the next step's coefficients
exist).  The staging is exact, it only reorders scalar assignments.
"""

from __future__ import annotations

import numpy as np

from .convergence import SolveResult, _solve
from .linop import PartitionedSystem, residual_norm
from .reduction import BreakdownReport, reduction_init, reduction_step
from .rotations import SingularWindowError, plane_rotation

__all__ = [
    "QRWindow",
    "QMRState",
    "qr_step",
    "rotate_rhs",
    "gpqmr_solve",
]


class QRWindow:
    """Sliding data of the banded QR factorization, fixed in size.

    ``i`` counts bundles whose early stage has run; the late stage of bundle
    i runs at the start of step i+1, and step i leaves columns 2i-1 and 2i
    of the upper factor complete.  A column c is held as its five band
    entries (rho, nu, omega, zeta, xi) in rows c, c-1, ..., c-4.  ``cols``
    keeps the two current columns, ``rot`` the cosine/sine octet of bundle
    i, and ``ahead`` the (zeta, xi) entries of columns 2i+1 and 2i+2 that
    step i already fixed; rows below 1 are zero.
    """

    __slots__ = ("lam", "mu", "i", "cols", "rot", "ahead", "c_rho_even",
                 "omega_bar", "nu_bar", "omega_check")

    def __init__(self, lam, mu):
        self.lam = float(lam)
        self.mu = float(mu)
        self.i = 0
        self.cols = None
        self.rot = None
        self.ahead = (0.0,) * 4
        # pending scalars consumed by the next early/late stage
        self.c_rho_even = 0.0   # rho_bar at even row 2i+2 (from early stage)
        self.omega_bar = 0.0    # omega_bar at row 2i-1 (for late stage)
        self.nu_bar = 0.0       # nu_bar at row 2i (for late stage)
        self.omega_check = 0.0  # partially rotated omega at row 2i

    def finalized(self):
        """Columns 2i-1, 2i and bundle i: what the latest qr_step finalized."""
        return self.cols[0], self.cols[1], self.rot


def qr_step(w: QRWindow, alpha_k, theta_k, beta_next, delta_next,
            gamma_next, eta_next) -> None:
    """Advance the factorization by one step of the underlying reduction.

    Completes the previous bundle's trailing columns with the step-k
    diagonal entries and index-k+1 superdiagonal couplings, then runs the
    early stage of the new bundle with the index-k+1 subdiagonal couplings.
    """
    lam, mu = w.lam, w.mu
    if w.i == 0:
        # carries straight from the first diagonal block
        rb1, tb, nb1, zb1 = lam, theta_k, alpha_k, gamma_next
        rb2 = mu
        w.omega_bar = 0.0
        w.nu_bar = eta_next
        # the late-stage entries would lie in rows -1 and 0
        omega_odd = nu_even = omega_even = zeta_even = xi_odd = xi_even = 0.0
    else:
        c1, s1, c2, s2, c3, s3, c4, s4 = w.rot
        ob, nb, oc = w.omega_bar, w.nu_bar, w.omega_check
        omega_t = c1 * ob + s1 * theta_k
        theta_t = -s1 * ob + c1 * theta_k
        xi_t = s1 * eta_next
        nu_t_far = c1 * eta_next
        omega_odd = c2 * omega_t + s2 * nb      # row 2i-1 final
        nu_h = -s2 * omega_t + c2 * nb
        xi_odd = c2 * xi_t                      # row 2i-1 final
        zeta_h = -s2 * xi_t
        nu_c = c3 * nu_h + s3 * theta_t
        theta_bar = -s3 * nu_h + c3 * theta_t   # theta carry for next bundle
        zeta_c = c3 * zeta_h + s3 * nu_t_far
        nu_bar_far = -s3 * zeta_h + c3 * nu_t_far
        nu_even = c4 * nu_c + s4 * lam          # row 2i final
        rho_bar_odd = -s4 * nu_c + c4 * lam
        omega_even = c4 * oc + s4 * alpha_k     # row 2i final
        nu_bar_odd = -s4 * oc + c4 * alpha_k
        zeta_even = c4 * zeta_c                 # row 2i final
        omega_bar_new = -s4 * zeta_c
        xi_even = s4 * gamma_next               # row 2i final
        zeta_bar_odd = c4 * gamma_next

        rb1, tb, nb1, zb1 = rho_bar_odd, theta_bar, nu_bar_odd, zeta_bar_odd
        rb2 = w.c_rho_even
        w.omega_bar = omega_bar_new
        w.nu_bar = nu_bar_far

    # early stage of bundle j = i+1 (everything the iterate needs now)
    j = w.i + 1
    c1, s1, rho_t = plane_rotation(rb1, delta_next)
    nu_t = c1 * nb1
    t_j = -s1 * nb1
    zeta_t = c1 * zb1 + s1 * mu
    rho_t_far = -s1 * zb1 + c1 * mu
    c2, s2, rho_odd = plane_rotation(rho_t, tb)
    if rho_odd == 0.0:
        raise SingularWindowError(f"zero pivot at row {2 * j - 1}")
    nu_odd = c2 * nu_t + s2 * rb2
    rho_h = -s2 * nu_t + c2 * rb2
    zeta_odd = c2 * zeta_t
    omega_h = -s2 * zeta_t
    c3, s3, rho_c = plane_rotation(rho_h, t_j)
    omega_c = c3 * omega_h + s3 * rho_t_far
    rho_bar_even = -s3 * omega_h + c3 * rho_t_far
    c4, s4, rho_even = plane_rotation(rho_c, beta_next)
    if rho_even == 0.0:
        raise SingularWindowError(f"zero pivot at row {2 * j}")

    # local names follow the parity of the row: the late stage gave rows
    # 2j-3, 2j-2 of columns 2j-1..2j+2, the early stage rows 2j-1, 2j
    z_odd, x_odd, z_even, x_even = w.ahead
    w.cols = ((rho_odd, nu_even, omega_odd, z_odd, x_odd),
              (rho_even, nu_odd, omega_even, z_even, x_even))
    w.ahead = (zeta_even, xi_odd, zeta_odd, xi_even)
    w.omega_check = omega_c
    w.c_rho_even = rho_bar_even
    w.rot = (c1, s1, c2, s2, c3, s3, c4, s4)
    w.i = j


def rotate_rhs(w: QRWindow, carry: tuple[float, float]):
    """Apply the newest bundle to the right-hand-side window.

    Returns (w_odd, w_even, carry_odd, carry_even): the two finalized entries
    for the triangular solve and the carries whose norm is the current
    quasi-residual.
    """
    c1, s1, c2, s2, c3, s3, c4, s4 = w.rot
    b1, b2 = carry
    t1 = c1 * b1
    t4 = -s1 * b1
    f1 = c2 * t1 + s2 * b2
    h2 = -s2 * t1 + c2 * b2
    c2v = c3 * h2 + s3 * t4
    b4 = -s3 * h2 + c3 * t4
    f2 = c4 * c2v
    b3 = -s4 * c2v
    return f1, f2, b3, b4


class QMRState:
    """Single-owner solver state: reduction window, QR window, directions
    and the rotated right-hand-side carries.

    Each side's direction ring is one Fortran-ordered block, ``fx`` (m x 6)
    and ``fy`` (n x 6), with column idx in slot idx % 6: the four columns the
    depth-4 back-recurrence reads, and two dead slots, one of which takes the
    newest basis vector.  One matmul per side writes the two new columns and
    the iterate increment into ``gx``/``gy`` (len x 3); the columns are then
    copied into the dead slots.
    """

    tracks_transfer = False

    def __init__(self, sys: PartitionedSystem, red):
        m, n = sys.m, sys.n
        self.sys = sys
        self.red = red
        self.window = QRWindow(sys.lam, sys.mu)
        self.k = 0
        self.x = np.zeros(m)
        self.y = np.zeros(n)
        self.fx = np.zeros((m, 6), order="F")  # slots of columns < 1 stay zero
        self.fy = np.zeros((n, 6), order="F")
        self.gx = np.empty((m, 3), order="F")
        self.gy = np.empty((n, 3), order="F")
        self.coef = np.empty((6, 3))
        # rotated right-hand side: the two entries the last step finalized,
        # then the two carries whose norm is the quasi-residual
        self.rhs = (0.0, 0.0, red.beta1, red.delta1)
        self.quasi = float(np.hypot(red.beta1, red.delta1))
        self.coeffs = None

    def advance(self):
        """One solver step: reduction, staged bundle, rhs rotation,
        direction back-recurrence, iterate update."""
        coeffs = reduction_step(self.red, self.sys)
        k = coeffs.k
        w = self.window
        qr_step(w, coeffs.alpha, coeffs.theta, coeffs.beta_next,
                coeffs.delta_next, coeffs.gamma_next, coeffs.eta_next)
        self.k = k
        self.rhs = rotate_rhs(w, self.rhs[2:])
        w1, w2, b3, b4 = self.rhs
        self.quasi = float(np.hypot(b3, b4))

        # n1 = (q_k - xi f_{r1-4} - zeta f_{r1-3} - omega f_{r1-2}
        #       - nu f_{r1-1}) / rho_{r1}, then n2 likewise over f_{r1-3},
        # f_{r1-2}, f_{r1-1}, n1 with u_k; q_k enters the x side only, u_k
        # the y side only, and n2's dependence on n1 is folded into b
        (rho1, nu1, omega1, zeta1, xi1), (rho2, nu2, omega2, zeta2, xi2) = w.cols
        a = [-xi1 / rho1, -zeta1 / rho1, -omega1 / rho1, -nu1 / rho1]
        b = [(bj - nu2 * aj) / rho2 for aj, bj in
             zip(a, (0.0, -xi2, -zeta2, -omega2))]
        r1 = 2 * k - 1
        _recur(self.fx, self.gx, self.red.q_prev, r1,
               a + [1.0 / rho1], b + [-nu2 / (rho1 * rho2)], w1, w2, self.coef)
        _recur(self.fy, self.gy, self.red.u_prev, r1,
               a + [0.0], b + [1.0 / rho2], w1, w2, self.coef)
        self.x += self.gx[:, 2]
        self.y += self.gy[:, 2]
        self.coeffs = coeffs
        return coeffs

    # -- solve-loop protocol (see convergence._solve) ------------------------

    @property
    def stopped(self) -> bool:
        return self.red.breakdown is not None

    def estimate(self) -> float:
        return self.quasi

    def iterate(self):
        return self.x, self.y

    def settle_breakdown(self, tol) -> bool:
        # the in-flight step is finished; nothing further can be built
        return residual_norm(self.sys, self.x, self.y) <= tol

    def result(self, reason, residual, record) -> SolveResult:
        return SolveResult(self.x, self.y, self.k, reason, float(residual),
                           record, breakdown=self.red.breakdown)


def gpqmr_solve(sys: PartitionedSystem, tol: float = 1e-8,
                maxit: int | None = None,
                explicit_residual: bool = False) -> SolveResult:
    """Run GPQMR until the quasi-residual (or true residual) drops below tol.

    The quasi-residual is the projected least-squares residual norm; the true
    residual is bounded by it times the basis norm.  ``explicit_residual``
    evaluates and stops on true residuals instead (two extra operator
    applications per step), mirroring comparison-grade runs.
    """
    init = reduction_init(sys)
    state = init if isinstance(init, BreakdownReport) else QMRState(sys, init)
    return _solve(sys, state, tol, maxit, explicit_residual)


def _recur(ring, out, basis, r1, a, b, w1, w2, coef):
    """Both new direction columns r1, r1+1 and the increment w1 n1 + w2 n2
    from one matmul; ``a``/``b`` hold the coefficients of n1/n2 on columns
    r1-4..r1, where column r1 is the basis vector copied into its dead slot."""
    ring[:, r1 % 6] = basis
    rows = [(aj, bj, w1 * aj + w2 * bj) for aj, bj in zip(a, b)]
    rows.append((0.0, 0.0, 0.0))  # column r1+1: the other dead slot
    o = (r1 - 4) % 6
    coef[o:] = rows[:6 - o]
    coef[:o] = rows[6 - o:]
    np.matmul(ring, coef, out=out)
    ring[:, r1 % 6] = out[:, 0]
    ring[:, (r1 + 1) % 6] = out[:, 1]
