"""Plane-rotation kernels and the one sliding banded factorization that
gpbilq and gpqmr share."""

import math

import numpy as np

__all__ = ["plane_rotation", "rotation_bundle", "rotation_bundle_transposed",
           "rotation_block", "BandWindow", "substitute_pair", "SingularWindowError"]

_UNITS = [tuple(float(i == j) for j in range(4)) for i in range(4)]


class SingularWindowError(RuntimeError):
    """A diagonal of the sliding factorization vanished."""


def plane_rotation(a: float, b: float) -> tuple[float, float, float]:
    """Return (c, s, r) with r = sqrt(a^2 + b^2), c = a/r, s = b/r.

    r is nonnegative; c and s carry the signs of a and b.  When both inputs
    vanish the rotation degenerates to the identity with r = 0.
    """
    r = math.hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


def rotation_bundle(rot, v=None):
    """Scalar form of one four-rotation bundle M = r1 r2 r3 r4.

    ``rot`` is (c1, s1, c2, s2, c3, s3, c4, s4); r1, r2, r3 and r4 rotate
    coordinate pairs (0, 3), (0, 1), (1, 3) and (1, 2) of a 4-vector, each
    as [[c, -s], [s, c]].  Returns M @ v as four floats when a 4-vector
    ``v`` is given, else the rows of M as four 4-tuples (row i is M^T e_i).
    """
    if v is None:
        return [rotation_bundle_transposed(rot, e) for e in _UNITS]
    c1, s1, c2, s2, c3, s3, c4, s4 = rot
    v0, v1, v2, v3 = v
    v1, v2 = c4 * v1 - s4 * v2, s4 * v1 + c4 * v2
    v1, v3 = c3 * v1 - s3 * v3, s3 * v1 + c3 * v3
    v0, v1 = c2 * v0 - s2 * v1, s2 * v0 + c2 * v1
    return c1 * v0 - s1 * v3, v1, v2, s1 * v0 + c1 * v3


def rotation_bundle_transposed(rot, v):
    """M^T @ v as four floats: r1^T, r2^T, r3^T, r4^T of ``rotation_bundle``."""
    c1, s1, c2, s2, c3, s3, c4, s4 = rot
    v0, v1, v2, v3 = v
    v0, v3 = c1 * v0 + s1 * v3, -s1 * v0 + c1 * v3
    v0, v1 = c2 * v0 + s2 * v1, -s2 * v0 + c2 * v1
    v1, v3 = c3 * v1 + s3 * v3, -s3 * v1 + c3 * v3
    v1, v2 = c4 * v1 + s4 * v2, -s4 * v1 + c4 * v2
    return v0, v1, v2, v3


def rotation_block(c1, s1, c2, s2, c3, s3, c4, s4) -> np.ndarray:
    """4x4 matrix of one column-rotation bundle (dense reconstruction only;
    a row-rotation bundle is its transpose)."""
    return np.array(rotation_bundle((c1, s1, c2, s2, c3, s3, c4, s4)))


class BandWindow:
    """Sliding banded QR factorization of the projected block-tridiagonal
    matrix, fixed in size.

    The upper factor R has bandwidth 4; rotations premultiply, arriving as
    four-rotation bundles that finalize two rows at a time.  Entries of R
    beyond the current columns depend on coupling coefficients that only
    become available one reduction step later, so bundle i is applied in
    two stages.  ``early`` takes the index-i+1 subdiagonal couplings and
    fixes the bundle's rotations and the diagonals of rows 2i-1 and 2i,
    which completes columns 2i-1 and 2i.  ``late`` takes the step-i+1
    diagonal block and the index-i+2 superdiagonal couplings and finishes
    rows 2i-1 and 2i, handing the rest on to bundle i+1.  The staging is
    exact, it only reorders scalar assignments.

    gpqmr factors the projection and runs each step's late stage, then the
    next bundle's early stage.  gpbilq factors the square projection by LQ,
    which is the QR of its transpose: the same matrix with alpha<->theta,
    beta<->eta and gamma<->delta swapped.  It runs the early, then the late
    stage of one bundle on the swapped coefficients, and its lower factor
    is L = R^T: L[c+d, c] = R[c, c+d], so row c of L is column c of R.

    Column c of R is held as its five band entries (rho, nu, omega, zeta,
    xi) in rows c, c-1, ..., c-4; rows below 1 are zero.  ``i`` counts
    early stages; ``cols`` holds columns 2i-1 and 2i and ``rot`` the
    cosine/sine octet of bundle i.  The latest late stage, of bundle j,
    leaves in ``ahead`` its finished entries of columns 2j+1 and 2j+2 (all
    but the two diagonals and the entry between them, which the next early
    stage adds) and in ``far`` those of columns 2j+3 and 2j+4.  The
    hand-off (rb1, tb, nb1, zb1, rb2) holds the partly rotated entries the
    next early stage starts from; its leading 2x2 [[rb1, nb1], [tb, rb2]]
    is the trailing corner of the square projection's factor (``corner``).
    A fresh window holds bundle 0, the identity, and rb2 = mu; its late
    stage, the general one, seeds (rb1, tb, nb1, zb1) with its (lam, theta,
    alpha, gamma) and nu_bar with eta.  rb1 is None until then.
    """

    __slots__ = ("lam", "mu", "i", "cols", "rot", "ahead", "far", "rb1", "tb",
                 "nb1", "zb1", "rb2", "omega_bar", "nu_bar", "omega_check",
                 "zeta_odd")

    def __init__(self, lam, mu):
        self.lam = float(lam)
        self.mu = float(mu)
        self.i = 0
        self.cols = None
        self.rot = (1.0, 0.0) * 4
        self.ahead = ((0.0,) * 4, (0.0,) * 3)
        self.far = (0.0,) * 3
        self.rb1 = self.tb = self.nb1 = self.zb1 = None
        self.rb2 = self.mu
        # pending scalars of the late stage: from the last late stage
        # (omega_bar, nu_bar) and from the early stage (omega_check, and
        # zeta_odd, the finished entry of row 2i-1 in column 2i+2)
        self.omega_bar = self.nu_bar = self.omega_check = self.zeta_odd = 0.0

    def early(self, delta, beta) -> None:
        """Early stage of bundle i+1: its rotations, the diagonals of rows
        2i+1 and 2i+2, and the columns they complete.

        Raises SingularWindowError, leaving the window as it was, when a
        diagonal vanishes: both substitutions divide by them.
        """
        mu, nb1, zb1, rb2 = self.mu, self.nb1, self.zb1, self.rb2
        c1, s1, rho_t = plane_rotation(self.rb1, delta)
        nu_t = c1 * nb1
        t_j = -s1 * nb1
        zeta_t = c1 * zb1 + s1 * mu
        rho_t_far = -s1 * zb1 + c1 * mu
        c2, s2, rho_odd = plane_rotation(rho_t, self.tb)
        nu_odd = c2 * nu_t + s2 * rb2
        rho_h = -s2 * nu_t + c2 * rb2
        omega_h = -s2 * zeta_t
        c3, s3, rho_c = plane_rotation(rho_h, t_j)
        c4, s4, rho_even = plane_rotation(rho_c, beta)
        if rho_odd == 0.0 or rho_even == 0.0:
            raise SingularWindowError(
                f"zero diagonal in rows {2 * self.i + 1}-{2 * self.i + 2}")
        odd, even = self.ahead
        self.cols = ((rho_odd,) + odd, (rho_even, nu_odd) + even)
        self.zeta_odd = c2 * zeta_t
        self.omega_check = c3 * omega_h + s3 * rho_t_far
        self.rb2 = -s3 * omega_h + c3 * rho_t_far
        self.rot = (c1, s1, c2, s2, c3, s3, c4, s4)
        self.i += 1

    def late(self, alpha, theta, eta, gamma) -> None:
        """Late stage of bundle i: the rest of rows 2i-1 and 2i (into
        ``ahead`` and ``far``) and the hand-off to bundle i+1.  r1..r3 act
        on alpha's column in the early stage and miss gamma's, so r4 alone
        finishes those; the other two columns take the whole M^T."""
        rot, oc = self.rot, self.omega_check
        c4, s4 = rot[6:]
        omega_odd, nu_odd, self.rb1, self.tb = rotation_bundle_transposed(
            rot, (self.omega_bar, self.nu_bar, self.lam, theta))
        xi_odd, zeta_odd, self.omega_bar, self.nu_bar = \
            rotation_bundle_transposed(rot, (0.0, 0.0, 0.0, eta))
        z_odd, x_odd, x_even = self.far
        # rows 2i and 2i-1 of columns 2i+1 and 2i+2, then of 2i+3 and 2i+4
        self.ahead = ((nu_odd, omega_odd, z_odd, x_odd),
                      (c4 * oc + s4 * alpha, self.zeta_odd, x_even))
        self.far = (zeta_odd, xi_odd, s4 * gamma)
        self.nb1, self.zb1 = -s4 * oc + c4 * alpha, c4 * gamma

    def corner(self):
        """(c, s, odd, even): the rotation turning the hand-off corner
        [[rb1, tb], [nb1, rb2]] of L into [[rho_1, 0], [nu, rho_2]] and the
        square projection's last two factor columns, in ``cols`` layout."""
        c, s, rho1 = plane_rotation(self.rb1, self.tb)
        odd, even = self.ahead
        return (c, s, (rho1,) + odd,
                (-s * self.nb1 + c * self.rb2, c * self.nb1 + s * self.rb2) + even)


def substitute_pair(cols, v, rhs):
    """Rows r, r+1 of the banded lower solve L w = rhs from the upper
    columns r and r+1 of R = L^T (``cols``, in ``BandWindow.cols`` layout)
    and the entries ``v`` of w at r-4..r-1: row r is (rhs_r - xi_r w_{r-4}
    - zeta_r w_{r-3} - omega_r w_{r-2} - nu_r w_{r-1}) / rho_r."""
    (rho1, nu1, omega1, zeta1, xi1), (rho2, nu2, omega2, zeta2, xi2) = cols
    w1 = (rhs[0] - xi1 * v[0] - zeta1 * v[1] - omega1 * v[2] - nu1 * v[3]) / rho1
    w2 = (rhs[1] - xi2 * v[1] - zeta2 * v[2] - omega2 * v[3] - nu2 * w1) / rho2
    return w1, w2
