"""GPMR: the long-recurrence minimum-residual baseline.

It builds two orthonormal bases with a simultaneous Hessenberg reduction
and minimizes the true residual over the interleaved subspace via an
incrementally updated QR of the projected matrix.  Both bases are stored in
full, each as one Fortran-ordered block, so that one Gram-Schmidt pass per
side is two matrix-vector products.
"""

from __future__ import annotations

import math

import numpy as np

from .convergence import SolveResult, _solve
from .linop import PartitionedSystem, apply_partitioned
from .rotations import plane_rotation

__all__ = [
    "HessenbergProcessState",
    "GPMRState",
    "gpmr_solve",
]

FIRST_BLOCK = 256  # basis columns reserved up front; the blocks double past it


class HessenbergProcessState:
    """Simultaneous orthonormal bases V (m-side) and U (n-side).

    A step applies A to the unprocessed u and B to the unprocessed v (a
    side has at most one) and extends each basis by block classical
    Gram-Schmidt with a DGKS second pass (Daniel, Gragg, Kaufman & Stewart,
    1976), so the bases stay orthonormal to working precision.  A side whose
    remainder vanishes gains no vector; the other side keeps extending, and
    the process terminates when neither side gains one.
    ``new`` holds the step's column of F = U^T B V and of H = V^T A U, one
    (side, index, coefficients, remainder norm) entry per processed vector
    (side 0 for v_index, 1 for u_index), v first; the next step replaces it.
    The bases are the leading columns of two blocks that start at
    FIRST_BLOCK columns and double up to ``limit`` (at most the side's
    dimension); ``V(k)``/``U(k)`` are views.
    """

    def __init__(self, sys: PartitionedSystem, b0=None, c0=None,
                 limit: int | None = None):
        self.sys = sys
        b0 = sys.b if b0 is None else b0
        c0 = sys.c if c0 is None else c0
        self.beta = float(np.linalg.norm(b0))
        self.gamma = float(np.linalg.norm(c0))
        if self.beta == 0.0 or self.gamma == 0.0:
            raise ValueError("starting vectors must be nonzero")
        self.limits = (min(sys.m, limit or sys.m), min(sys.n, limit or sys.n))
        self.vb = np.empty((sys.m, min(self.limits[0], FIRST_BLOCK)), order="F")
        self.ub = np.empty((sys.n, min(self.limits[1], FIRST_BLOCK)), order="F")
        np.divide(b0, self.beta, out=self.vb[:, 0])
        np.divide(c0, self.gamma, out=self.ub[:, 0])
        self.nv = self.nu = 1
        self.pv = self.pu = 0  # processed vectors per side
        self.new = ()
        self.k = 0
        self.terminated = False

    def step(self) -> bool:
        """Extend both bases by at most one column; False on termination.
        A remainder norm <= 1e-13 max(1, max |coefficient|) counts as zero."""
        if self.terminated:
            raise RuntimeError("process has terminated")
        sys, nv, nu, pv, pu = self.sys, self.nv, self.nu, self.pv, self.pu
        h, f, tiny = None, None, 1e-13
        if pu < nu:
            w = sys.A.apply(self.ub[:, pu])
            h, hn = _orthogonalize(w, self.vb[:, :nv])
            tiny = max(tiny, 1e-13 * abs(h).max())
        if pv < nv:
            z = sys.B.apply(self.vb[:, pv])
            f, fn = _orthogonalize(z, self.ub[:, :nu])
            tiny = max(tiny, 1e-13 * abs(f).max())
        self.new = ((0, pv, f, fn),) if f is not None else ()
        if h is not None:
            self.new += ((1, pu, h, hn),)
            self.pu += 1
            if hn > tiny and nv < self.limits[0]:
                self.vb = _room(self.vb, nv, self.limits[0])
                np.divide(w, hn, out=self.vb[:, nv])
                self.nv += 1
        if f is not None:
            self.pv += 1
            if fn > tiny and nu < self.limits[1]:
                self.ub = _room(self.ub, nu, self.limits[1])
                np.divide(z, fn, out=self.ub[:, nu])
                self.nu += 1
        self.k += 1
        self.terminated = (self.nv, self.nu) == (nv, nu)
        return not self.terminated

    def V(self, k: int) -> np.ndarray:
        return self.vb[:, :k]

    def U(self, k: int) -> np.ndarray:
        return self.ub[:, :k]


def _orthogonalize(w: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, float]:
    """Project w, in place, off the orthonormal columns of Q by classical
    Gram-Schmidt, with a second pass when the first one removed more than
    half of ||w||^2 (the DGKS test).  Returns the projection coefficients
    and the remainder's norm sqrt(w.w), the value np.linalg.norm computes."""
    before = math.sqrt(w.dot(w))
    d = Q.T @ w
    w -= Q @ d
    after = math.sqrt(w.dot(w))
    if after <= before * math.sqrt(0.5):
        e = Q.T @ w
        w -= Q @ e
        d += e
        after = math.sqrt(w.dot(w))
    return d, after


def _room(block: np.ndarray, used: int, limit: int) -> np.ndarray:
    """``block``, or a copy doubled up to ``limit`` columns when it is full."""
    if used < block.shape[1]:
        return block
    out = np.empty((block.shape[0], min(2 * used, limit)), order="F")
    out[:, :used] = block
    return out


class _GrowingQR:
    """Incremental QR of the interleaved projected matrix (GMRES-style).

    Row 2i of the projection belongs to v_i and row 2i+1 to u_i.  The column
    of a processed vector holds lam (v) or mu (u) on its own row and its
    Hessenberg coefficients and remainder norm on the other side's rows.
    Columns arrive one or two a step; Givens rotations are stored and
    replayed on each new column, so the minimum projected residual is
    available every step without refactorizing.  The columns are Python
    floats, which is the same arithmetic as on numpy scalars at a fraction
    of the cost.  ``basis`` holds, per unknown, the row of the basis vector
    it multiplies.
    """

    def __init__(self, lam: float, mu: float, beta: float, gamma: float):
        self.diag = (float(lam), float(mu))
        self.r_cols: list[list[float]] = []
        self.rots: list[tuple[int, float, float]] = []
        self.g = [beta, gamma]
        self.basis: list[int] = []
        self.processed = [0, 0]  # v's and u's whose columns arrived

    def extend(self, entries) -> None:
        """Append the columns of a Hessenberg step's ``new`` entries; a
        column that depends on the others adds no unknown."""
        g = self.g
        for side, index, coeffs, norm in entries:
            n, j = len(coeffs), len(self.r_cols)
            col = [0.0] * max(len(g), 2 * n + 2 - side)
            col[2 * index + side] = self.diag[side]
            col[1 - side:2 * n + 1 - side:2] = coeffs.tolist()
            col[2 * n + 1 - side] = norm
            self.processed[side] = index + 1
            g += [0.0] * (len(col) - len(g))  # new rows start at zero
            for i, c, s in self.rots:
                a, b = col[i], col[i + 1]
                col[i] = c * a + s * b
                col[i + 1] = -s * a + c * b
            for i in range(len(col) - 1, j, -1):
                if col[i] == 0.0:
                    continue
                c, s, r = plane_rotation(col[i - 1], col[i])
                col[i - 1], col[i] = r, 0.0
                self.rots.append((i - 1, c, s))
                a, b = g[i - 1], g[i]
                g[i - 1] = c * a + s * b
                g[i] = -s * a + c * b
            if abs(col[j]) <= 1e-12 * math.hypot(*col):
                continue  # the rotations touched rows >= j only: R is intact
            self.r_cols.append(col[:j + 1])
            self.basis.append(2 * index + side)

    def projected_residual(self) -> float:
        return math.hypot(*self.g[len(self.r_cols):])

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of the processed v's and of the processed u's in
        the projected minimum (zero where a column added no unknown)."""
        j = len(self.r_cols)
        R = np.zeros((j, j))
        for col_idx, col in enumerate(self.r_cols):
            R[:col_idx + 1, col_idx] = col
        z = np.zeros(j)
        for i in range(j - 1, -1, -1):
            z[i] = (self.g[i] - R[i, i + 1:] @ z[i + 1:]) / R[i, i]
        w = np.zeros(2 * max(self.processed))
        w[self.basis] = z
        # contiguous: a strided vector changes the last bits of V @ zv
        return w[0:2 * self.processed[0]:2].copy(), w[1:2 * self.processed[1]:2].copy()


class GPMRState:
    """gpmr as a solver state: one Hessenberg step and its incremental QR
    columns per iteration.  With ``restart`` a cycle ends after that many
    steps and the next one starts from the residual blocks of the cycle's
    iterate.  ``maxit`` is the solve's iteration limit.
    """

    tracks_transfer = False

    def __init__(self, sys: PartitionedSystem, restart: int | None = None,
                 maxit: int | None = None):
        self.sys = sys
        self.restart = restart
        # a cycle adds at most one basis column per side per step
        self.limit = 1 + max(0, min(s for s in (maxit, restart, sys.m + sys.n)
                                    if s is not None))
        self.k = 0
        self.stopped = False
        self.x, self.y = np.zeros(sys.m), np.zeros(sys.n)  # at the cycle start
        self._start_cycle(sys.b, sys.c)

    def _start_cycle(self, b0, c0):
        self.proc = HessenbergProcessState(self.sys, b0, c0, self.limit)
        self.qr = _GrowingQR(self.sys.lam, self.sys.mu, self.proc.beta, self.proc.gamma)

    def advance(self) -> None:
        alive = self.proc.step()
        self.k += 1
        self.qr.extend(self.proc.new)
        self.res = self.qr.projected_residual()
        self.stopped = not alive
        if alive and self.restart is not None and self.proc.k >= self.restart:
            self._restart()

    def _restart(self):
        x, y = self.iterate()
        top, bot = apply_partitioned(self.sys, x, y)
        b0, c0 = self.sys.b - top, self.sys.c - bot
        nb0, nc0 = np.linalg.norm(b0), np.linalg.norm(c0)
        if nb0 == 0.0 or nc0 == 0.0:
            # one block already solved exactly; the process cannot restart
            self.res = float(np.hypot(nb0, nc0))
            self.stopped = True
            return
        self.x, self.y = x, y
        self._start_cycle(b0, c0)

    def estimate(self) -> float:
        return self.res

    def iterate(self):
        """Cycle start plus the basis combination of the projected minimum."""
        if not self.qr.basis:
            return self.x, self.y
        zv, zu = self.qr.solve()
        return self.x + self.proc.V(len(zv)) @ zv, self.y + self.proc.U(len(zu)) @ zu

    def rescue(self):
        """None: the space closed, so the projected minimum is final."""

    def result(self, x, y, reason, residual, record) -> SolveResult:
        return SolveResult(x, y, self.k, reason, float(residual), record)


def gpmr_solve(sys: PartitionedSystem, tol: float = 1e-8, maxit: int | None = None,
               restart: int | None = None, explicit_residual: bool = False,
               ) -> SolveResult:
    """Minimum-residual baseline over the simultaneous orthonormal subspace.

    Parameters
    ----------
    restart : int or None
        Restart cycle length r; None runs unrestarted.  Each restart rebuilds
        the bases from the current residual blocks.
    explicit_residual : bool
        Also evaluate the true residual of the assembled iterate each step
        (one extra pair of operator applications) and stop on it.
    """
    if restart is not None and restart < 1:
        raise ValueError(f"restart must be >= 1, got {restart}")
    return _solve(sys, GPMRState(sys, restart, maxit), tol, maxit, explicit_residual)

