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
    ``projected()`` maps the processed vectors (columns, in the order
    ``vcol``/``ucol`` give) onto all of them (v_i on row 2i, u_i on 2i+1).
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
        self.cols: list[np.ndarray] = []
        self.vcol, self.ucol = [], []  # column of each processed v, u
        self.k = 0
        self.terminated = False

    def step(self) -> bool:
        """Extend both bases by at most one column; False on termination."""
        if self.terminated:
            raise RuntimeError("process has terminated")
        sys, nv, nu = self.sys, self.nv, self.nu
        pv, pu = len(self.vcol), len(self.ucol)
        h = f = None
        if pu < nu:
            w = sys.A.apply(self.ub[:, pu])
            h = _orthogonalize(w, self.vb[:, :nv])
        if pv < nv:
            z = sys.B.apply(self.vb[:, pv])
            f = _orthogonalize(z, self.ub[:, :nu])
        tiny = 1e-13 * max(1.0, *(np.max(np.abs(c[:-1])) for c in (h, f)
                                  if c is not None))
        rows = 2 * max(nv, nu) + 2  # every vector this step can create
        if f is not None:  # column of v_pv: lam on its row, F on the u rows
            col = np.zeros(rows)
            col[2 * pv] = sys.lam
            col[1:2 * nu + 2:2] = f
            self.vcol.append(len(self.cols))
            self.cols.append(col)
        if h is not None:  # column of u_pu: H on the v rows, mu on its row
            col = np.zeros(rows)
            col[0:2 * nv + 1:2] = h
            col[2 * pu + 1] = sys.mu
            self.ucol.append(len(self.cols))
            self.cols.append(col)
        if h is not None and h[-1] > tiny and nv < self.limits[0]:
            self.vb = _room(self.vb, nv, self.limits[0])
            np.divide(w, h[-1], out=self.vb[:, nv])
            self.nv += 1
        if f is not None and f[-1] > tiny and nu < self.limits[1]:
            self.ub = _room(self.ub, nu, self.limits[1])
            np.divide(z, f[-1], out=self.ub[:, nu])
            self.nu += 1
        self.k += 1
        self.terminated = (self.nv, self.nu) == (nv, nu)
        return not self.terminated

    def V(self, k: int) -> np.ndarray:
        return self.vb[:, :k]

    def U(self, k: int) -> np.ndarray:
        return self.ub[:, :k]

    def projected(self) -> np.ndarray:
        """Interleaved projection of the full block matrix: rows 2i and
        2i+1 for v_i and u_i, one column per processed vector."""
        M = np.zeros((len(self.cols[-1]) if self.cols else 2, len(self.cols)))
        for j, col in enumerate(self.cols):
            M[:len(col), j] = col
        return M


def _orthogonalize(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Project w, in place, off the orthonormal columns of Q by classical
    Gram-Schmidt, with a second pass when the first one removed more than
    half of ||w||^2 (the DGKS test).  Returns the projection coefficients
    followed by the norm of what remains."""
    before = np.linalg.norm(w)
    d = Q.T @ w
    w -= Q @ d
    after = np.linalg.norm(w)
    if after <= before * math.sqrt(0.5):
        e = Q.T @ w
        w -= Q @ e
        d += e
        after = np.linalg.norm(w)
    return np.append(d, after)


def _room(block: np.ndarray, used: int, limit: int) -> np.ndarray:
    """``block``, or a copy doubled up to ``limit`` columns when it is full."""
    if used < block.shape[1]:
        return block
    out = np.empty((block.shape[0], min(2 * used, limit)), order="F")
    out[:, :used] = block
    return out


class _GrowingQR:
    """Incremental QR of the interleaved projected matrix (GMRES-style).

    Columns arrive one or two at a time; Givens rotations are stored and
    replayed on each new column, so the minimum projected residual is
    available every step without refactorizing.  The replay runs on Python
    floats, which is the same arithmetic as on numpy scalars at a fraction
    of the cost.
    """

    def __init__(self, beta: float, gamma: float):
        self.r_cols: list[list[float]] = []
        self.rots: list[tuple[int, float, float]] = []
        self.g = [beta, gamma]

    def push_column(self, col: np.ndarray) -> bool:
        """Append one column; False (no unknown) if it depends on the others."""
        j = len(self.r_cols)
        col, g = col.tolist(), self.g
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
            return False  # the rotations touched rows >= j only: R is intact
        self.r_cols.append(col[:j + 1])
        return True

    def projected_residual(self) -> float:
        return math.hypot(*self.g[len(self.r_cols):])

    def solve(self) -> np.ndarray:
        j = len(self.r_cols)
        R = np.zeros((j, j))
        for col_idx, col in enumerate(self.r_cols):
            R[:col_idx + 1, col_idx] = col
        z = np.zeros(j)
        for i in range(j - 1, -1, -1):
            z[i] = (self.g[i] - R[i, i + 1:] @ z[i + 1:]) / R[i, i]
        return z


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
        self.qr = _GrowingQR(self.proc.beta, self.proc.gamma)
        self.kept: list[int] = []  # process columns that are QR unknowns

    def advance(self) -> None:
        proc, qr = self.proc, self.qr
        done = len(proc.cols)
        alive = proc.step()
        self.k += 1
        for j in range(done, len(proc.cols)):
            if qr.push_column(proc.cols[j]):
                self.kept.append(j)
        self.res = qr.projected_residual()
        self.stopped = not alive
        if alive and self.restart is not None and proc.k >= self.restart:
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
        if not self.qr.r_cols:
            return self.x, self.y
        proc = self.proc
        z = np.zeros(len(proc.cols))
        z[self.kept] = self.qr.solve()
        return (self.x + proc.V(len(proc.vcol)) @ z[proc.vcol],
                self.y + proc.U(len(proc.ucol)) @ z[proc.ucol])

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

