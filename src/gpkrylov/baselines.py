"""GPMR: the long-recurrence minimum-residual baseline.

It builds two orthonormal bases with a simultaneous Hessenberg reduction
and minimizes the true residual over the interleaved subspace via an
incrementally updated QR of the projected matrix.  Full bases are stored;
clarity and verifiability are preferred over the constant-memory
bookkeeping of the short-recurrence solvers.
"""

from __future__ import annotations

import numpy as np

from .convergence import SolveResult, _solve
from .linop import PartitionedSystem, apply_partitioned
from .rotations import plane_rotation

__all__ = [
    "HessenbergProcessState",
    "GPMRState",
    "gpmr_solve",
]


class HessenbergProcessState:
    """Simultaneous orthonormal bases V (m-side) and U (n-side).

    One step extends both bases by modified Gram-Schmidt so that
    V^T A U = H and U^T B V = F hold on the accumulated prefix, with H, F
    upper Hessenberg and nonnegative subdiagonals.
    """

    def __init__(self, sys: PartitionedSystem, b0=None, c0=None):
        self.sys = sys
        b0 = sys.b if b0 is None else b0
        c0 = sys.c if c0 is None else c0
        self.beta = float(np.linalg.norm(b0))
        self.gamma = float(np.linalg.norm(c0))
        if self.beta == 0.0 or self.gamma == 0.0:
            raise ValueError("starting vectors must be nonzero")
        self.vs = [b0 / self.beta]
        self.us = [c0 / self.gamma]
        self.h_cols: list[np.ndarray] = []
        self.f_cols: list[np.ndarray] = []
        self.terminated = False

    @property
    def k(self) -> int:
        return len(self.h_cols)

    def step(self) -> bool:
        """Extend both bases by one column; False on lucky termination."""
        if self.terminated:
            raise RuntimeError("process has terminated")
        k = self.k
        w = self.sys.A.apply(self.us[k])
        z = self.sys.B.apply(self.vs[k])
        h = np.zeros(k + 2)
        f = np.zeros(k + 2)
        for i in range(k + 1):
            h[i] = self.vs[i] @ w
            w -= h[i] * self.vs[i]
            f[i] = self.us[i] @ z
            z -= f[i] * self.us[i]
        h[k + 1] = np.linalg.norm(w)
        f[k + 1] = np.linalg.norm(z)
        self.h_cols.append(h)
        self.f_cols.append(f)
        vec_scale = max(1.0, np.max(np.abs(h[:k + 1])), np.max(np.abs(f[:k + 1])))
        if h[k + 1] <= 1e-13 * vec_scale or f[k + 1] <= 1e-13 * vec_scale:
            self.terminated = True
            return False
        self.vs.append(w / h[k + 1])
        self.us.append(z / f[k + 1])
        return True

    def V(self, k: int) -> np.ndarray:
        return np.column_stack(self.vs[:k])

    def U(self, k: int) -> np.ndarray:
        return np.column_stack(self.us[:k])

    def H(self, k: int) -> np.ndarray:
        """(k+1) x k Hessenberg projection of A."""
        out = np.zeros((k + 1, k))
        for j in range(k):
            col = self.h_cols[j]
            out[:min(j + 2, k + 1), j] = col[:min(j + 2, k + 1)]
        return out

    def F(self, k: int) -> np.ndarray:
        out = np.zeros((k + 1, k))
        for j in range(k):
            col = self.f_cols[j]
            out[:min(j + 2, k + 1), j] = col[:min(j + 2, k + 1)]
        return out

    def projected(self, k: int) -> np.ndarray:
        """(2k+2) x 2k interleaved projection of the full block matrix."""
        lam, mu = self.sys.lam, self.sys.mu
        H, F = self.H(k), self.F(k)
        M = np.zeros((2 * k + 2, 2 * k))
        for i in range(k + 1):
            for j in range(k):
                if i == j:
                    M[2 * i, 2 * j] = lam
                    M[2 * i + 1, 2 * j + 1] = mu
                M[2 * i, 2 * j + 1] = H[i, j]
                M[2 * i + 1, 2 * j] = F[i, j]
        return M


class _GrowingQR:
    """Incremental QR of the interleaved projected matrix (GMRES-style).

    Columns arrive two at a time; Givens rotations are stored and replayed on
    each new column, so the minimum projected residual is available every
    step without refactorizing.
    """

    def __init__(self, rhs0: np.ndarray):
        self.r_cols: list[np.ndarray] = []
        self.rots: list[tuple[int, float, float]] = []
        self.g = rhs0.copy()

    def _apply_rots(self, col: np.ndarray) -> np.ndarray:
        for i, c, s in self.rots:
            a, b = col[i], col[i + 1]
            col[i] = c * a + s * b
            col[i + 1] = -s * a + c * b
        return col

    def push_column(self, col: np.ndarray) -> None:
        j = len(self.r_cols)
        col = self._apply_rots(col.copy())
        for i in range(len(col) - 1, j, -1):
            if col[i] == 0.0:
                continue
            c, s, r = plane_rotation(col[i - 1], col[i])
            col[i - 1], col[i] = r, 0.0
            self.rots.append((i - 1, c, s))
            a, b = self.g[i - 1], self.g[i]
            self.g[i - 1] = c * a + s * b
            self.g[i] = -s * a + c * b
        self.r_cols.append(col)

    def grow_rhs(self, extra: int) -> None:
        self.g = np.concatenate([self.g, np.zeros(extra)])

    def residual_norm(self) -> float:
        j = len(self.r_cols)
        return float(np.linalg.norm(self.g[j:]))

    def solve(self) -> np.ndarray:
        j = len(self.r_cols)
        R = np.zeros((j, j))
        for col_idx, col in enumerate(self.r_cols):
            R[:col_idx + 1, col_idx] = col[:col_idx + 1]
        z = np.zeros(j)
        for i in range(j - 1, -1, -1):
            z[i] = (self.g[i] - R[i, i + 1:] @ z[i + 1:]) / R[i, i]
        return z


class GPMRState:
    """gpmr as a solver state: one Hessenberg step and one incremental QR
    pair per iteration.  With ``restart`` a cycle ends after that many steps
    and the next one starts from the residual blocks of the cycle's iterate.
    """

    tracks_transfer = False

    def __init__(self, sys: PartitionedSystem, restart: int | None = None):
        self.sys = sys
        self.restart = restart
        self.k = 0
        self.stopped = False
        self.x = np.zeros(sys.m)  # iterate at the start of the cycle
        self.y = np.zeros(sys.n)
        self._start_cycle(sys.b, sys.c)

    def _start_cycle(self, b0, c0):
        self.proc = HessenbergProcessState(self.sys, b0, c0)
        self.qr = _GrowingQR(np.array([self.proc.beta, self.proc.gamma]))

    def advance(self) -> None:
        proc, qr = self.proc, self.qr
        alive = proc.step()
        self.k += 1
        qr.grow_rhs(2)
        col_x, col_y = _projected_column_pair(self.sys, proc, proc.k)
        qr.push_column(col_x)
        qr.push_column(col_y)
        self.res = qr.residual_norm()
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
        z = self.qr.solve()
        k = len(z) // 2
        return (self.x + self.proc.V(k) @ z[0::2],
                self.y + self.proc.U(k) @ z[1::2])

    def settle_breakdown(self, tol) -> bool:
        # an invariant subspace was reached: the projected minimum is final
        return False

    def result(self, reason, residual, record) -> SolveResult:
        x, y = self.iterate()
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
    return _solve(sys, GPMRState(sys, restart), tol, maxit, explicit_residual)


def _projected_column_pair(sys, proc, k):
    """Columns 2k-1, 2k of the interleaved projection (only the new pair is
    needed per step; the full matrix is rebuilt only by tests)."""
    col_x = np.zeros(2 * k + 2)
    col_x[2 * k - 2] = sys.lam
    col_x[1::2] = proc.f_cols[k - 1]
    col_y = np.zeros(2 * k + 2)
    col_y[0::2] = proc.h_cols[k - 1]
    col_y[2 * k - 1] = sys.mu
    return col_x, col_y
