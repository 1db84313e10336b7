"""Reference kernel that calibrates the benchmark's clock to machine speed.

On a shared host the speed of the benchmark's core drifts by up to 1.5x
in episodes of tens of seconds to minutes (neighbours on the same cache
and sibling threads), so a half-minute run can fall wholly in a slow or a
fast episode and no statistic over the run's own samples removes that.
The benchmark therefore times a fixed reference kernel right before and
right after every timed operation and scales the operation's time by
``nominal / reference``: the time it would have taken at the machine speed
at which one reference iteration takes ``nominal`` seconds.

The reference iteration resembles one Krylov step on the workload's own
shapes, so that it slows down with the solvers: four operator
applications, about twenty vector passes, four inner products and a
window of scalar Python arithmetic.  It uses numpy and scipy only, never
the package under test, so a change to the package moves the calibrated
times in full.
"""

from __future__ import annotations

import math
import time

import numpy as np


def _unit(vec):
    return vec / np.linalg.norm(vec)


class Reference:
    """One reference iteration on A (m x n) and B (n x m), dense or sparse."""

    def __init__(self, A, B):
        self.A, self.At = A, A.T.copy()
        self.B, self.Bt = B, B.T.copy()
        m, n = A.shape
        rng = np.random.default_rng(0)
        self.p, self.q = _unit(rng.standard_normal(m)), _unit(rng.standard_normal(m))
        self.u, self.v = _unit(rng.standard_normal(n)), _unit(rng.standard_normal(n))
        self.x, self.y = np.zeros(m), np.zeros(n)
        self.w, self.z = np.zeros(m), np.zeros(n)
        self.tmp_m, self.tmp_n = np.zeros(m), np.zeros(n)

    def iteration(self) -> float:
        """One step; returns the last scalar of its window."""
        a = self.A @ self.u
        d = self.Bt @ self.v
        b = self.At @ self.p
        c = self.B @ self.q
        alpha = float(a @ self.q)
        beta = float(b @ self.v)
        a += d
        a -= alpha * self.p
        b += c
        b -= beta * self.u
        na = math.sqrt(float(a @ a))
        nb = math.sqrt(float(b @ b))
        # scalar window: plane rotations
        r = math.hypot(na, nb)
        cs, sn = na / r, nb / r
        r2 = math.hypot(alpha * cs + beta * sn, r)
        gamma = (beta * cs - alpha * sn) / r2
        h = 0.0
        for j in range(8):
            h = math.hypot(0.5 * h, gamma + j)
        # direction mix and iterate update
        np.multiply(self.p, cs, out=self.tmp_m)
        self.w *= -sn
        self.w += self.tmp_m
        np.multiply(self.u, cs, out=self.tmp_n)
        self.z *= -sn
        self.z += self.tmp_n
        self.x += (1e-3 * gamma) * self.w
        self.y += (1e-3 * gamma) * self.z
        self.q, self.v = self.p, self.u
        self.p, self.u = a / na, b / nb
        return h

    def seconds(self, iterations: int) -> float:
        """Wall time of one iteration, averaged over ``iterations``."""
        for vec in (self.x, self.y, self.w, self.z):
            vec.fill(0.0)
        t0 = time.perf_counter()
        for _ in range(iterations):
            self.iteration()
        return (time.perf_counter() - t0) / iterations


class CalibratedClock:
    """Times operations between reference chunks.

    ``time(fn, *args)`` returns (result, wall seconds, calibrated seconds).
    The reference chunk after one operation is the chunk before the next.
    The first chunk of a clock warms the kernel up and is discarded.
    """

    def __init__(self, reference: Reference, iterations: int, nominal: float):
        self.reference = reference
        self.iterations = iterations
        self.nominal = nominal
        self.ref_seconds: list[float] = []
        self._last: float | None = None

    def chunk(self) -> float:
        ref = self.reference.seconds(self.iterations)
        self.ref_seconds.append(ref)
        self._last = ref
        return ref

    def time(self, fn, *args, **kwargs):
        if self._last is None:
            self.reference.seconds(self.iterations)
            self.chunk()
        before = self._last
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            after = self.chunk()
        return result, wall, wall * self.nominal / (0.5 * (before + after))
