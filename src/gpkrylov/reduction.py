"""Simultaneous biorthogonal tridiagonal reduction of a coupling pair (A, B).

The process generates two biorthogonal vector quadruples: m-vectors p_k, q_k
with P^T Q = I and n-vectors u_k, v_k with U^T V = I, such that A and B are
simultaneously reduced to tridiagonal form,

    A U_k = Q_{k+1} S_{k+1,k},      B Q_k = U_{k+1} T_{k+1,k},
    A^T P_k = V_{k+1} S_{k,k+1}^T,  B^T V_k = P_{k+1} T_{k,k+1}^T,

where S has diagonal alpha, subdiagonal beta, superdiagonal gamma and T has
diagonal theta, subdiagonal delta, superdiagonal eta.  Each step costs exactly
four operator applications (A u, A^T p, B q, B^T v) and keeps a two-term
sliding window of basis vectors.

Scaling convention: the subdiagonal scalars eta, delta carry the nonnegative
square root of the two-sided inner product and beta, gamma absorb its sign,
so that p^T q = u^T v = 1 after each normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .convergence import SolveResult
from .linop import PartitionedSystem
from .rotations import BandWindow

__all__ = [
    "BreakdownReport",
    "ReductionState",
    "StepCoeffs",
    "reduction_init",
    "reduction_step",
    "commit",
    "strips",
    "mix",
    "RecurrenceState",
    "BREAKDOWN_RTOL",
    "LUCKY_VEC_RTOL",
    "STRIP_ROWS",
]

# Declare breakdown when |ptilde^T qtilde| <= BREAKDOWN_RTOL * max(1, |ptilde||qtilde|).
BREAKDOWN_RTOL = 1e-14
# A breakdown is "lucky" when one of the offending vectors itself vanished
# relative to the largest unnormalized vector seen so far.
LUCKY_VEC_RTOL = 1e-13
# Rows per strip, sized for L2: gpqmr's m-side direction update at m = 233,244
# took 1.3-1.4 ms in 2**13- to 2**15-row strips, 1.8-1.9 ms in 2**16 or whole.
STRIP_ROWS = 2 ** 15


@dataclass
class BreakdownReport:
    """Detected loss of the two-sided inner product.

    kind is "p_q" when p~^T q~ vanished, "u_v" when u~^T v~ vanished (when
    both vanish at once, "p_q" is reported and ``lucky`` reflects both pairs).
    ``iteration`` is the index of the basis vectors that could not be formed.
    Lucky means the offending vectors themselves vanished, i.e. an invariant
    subspace was reached; serious means nonzero vectors became biorthogonal.
    """

    kind: str
    magnitude: float
    iteration: int
    lucky: bool


class StepCoeffs(NamedTuple):
    """What one reduction step consumed and the state forgets after it:
    the step-k diagonal entries alpha, theta and the index-k couplings
    beta, gamma, delta, eta that entered the recurrences.  The fresh
    index-k+1 couplings are the state's own (``ReductionState``)."""

    alpha: float
    theta: float
    beta: float
    gamma: float
    delta: float
    eta: float


class ReductionState:
    """Single-owner sliding window of the reduction (index k = current),
    couplings beta, gamma, delta, eta included (zero for a dead pair).
    A fresh one is the zero window at k = 0 (zero vectors, couplings and
    norms), from which ``_normalize`` forms index 1 as it forms the rest.
    Pairs ``q``, ``u`` of zero buffers, if given, take q_k, u_k, odd k first."""

    __slots__ = ("k", "p_prev", "p_cur", "q_prev", "q_cur", "u_prev", "u_cur", "v_prev",
                 "v_cur", "beta", "gamma", "delta", "eta", "q_norm", "u_norm",
                 "q_prev_norm", "u_prev_norm", "vec_scale", "breakdown", "pending")

    def __init__(self, m: int, n: int, q=None, u=None):
        self.k = 0
        self.p_prev, self.p_cur, self.v_prev, self.v_cur = map(np.zeros, [m, m, n, n])
        self.q_prev, self.q_cur = q or (np.zeros(m), np.zeros(m))
        self.u_prev, self.u_cur = u or (np.zeros(n), np.zeros(n))
        self.beta = self.gamma = self.delta = self.eta = 0.0
        self.q_norm = self.u_norm = 0.0
        self.vec_scale = 1.0
        self.breakdown = self.pending = None


def _scale(w, nx, ny, nb):
    """The divisors of one new pair x, y (inner product w, norms nx, ny): x
    takes the root r = sqrt|w| and y the signed quotient w / r.  Returns
    (r, w / r, nb / |w / r|), where nb is the norm of the one that becomes
    a basis vector.  A pair with |w| <= BREAKDOWN_RTOL * max(1, nx ny)
    broke down: all three are zero, and ``commit`` zeroes the pair."""
    if abs(w) <= BREAKDOWN_RTOL * max(1.0, nx * ny):
        return 0.0, 0.0, 0.0
    root = math.sqrt(abs(w))
    quot = w / root
    return root, quot, nb / abs(quot)


def _normalize(st: ReductionState, pq, p, q, np_, nq, uv, u, v, nu, nv) -> None:
    """The one normalization and breakdown rule of the start and of every
    step: the new pairs (p, q) and (u, v), given with their inner products
    and norms, get their divisors (``_scale``) and wait in ``pending`` for
    ``commit``; prev and cur swap roles and k advances.  A breakdown is
    reported at iteration k+1 on the first dead pair, lucky if each dead
    pair has a vector below LUCKY_VEC_RTOL * ``vec_scale``.
    """
    st.vec_scale = max(st.vec_scale, np_, nq, nu, nv)
    eta, beta, nq_next = _scale(pq, np_, nq, nq)
    delta, gamma, nu_next = _scale(uv, nu, nv, nu)
    if not (eta and delta):  # a live pair's root is positive
        vec_tol = LUCKY_VEC_RTOL * st.vec_scale
        dead = [(kind, abs(w), min(nx, ny) <= vec_tol) for kind, w, nx, ny, root
                in (("p_q", pq, np_, nq, eta), ("u_v", uv, nu, nv, delta)) if not root]
        st.breakdown = BreakdownReport(*dead[0][:2], st.k + 1,
                                       all(lucky for *_, lucky in dead))
    st.eta, st.beta, st.delta, st.gamma = eta, beta, delta, gamma
    st.q_prev_norm, st.q_norm = st.q_norm, nq_next
    st.u_prev_norm, st.u_norm = st.u_norm, nu_next
    st.p_prev, st.p_cur = st.p_cur, st.p_prev
    st.q_prev, st.q_cur = st.q_cur, st.q_prev
    st.u_prev, st.u_cur = st.u_cur, st.u_prev
    st.v_prev, st.v_cur = st.v_cur, st.v_prev
    st.k += 1
    st.pending = p, q, u, v


def commit(st: ReductionState) -> None:
    """A step's four normalizing divisions into its new basis buffers, a
    dead pair zeroed; until then they keep the vectors the step retired."""
    for out, new, d in zip((st.p_cur, st.q_cur, st.u_cur, st.v_cur), st.pending,
                           (st.eta, st.beta, st.delta, st.gamma)):
        if d:
            np.divide(new, d, out=out)
        else:
            out.fill(0.0)
    st.pending = None


def reduction_init(sys: PartitionedSystem, q=None, u=None) -> ReductionState:
    """Scale the starting vectors into the first biorthogonal quadruple.

    The zero window (on ``q``, ``u``; see ``ReductionState``) takes (f, b)
    and (c, g), with whole-vector inner products and norms, through the
    step's own normalization.  Returns the state at k = 1, whose beta and
    delta are the projected right-hand side; when f^T b or c^T g is
    negligible the process cannot start, and ``breakdown`` reports it.
    """
    f, b, c, g = sys.f, sys.b, sys.c, sys.g
    nf, nb = np.linalg.norm(f), np.linalg.norm(b)
    nc, ng = np.linalg.norm(c), np.linalg.norm(g)
    st = ReductionState(sys.m, sys.n, q, u)
    _normalize(st, float(f @ b), f, b, nf, nb, float(c @ g), c, g, nc, ng)
    commit(st)
    return st


def strips(*arrays):
    """Matching row strips of same-length arrays, STRIP_ROWS rows each,
    made one strip at a time; arrays that fit one strip come whole."""
    rows, size = len(arrays[0]), STRIP_ROWS
    if rows <= size:
        yield arrays
        return
    for lo in range(0, rows, size):
        yield [a[lo:lo + size] for a in arrays]


def mix(live, dead, scratch, it, coef):
    """A short recurrence's direction update and iterate increment, per row
    strip: scratch rows take live @ coef, whose leading columns overwrite
    the ``dead`` directions and whose last is added to ``it``."""
    for ls, ds, its in strips(live, dead, it):
        ss = scratch[:len(ls)]
        np.matmul(ls, coef, out=ss)
        ds[...] = ss[:, :-1]
        its += ss[:, -1]


class RecurrenceState:
    """What gpbilq's and gpqmr's solver states share: the reduction ``red``
    on ``sys``, the factor ``window``, the iterate x, y and per side one
    Fortran-ordered (len x width) block ``fx``/``fy``, [basis slot |
    directions | basis slot], whose slots are red's q (u) buffers: q_k is
    last at odd k and first at even k, so block[:, 1:] or block[:, :-1] is
    step k's input.  ``update`` and ``flush`` alone know this layout: a step k
    that ``update`` holds (``held``) runs with step k+1, or in ``flush`` with
    an idle step, as one ``_pair`` map per side through ``mix``, so x, y and
    the directions are current only after ``flush``, which ``iterate()`` and
    every other reader of them runs.  A subclass's ``advance`` steps the
    reduction, the window and k, and hands ``update`` the direction
    coefficients before the reduction's ``commit``.  The rest is the solve-loop
    protocol.
    """

    tracks_transfer = False

    def __init__(self, sys: PartitionedSystem, width: int):
        self.sys, self.k = sys, 0
        self.fx = np.zeros((sys.m, width), order="F")
        self.fy = np.zeros((sys.n, width), order="F")
        self.red = reduction_init(sys, (self.fx[:, -1], self.fx[:, 0]),
                                  (self.fy[:, -1], self.fy[:, 0]))
        self.window = BandWindow(sys.lam, sys.mu)
        self.x, self.y = np.zeros(sys.m), np.zeros(sys.n)
        # only a scratch's first strip of rows is touched, and held in memory
        self.sx, self.sy = (np.empty((rows, width - 1), order="F") for rows in (sys.m, sys.n))
        self.pair, self.held = np.zeros(2 * width * (width - 1)), None
        self.idle = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)] + [(0.0, 0.0, 0.0)] * (width - 2)
        self.views = [(f, f[:, 1:-1], s, it, c) for f, s, it, c in zip(
            (self.fx, self.fy), (self.sx, self.sy), (self.x, self.y),
            self.pair.reshape(2, width, width - 1))]
        # by lead (see _pair): held shared rows in column order, output columns
        keep = (0, 1)[:width - 4]  # gpqmr's pair from step k-1 outlives step k
        self.order = (tuple(range(2, width - 2)) + (0, 1), tuple(range(width - 2)))
        self.pick = (itemgetter(2, 3, *keep, 4), itemgetter(*keep, 2, 3, 4))

    def update(self, rows) -> None:
        """Step k's direction update from the coefficient rows of the shared
        directions, oldest first, then of the x and of the y side's basis
        vector: held, or run with the held step k-1 as one ``mix`` per side."""
        if self.held is None:
            self.held = rows
            return
        self.pair[:] = self._pair(self.held, rows, self.k)
        self.held = None
        for view in self.views:
            mix(*view)

    def _pair(self, held, rows, k) -> list:
        """Steps k-1 (held) and k as one map per side, x side first: rows for
        the block's columns, columns for its directions and increment.  Step
        k-1's new pair (a, b) reaches step k's outputs (late) through step
        k's last two shared rows, gpqmr's older pair also through its first."""
        (pa, pb, pc), (qa, qb, qc) = rows[-4:-2]
        lead = k % 2 == 0  # step k-1's pair sits in columns 1, 2
        pick = self.pick[lead]

        def through(i, o=(0.0, 0.0, 0.0)):  # held input i's (a, b, late)
            a, b, c = held[i]
            return pick((a, b, a * pa + b * qa + o[0], a * pb + b * qb + o[1],
                         a * pc + b * qc + c + o[2]))
        mid, out = [], []
        for i in self.order[lead]:
            mid += through(i, rows[i - 2]) if i >= 2 else through(i)
        for side in (-2, -1):
            new, old = pick((0.0, 0.0, *rows[side])), through(side)  # q_k, q_{k-1}
            out += (*new, *mid, *old) if lead else (*old, *mid, *new)
        return out

    def flush(self) -> None:
        """Apply a held step k alone, as the pair (k, idle k+1): the idle
        step's new pair is its two oldest inputs, so the composite leaves
        what step k alone would, column for column.  ``mix`` reads step
        k's input only, never q_{k+1}'s slot (its row is zero)."""
        if self.held is None:
            return
        self.pair[:] = self._pair(self.held, self.idle, self.k + 1)
        self.held, cols = None, slice(1, None) if self.k % 2 else slice(None, -1)
        for f, dead, s, it, c in self.views:
            mix(f[:, cols], dead, s, it, c[cols])

    @property
    def stopped(self) -> bool:
        return self.red.breakdown is not None

    def iterate(self):
        self.flush()
        return self.x, self.y

    def rescue(self):
        """None: the stopped step's iterate is the only candidate."""

    def result(self, x, y, reason, residual, record) -> SolveResult:
        self.flush()
        return SolveResult(x, y, self.k, reason, float(residual), record,
                           breakdown=self.red.breakdown)


def _sweep(p1, c1, n1, p2, c2, n2, a1, b1, a2, b2):
    """The three-term updates n1 -= a1 p1 + b1 c1 and n2 -= a2 p2 + b2 c2
    of a pair, strip by strip, with its inner product and squared norms.
    p1 is dead after its own terms and doubles as scratch; p2 survives."""
    dot = sq1 = sq2 = 0.0
    for sp1, sc1, sn1, sp2, sc2, sn2 in strips(p1, c1, n1, p2, c2, n2):
        for prev, cur, new, a, b in ((sp1, sc1, sn1, a1, b1),
                                     (sp2, sc2, sn2, a2, b2)):
            np.multiply(prev, a, out=sp1)
            new -= sp1
            np.multiply(cur, b, out=sp1)
            new -= sp1
        dot += sn1.dot(sn2)
        sq1 += sn1.dot(sn1)
        sq2 += sn2.dot(sn2)
    return float(dot), sq1, sq2


def reduction_step(state: ReductionState, sys: PartitionedSystem,
                   defer: bool = False) -> StepCoeffs:
    """Advance the window from index k to k+1 (four operator applications).

    All vector updates reuse the window buffers; the only fresh arrays are
    the four operator results.  The three-term updates, the two inner
    products and the four norms take one pass over row strips per side,
    with p_{k-1} and v_{k-1} as scratch; alpha, theta and the normalizations
    are whole-vector calls.  ``defer`` leaves the normalizations to
    ``commit``, keeping q_{k-1}, u_{k-1} in their buffers until then.  After
    a breakdown (see ``_normalize``) step k's coefficients are still
    returned for the in-flight iteration, and further calls raise.
    """
    if state.breakdown is not None:
        raise RuntimeError("reduction already broke down; cannot step further")
    beta, gamma, delta, eta = state.beta, state.gamma, state.delta, state.eta
    Au = sys.A.apply(state.u_cur)
    ATp = sys.A.apply_transpose(state.p_cur)
    Bq = sys.B.apply(state.q_cur)
    BTv = sys.B.apply_transpose(state.v_cur)

    alpha = float(state.p_cur.dot(Au))
    theta = float(state.v_cur.dot(Bq))

    # ptilde = B^T v - delta_k p_{k-1} - theta p_k, qtilde = A u - gamma_k
    # q_{k-1} - alpha q_k, utilde = B q - eta_k u_{k-1} - theta u_k and
    # vtilde = A^T p - beta_k v_{k-1} - alpha v_k, with each pair's inner
    # product and squared norms, in one sweep per side
    pq, pp, qq = _sweep(state.p_prev, state.p_cur, BTv, state.q_prev, state.q_cur,
                        Au, delta, theta, gamma, alpha)
    uv, vv, uu = _sweep(state.v_prev, state.v_cur, ATp, state.u_prev, state.u_cur,
                        Bq, beta, alpha, eta, theta)
    _normalize(state, pq, BTv, Au, math.sqrt(pp), math.sqrt(qq),
               uv, Bq, ATp, math.sqrt(uu), math.sqrt(vv))
    if not defer:
        commit(state)
    return StepCoeffs(alpha, theta, beta, gamma, delta, eta)
