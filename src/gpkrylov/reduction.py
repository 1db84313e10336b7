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

    __slots__ = ("k", "p_prev", "p_cur", "q_prev", "q_cur", "u_prev", "u_cur",
                 "v_prev", "v_cur", "beta", "gamma", "delta", "eta", "q_norm",
                 "u_norm", "q_prev_norm", "u_prev_norm", "vec_scale", "breakdown")

    def __init__(self, m: int, n: int, q=None, u=None):
        self.k = 0
        self.p_prev, self.p_cur, self.v_prev, self.v_cur = map(np.zeros, [m, m, n, n])
        self.q_prev, self.q_cur = q or (np.zeros(m), np.zeros(m))
        self.u_prev, self.u_cur = u or (np.zeros(n), np.zeros(n))
        self.beta = self.gamma = self.delta = self.eta = 0.0
        self.q_norm = self.u_norm = 0.0
        self.vec_scale = 1.0
        self.breakdown = None


def _scale(w, x, y, nx, ny, nb, out_x, out_y):
    """Normalize one new pair x, y (inner product w, norms nx, ny) into
    out_x, out_y: x takes the root r = sqrt|w| and y the signed quotient
    w / r.  Returns (r, w / r, nb / |w / r|), where nb is the norm of the
    one that becomes a basis vector.  A pair with |w| <= BREAKDOWN_RTOL *
    max(1, nx ny) broke down: it is zeroed and all three are zero."""
    if abs(w) <= BREAKDOWN_RTOL * max(1.0, nx * ny):
        out_x.fill(0.0)
        out_y.fill(0.0)
        return 0.0, 0.0, 0.0
    root = math.sqrt(abs(w))
    quot = w / root
    np.divide(x, root, out=out_x)
    np.divide(y, quot, out=out_y)
    return root, quot, nb / abs(quot)


def _normalize(st: ReductionState, pq, p, q, np_, nq, uv, u, v, nu, nv) -> None:
    """The one normalization and breakdown rule of the start and of every
    step: scale the new pairs (p, q) and (u, v), given with their inner
    products and norms, into the retiring prev buffers (``_scale``), which
    then swap roles with cur, and advance k.  A breakdown is reported at
    iteration k+1 on the first dead pair, lucky if each dead pair has a
    vector below LUCKY_VEC_RTOL * ``vec_scale``.
    """
    st.vec_scale = max(st.vec_scale, np_, nq, nu, nv)
    eta, beta, nq_next = _scale(pq, p, q, np_, nq, nq, st.p_prev, st.q_prev)
    delta, gamma, nu_next = _scale(uv, u, v, nu, nv, nu, st.u_prev, st.v_prev)
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
    strip: scratch rows take live @ coef, whose first two columns overwrite
    the ``dead`` directions and whose last is added to ``it``."""
    for ls, ds, its in strips(live, dead, it):
        ss = scratch[:len(ls)]
        np.matmul(ls, coef, out=ss)
        ds[...] = ss[:, :2]
        its += ss[:, 2]


class RecurrenceState:
    """What gpbilq's and gpqmr's solver states share: the reduction ``red``
    on ``sys``, the factor ``window``, the iterate x, y and per side one
    Fortran-ordered (len x width) block ``fx``/``fy``, [basis slot |
    directions | basis slot], whose slots are red's q (u) buffers: q_k is
    last at odd k and first at even k, so block[:, 1:] or block[:, :-1] is
    step k's input.  ``update`` alone knows this layout.  A subclass keeps
    its factorization policy: ``advance`` steps the reduction and the
    window, counts the step in k and hands ``update`` the direction
    coefficients.  The rest is the solve-loop protocol (see
    ``convergence._solve``) of a method whose iterate is x, y.
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
        self.sx, self.sy = (np.empty((rows, 3), order="F") for rows in (sys.m, sys.n))
        self.cx, self.cy = np.zeros((width - 1, 3)), np.zeros((width - 1, 3))
        # per parity of k, each side's input and the two directions it retires
        self.views = [[(f[:, :-1], f[:, -3:-1]) for f in (self.fx, self.fy)],
                      [(f[:, 1:], f[:, 1:3]) for f in (self.fx, self.fy)]]

    def update(self, rows) -> None:
        """Both sides' ``mix`` at step k from the coefficient rows of the
        shared directions, oldest first, then of the x and of the y side's
        basis vector, ordered as step k's input (the odd steps' pairs lead
        at even k)."""
        *shared, row_x, row_y = rows
        odd = self.k % 2
        self.cx[...] = shared + [row_x] if odd else [row_x] + shared[2:] + shared[:2]
        self.cy[...] = self.cx
        self.cy[-odd] = row_y
        (lx, dx), (ly, dy) = self.views[odd]
        mix(lx, dx, self.sx, self.x, self.cx)
        mix(ly, dy, self.sy, self.y, self.cy)

    @property
    def stopped(self) -> bool:
        return self.red.breakdown is not None

    def iterate(self):
        return self.x, self.y

    def rescue(self):
        """None: the stopped step's iterate is the only candidate."""

    def result(self, x, y, reason, residual, record) -> SolveResult:
        return SolveResult(x, y, self.k, reason, float(residual), record,
                           breakdown=self.red.breakdown)


def _sweep(p1, c1, n1, p2, c2, n2, a1, b1, a2, b2):
    """The three-term updates n1 -= a1 p1 + b1 c1 and n2 -= a2 p2 + b2 c2
    of a pair, strip by strip, with its inner product and squared norms.
    p1 and p2 are dead after their own terms and double as scratch."""
    dot = sq1 = sq2 = 0.0
    for sp1, sc1, sn1, sp2, sc2, sn2 in strips(p1, c1, n1, p2, c2, n2):
        for prev, cur, new, a, b in ((sp1, sc1, sn1, a1, b1),
                                     (sp2, sc2, sn2, a2, b2)):
            prev *= a
            new -= prev
            np.multiply(cur, b, out=prev)
            new -= prev
        dot += sn1.dot(sn2)
        sq1 += sn1.dot(sn1)
        sq2 += sn2.dot(sn2)
    return float(dot), sq1, sq2


def reduction_step(state: ReductionState, sys: PartitionedSystem) -> StepCoeffs:
    """Advance the window from index k to k+1 (four operator applications).

    All vector updates reuse the window buffers; the only fresh arrays are
    the four operator results.  The three-term updates, the two inner
    products and the four norms take one pass over row strips per side;
    alpha, theta and the normalizations are whole-vector calls.  After a
    breakdown (see ``_normalize``) the coefficients of step k are still
    returned so a driver can finish its in-flight iteration, and further
    calls raise.
    """
    if state.breakdown is not None:
        raise RuntimeError("reduction already broke down; cannot step further")
    beta, gamma, delta, eta = state.beta, state.gamma, state.delta, state.eta
    Au = sys.A.apply(state.u_cur)
    ATp = sys.A.apply_transpose(state.p_cur)
    Bq = sys.B.apply(state.q_cur)
    BTv = sys.B.apply_transpose(state.v_cur)

    alpha = float(state.p_cur @ Au)
    theta = float(state.v_cur @ Bq)

    # ptilde = B^T v - delta_k p_{k-1} - theta p_k, qtilde = A u - gamma_k
    # q_{k-1} - alpha q_k, utilde = B q - eta_k u_{k-1} - theta u_k and
    # vtilde = A^T p - beta_k v_{k-1} - alpha v_k, with each pair's inner
    # product and squared norms, in one sweep per side
    pq, pp, qq = _sweep(state.p_prev, state.p_cur, BTv, state.q_prev, state.q_cur,
                        Au, delta, theta, gamma, alpha)
    uv, uu, vv = _sweep(state.u_prev, state.u_cur, Bq, state.v_prev, state.v_cur,
                        ATp, eta, theta, beta, alpha)
    _normalize(state, pq, BTv, Au, math.sqrt(pp), math.sqrt(qq),
               uv, Bq, ATp, math.sqrt(uu), math.sqrt(vv))
    return StepCoeffs(alpha, theta, beta, gamma, delta, eta)
