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
from typing import NamedTuple, Union

import numpy as np

from .linop import PartitionedSystem

__all__ = [
    "BreakdownReport",
    "ReductionState",
    "StepCoeffs",
    "reduction_init",
    "reduction_step",
    "strips",
    "mix",
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
    """Scalars produced by one reduction step.

    ``k`` is the step index: alpha/theta are the step-k diagonal entries,
    the ``*_k`` fields are the index-k coupling scalars that entered the
    recurrences, and the ``*_next`` fields are the freshly computed index-k+1
    scalars (zero for a pair that broke down).
    """

    k: int
    alpha: float
    theta: float
    beta_k: float
    gamma_k: float
    delta_k: float
    eta_k: float
    beta_next: float
    gamma_next: float
    delta_next: float
    eta_next: float


class ReductionState:
    """Single-owner sliding window of the reduction (index k = current)."""

    __slots__ = (
        "k", "p_prev", "p_cur", "q_prev", "q_cur", "u_prev", "u_cur",
        "v_prev", "v_cur", "alpha", "theta", "beta", "gamma", "delta", "eta",
        "beta1", "delta1", "q_norm", "u_norm", "q_prev_norm", "u_prev_norm",
        "vec_scale", "breakdown",
    )

    def __init__(self):
        self.k = 0
        self.alpha = 0.0
        self.theta = 0.0
        self.breakdown = None
        self.vec_scale = 1.0


def reduction_init(sys: PartitionedSystem) -> Union[ReductionState, BreakdownReport]:
    """Scale the starting vectors into the first biorthogonal quadruple.

    Returns the initialized state, or a BreakdownReport at iteration 1 when
    f^T b or c^T g is negligible (the process cannot start).
    """
    f, b, c, g = sys.f, sys.b, sys.c, sys.g
    fb = float(f @ b)
    cg = float(c @ g)
    nf, nb = np.linalg.norm(f), np.linalg.norm(b)
    nc, ng = np.linalg.norm(c), np.linalg.norm(g)
    scale = max(1.0, nf, nb, nc, ng)
    if abs(fb) <= BREAKDOWN_RTOL * max(1.0, nf * nb):
        lucky = bool(min(nf, nb) <= LUCKY_VEC_RTOL * scale)
        return BreakdownReport("p_q", abs(fb), 1, lucky)
    if abs(cg) <= BREAKDOWN_RTOL * max(1.0, nc * ng):
        lucky = bool(min(nc, ng) <= LUCKY_VEC_RTOL * scale)
        return BreakdownReport("u_v", abs(cg), 1, lucky)

    eta1 = math.sqrt(abs(fb))
    beta1 = fb / eta1
    delta1 = math.sqrt(abs(cg))
    gamma1 = cg / delta1

    st = ReductionState()
    st.k = 1
    st.p_cur = f / eta1
    st.q_cur = b / beta1
    st.u_cur = c / delta1
    st.v_cur = g / gamma1
    st.p_prev = np.zeros(sys.m)
    st.q_prev = np.zeros(sys.m)
    st.u_prev = np.zeros(sys.n)
    st.v_prev = np.zeros(sys.n)
    st.beta, st.gamma, st.delta, st.eta = beta1, gamma1, delta1, eta1
    st.beta1, st.delta1 = beta1, delta1
    st.q_norm = nb / abs(beta1)
    st.u_norm = nc / abs(delta1)
    st.q_prev_norm = 0.0
    st.u_prev_norm = 0.0
    st.vec_scale = scale
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


def mix(block, spare, basis, it, coef):
    """A short recurrence's direction update and iterate increment, per row
    strip: ``basis`` into the block's last column, spare = block @ coef and
    ``it`` += spare[:, -1]."""
    for bs, ss, vs, its in strips(block, spare, basis, it):
        bs[:, -1] = vs
        np.matmul(bs, coef, out=ss)
        its += ss[:, -1]


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
    alpha, theta and the normalizations are whole-vector calls.  On
    breakdown the offending pair's index-k+1 scalars and vectors are zeroed,
    ``state.breakdown`` is set, and the partial coefficients of step k are
    still returned so a driver can finish its in-flight iteration.  Further
    calls after a breakdown raise.
    """
    if state.breakdown is not None:
        raise RuntimeError("reduction already broke down; cannot step further")
    k = state.k
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
                        Au, state.delta, theta, state.gamma, alpha)
    uv, uu, vv = _sweep(state.u_prev, state.u_cur, Bq, state.v_prev, state.v_cur,
                        ATp, state.eta, theta, state.beta, alpha)
    np_, nq, nu, nv = math.sqrt(pp), math.sqrt(qq), math.sqrt(uu), math.sqrt(vv)
    state.vec_scale = max(state.vec_scale, np_, nq, nu, nv)

    pq_down = abs(pq) <= BREAKDOWN_RTOL * max(1.0, np_ * nq)
    uv_down = abs(uv) <= BREAKDOWN_RTOL * max(1.0, nu * nv)

    vec_tol = LUCKY_VEC_RTOL * state.vec_scale
    if pq_down or uv_down:
        lucky = ((not pq_down or min(np_, nq) <= vec_tol)
                 and (not uv_down or min(nu, nv) <= vec_tol))
        state.breakdown = BreakdownReport("p_q" if pq_down else "u_v",
                                          abs(pq if pq_down else uv), k + 1, lucky)

    # Normalize into the retiring prev buffers, then swap roles so that
    # cur -> index k+1 and prev -> index k.  A dead pair contributes zero
    # vectors and zero coupling scalars from here on.
    if pq_down:
        eta_next = beta_next = 0.0
        state.p_prev.fill(0.0)
        state.q_prev.fill(0.0)
        nq_next = 0.0
    else:
        eta_next = math.sqrt(abs(pq))
        beta_next = pq / eta_next
        np.divide(BTv, eta_next, out=state.p_prev)
        np.divide(Au, beta_next, out=state.q_prev)
        nq_next = nq / abs(beta_next)
    if uv_down:
        delta_next = gamma_next = 0.0
        state.u_prev.fill(0.0)
        state.v_prev.fill(0.0)
        nu_next = 0.0
    else:
        delta_next = math.sqrt(abs(uv))
        gamma_next = uv / delta_next
        np.divide(Bq, delta_next, out=state.u_prev)
        np.divide(ATp, gamma_next, out=state.v_prev)
        nu_next = nu / abs(gamma_next)
    state.p_prev, state.p_cur = state.p_cur, state.p_prev
    state.q_prev, state.q_cur = state.q_cur, state.q_prev
    state.u_prev, state.u_cur = state.u_cur, state.u_prev
    state.v_prev, state.v_cur = state.v_cur, state.v_prev

    coeffs = StepCoeffs(k, alpha, theta,
                        state.beta, state.gamma, state.delta, state.eta,
                        beta_next, gamma_next, delta_next, eta_next)

    state.q_prev_norm = state.q_norm
    state.u_prev_norm = state.u_norm
    state.q_norm = nq_next
    state.u_norm = nu_next
    state.alpha, state.theta = alpha, theta
    state.beta, state.gamma, state.delta, state.eta = (
        beta_next, gamma_next, delta_next, eta_next)
    state.k = k + 1
    return coeffs
