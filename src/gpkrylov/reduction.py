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
    "ReductionHistory",
    "reduction_init",
    "reduction_step",
    "build_projected_h",
    "BREAKDOWN_RTOL",
    "LUCKY_VEC_RTOL",
]

# Declare breakdown when |ptilde^T qtilde| <= BREAKDOWN_RTOL * max(1, |ptilde||qtilde|).
BREAKDOWN_RTOL = 1e-14
# A breakdown is "lucky" when one of the offending vectors itself vanished
# relative to the largest unnormalized vector seen so far.
LUCKY_VEC_RTOL = 1e-13


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
        "scratch_m1", "scratch_m2", "scratch_n1", "scratch_n2",
    )

    def __init__(self):
        self.k = 0
        self.alpha = 0.0
        self.theta = 0.0
        self.breakdown = None
        self.vec_scale = 1.0
        # Retired operator-result arrays; callers may reuse them as scratch
        # between steps so the steady-state loop allocates nothing itself.
        self.scratch_m1 = None
        self.scratch_m2 = None
        self.scratch_n1 = None
        self.scratch_n2 = None


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


def reduction_step(state: ReductionState, sys: PartitionedSystem) -> StepCoeffs:
    """Advance the window from index k to k+1 (four operator applications).

    All vector updates reuse the window buffers; the only fresh arrays are
    the four operator results.  On breakdown the offending pair's index-k+1
    scalars and vectors are zeroed, ``state.breakdown`` is set, and the
    partial coefficients of step k are still returned so a driver can finish
    its in-flight iteration.  Further calls after a breakdown raise.
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

    # ptilde = B^T v - delta_k p_{k-1} - theta p_k; the prev buffer is dead
    # after its own term, so it doubles as scratch for the cur term.
    state.p_prev *= state.delta
    BTv -= state.p_prev
    np.multiply(state.p_cur, theta, out=state.p_prev)
    BTv -= state.p_prev
    # qtilde = A u - gamma_k q_{k-1} - alpha q_k
    state.q_prev *= state.gamma
    Au -= state.q_prev
    np.multiply(state.q_cur, alpha, out=state.q_prev)
    Au -= state.q_prev
    # utilde = B q - eta_k u_{k-1} - theta u_k
    state.u_prev *= state.eta
    Bq -= state.u_prev
    np.multiply(state.u_cur, theta, out=state.u_prev)
    Bq -= state.u_prev
    # vtilde = A^T p - beta_k v_{k-1} - alpha v_k
    state.v_prev *= state.beta
    ATp -= state.v_prev
    np.multiply(state.v_cur, alpha, out=state.v_prev)
    ATp -= state.v_prev

    pq = float(BTv @ Au)
    uv = float(Bq @ ATp)
    np_, nq = np.linalg.norm(BTv), np.linalg.norm(Au)
    nu, nv = np.linalg.norm(Bq), np.linalg.norm(ATp)
    state.vec_scale = max(state.vec_scale, np_, nq, nu, nv)

    pq_down = abs(pq) <= BREAKDOWN_RTOL * max(1.0, np_ * nq)
    uv_down = abs(uv) <= BREAKDOWN_RTOL * max(1.0, nu * nv)

    vec_tol = LUCKY_VEC_RTOL * state.vec_scale
    if pq_down or uv_down:
        lucky = True
        if pq_down:
            lucky = lucky and bool(min(np_, nq) <= vec_tol)
        if uv_down:
            lucky = lucky and bool(min(nu, nv) <= vec_tol)
        kind = "p_q" if pq_down else "u_v"
        magnitude = abs(pq) if pq_down else abs(uv)
        state.breakdown = BreakdownReport(kind, magnitude, k + 1, lucky)

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
    state.scratch_m1, state.scratch_m2 = Au, BTv
    state.scratch_n1, state.scratch_n2 = Bq, ATp
    return coeffs


class ReductionHistory:
    """Opt-in dense accumulation of basis vectors and coefficients.

    Production solvers keep only the sliding window; the history exists for
    verification (biorthogonality, factorization residuals, projected-system
    oracles) and is limited to desk-scale problems by memory.
    """

    def __init__(self, state: ReductionState):
        self.ps = [state.p_cur.copy()]
        self.qs = [state.q_cur.copy()]
        self.us = [state.u_cur.copy()]
        self.vs = [state.v_cur.copy()]
        self.alphas: list[float] = []
        self.thetas: list[float] = []
        self.betas = [state.beta]
        self.gammas = [state.gamma]
        self.deltas = [state.delta]
        self.etas = [state.eta]

    def update(self, state: ReductionState, coeffs: StepCoeffs) -> None:
        self.ps.append(state.p_cur.copy())
        self.qs.append(state.q_cur.copy())
        self.us.append(state.u_cur.copy())
        self.vs.append(state.v_cur.copy())
        self.alphas.append(coeffs.alpha)
        self.thetas.append(coeffs.theta)
        self.betas.append(coeffs.beta_next)
        self.gammas.append(coeffs.gamma_next)
        self.deltas.append(coeffs.delta_next)
        self.etas.append(coeffs.eta_next)

    # -- dense views -------------------------------------------------------

    def P(self, k: int) -> np.ndarray:
        return np.column_stack(self.ps[:k])

    def Q(self, k: int) -> np.ndarray:
        return np.column_stack(self.qs[:k])

    def U(self, k: int) -> np.ndarray:
        return np.column_stack(self.us[:k])

    def V(self, k: int) -> np.ndarray:
        return np.column_stack(self.vs[:k])

    def S(self, k: int) -> np.ndarray:
        """k x k tridiagonal with diagonal alpha, subdiagonal beta, superdiagonal gamma."""
        return _tridiag(self.alphas, self.betas, self.gammas, k)

    def T(self, k: int) -> np.ndarray:
        """k x k tridiagonal with diagonal theta, subdiagonal delta, superdiagonal eta."""
        return _tridiag(self.thetas, self.deltas, self.etas, k)

    def S_rect(self, k: int) -> np.ndarray:
        """(k+1) x k extension of S with trailing row beta_{k+1} e_k^T."""
        out = np.zeros((k + 1, k))
        out[:k, :] = self.S(k)
        out[k, k - 1] = self.betas[k]
        return out

    def T_rect(self, k: int) -> np.ndarray:
        out = np.zeros((k + 1, k))
        out[:k, :] = self.T(k)
        out[k, k - 1] = self.deltas[k]
        return out

    def W(self, k: int) -> np.ndarray:
        """Interleaved basis [q_1|0, 0|u_1, q_2|0, 0|u_2, ...] of width 2k."""
        m = self.qs[0].shape[0]
        n = self.us[0].shape[0]
        out = np.zeros((m + n, 2 * k))
        for j in range(k):
            out[:m, 2 * j] = self.qs[j]
            out[m:, 2 * j + 1] = self.us[j]
        return out

    def projected(self, lam: float, mu: float, k: int) -> np.ndarray:
        return build_projected_h(self.alphas, self.thetas, self.betas,
                                 self.gammas, self.deltas, self.etas,
                                 lam, mu, k)


def _tridiag(diag, sub, sup, k):
    out = np.zeros((k, k))
    for i in range(k):
        out[i, i] = diag[i]
        if i + 1 < k:
            out[i + 1, i] = sub[i + 1]
            out[i, i + 1] = sup[i + 1]
    return out


def build_projected_h(alphas, thetas, betas, gammas, deltas, etas,
                      lam: float, mu: float, k: int) -> np.ndarray:
    """(2k+2) x 2k projected block-tridiagonal matrix.

    Built from 2x2 blocks: diagonal [lam, alpha_i; theta_i, mu], subdiagonal
    [0, beta_i; delta_i, 0], superdiagonal [0, gamma_i; eta_i, 0]; the
    coefficient sequences are 1-based lists (``betas[i-1]`` is beta_i) and
    must extend through index k+1 for the subdiagonal scalars.
    """
    if len(alphas) < k or len(betas) < k + 1:
        raise ValueError(f"need k={k} diagonal and k+1 coupling coefficients")
    H = np.zeros((2 * k + 2, 2 * k))
    for i in range(1, k + 1):
        r = 2 * (i - 1)
        H[r, r] = lam
        H[r, r + 1] = alphas[i - 1]
        H[r + 1, r] = thetas[i - 1]
        H[r + 1, r + 1] = mu
        H[r + 2, r + 1] = betas[i]
        H[r + 3, r] = deltas[i]
        if i < k:
            H[r, r + 3] = gammas[i]
            H[r + 1, r + 2] = etas[i]
    return H
