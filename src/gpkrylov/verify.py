"""Dense ground truth for the sliding-window solvers (desk scale only).

Every dense materialization of an operator or a system, under one size
guard, and the adjoint probe; the full reduction and factor history, the
dense oracles and factor reconstructions, seeded systems, stepped
gpbilq/gpqmr runs, and one measure per invariant of the paper.  A measure
returns the raw errors at one step; its caller picks the tolerance and the
normalisation.  ``run_invariant_suite`` is the one statement of acceptance
criteria 1-7, their fixed systems and bounds, and both ``gpkrylov check``
and the tests run it; biorthogonality is an invariant of its criterion-1
systems only.  No solver module imports this one, nor does ``import
gpkrylov``.  The one dense helper left in a solver module is
``rotations.rotation_block``: the benchmark tracer reads it as
``gpbilq.rotation_block``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .gpbilq import BiLQState
from .gpqmr import QMRState
from .linop import Operator, PartitionedSystem, residual_norm
from .reduction import (BreakdownReport, ReductionState, StepCoeffs,
                        reduction_init, reduction_step)
from .rotations import rotation_block

__all__ = ["DENSE_GUARD", "to_dense", "assemble_dense", "adjoint_mismatch",
           "ReductionHistory", "build_projected_h",
           "oracle_minnorm", "oracle_lsq", "oracle_dense_solve",
           "random_system", "stepped", "live_directions",
           "bundle_product", "dense_lq_factors", "dense_qr_factors",
           "reduction_errors", "minnorm_gap", "transfer_gap", "lsq_gaps",
           "estimate_gaps", "lq_errors", "qr_errors",
           "CheckResult", "run_invariant_suite"]

# Largest m+n of a system, and largest dimension of an operator, made dense.
DENSE_GUARD = 2000


def to_dense(op: Operator) -> np.ndarray:
    """Materialize an operator column by column."""
    if max(op.shape) > DENSE_GUARD:
        raise ValueError(f"operator too large to densify ({op.shape})")
    return np.column_stack([op.apply(e) for e in np.eye(op.ncols)])


def assemble_dense(sys: PartitionedSystem) -> np.ndarray:
    """Explicit (m+n) x (m+n) matrix [lam*I, A; B, mu*I]."""
    m, n = sys.m, sys.n
    if m + n > DENSE_GUARD:
        raise ValueError(f"system too large for dense assembly (m+n={m + n} > {DENSE_GUARD})")
    return np.block([[sys.lam * np.eye(m), to_dense(sys.A)],
                     [to_dense(sys.B), sys.mu * np.eye(n)]])


def adjoint_mismatch(op: Operator, rng=None) -> float:
    """Largest relative gap between <y, A x> and <A^T y, x> over three
    random probe pairs."""
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(3):
        x, y = rng.standard_normal(op.ncols), rng.standard_normal(op.nrows)
        lhs, rhs = float(y @ op.apply(x)), float(op.apply_transpose(y) @ x)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst


class ReductionHistory:
    """Every basis vector and coefficient of a reduction run; the solvers
    themselves keep only the sliding window.

    ``stepped`` also records what each window step finalized: the upper
    factor's ``columns`` (column c at index c-1, as the window holds it;
    gpbilq's lower factor is their transpose), the
    rotation ``bundles``, the solution ``entries`` (gpbilq's forward
    substitution, gpqmr's rotated right-hand side) and gpqmr's stacked x|y
    ``directions`` (direction c at index c-1), and the step's full
    projection ``H``, (2k+2) x 2k, with its right-hand side ``rhs``,
    beta_1 e_1 + delta_1 e_2; each measure slices its own rows of both.
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
        self.columns: list[tuple] = []
        self.bundles: list[tuple] = []
        self.entries: list[float] = []
        self.directions: list[np.ndarray] = []
        self.H = self.rhs = None

    def update(self, state: ReductionState, coeffs: StepCoeffs) -> None:
        self.ps.append(state.p_cur.copy())
        self.qs.append(state.q_cur.copy())
        self.us.append(state.u_cur.copy())
        self.vs.append(state.v_cur.copy())
        self.alphas.append(coeffs.alpha)
        self.thetas.append(coeffs.theta)
        self.betas.append(state.beta)
        self.gammas.append(state.gamma)
        self.deltas.append(state.delta)
        self.etas.append(state.eta)

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


def _tridiag(diag, sub, sup, rows, cols):
    """rows x cols leading block of the tridiagonal with the given diagonal
    and 1-based sub- and superdiagonal lists."""
    out = np.zeros((rows, cols))
    for i in range(min(rows, cols)):
        out[i, i] = diag[i]
        if i + 1 < rows:
            out[i + 1, i] = sub[i + 1]
        if i + 1 < cols:
            out[i, i + 1] = sup[i + 1]
    return out


def build_projected_h(alphas, thetas, betas, gammas, deltas, etas,
                      lam: float, mu: float, k: int) -> np.ndarray:
    """(2k+2) x 2k projected block-tridiagonal matrix.

    The row and column interleave of [[lam I, S], [T, mu I]], with S and T
    the (k+1) x k tridiagonals (diagonal, sub, super) = (alpha, beta, gamma)
    and (theta, delta, eta): 2x2 diagonal blocks [lam, alpha_i; theta_i,
    mu], subdiagonal [0, beta_i; delta_i, 0], superdiagonal [0, gamma_i;
    eta_i, 0].  The coefficient sequences are 1-based lists (``betas[i-1]``
    is beta_i) and must extend through index k, the subdiagonals through
    index k+1.
    """
    if min(map(len, (alphas, thetas, gammas, etas, betas[1:], deltas[1:]))) < k:
        raise ValueError(f"need k={k} diagonal and superdiagonal and k+1 "
                         "subdiagonal coupling coefficients")
    # row (column) j of the top (left) half becomes row (column) 2j, of the
    # bottom (right) half 2j+1
    H = np.zeros((2 * k + 2, 2 * k))
    H[0::2, 0::2] = lam * np.eye(k + 1, k)
    H[0::2, 1::2] = _tridiag(alphas, betas, gammas, k + 1, k)
    H[1::2, 0::2] = _tridiag(thetas, deltas, etas, k + 1, k)
    H[1::2, 1::2] = mu * np.eye(k + 1, k)
    return H


# -- dense oracles ----------------------------------------------------------


def oracle_minnorm(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of a consistent underdetermined system.

    Raises when H is row-rank deficient or the system is inconsistent, that
    is, when ||H z - rhs|| exceeds 1e-10 max(1, ||rhs||).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    z, _, rank, _ = np.linalg.lstsq(H, rhs, rcond=None)
    if rank < H.shape[0]:
        raise ValueError(f"constraint matrix is rank deficient (rank {rank} < {H.shape[0]})")
    gap = np.linalg.norm(H @ z - rhs)
    if gap > 1e-10 * max(1.0, np.linalg.norm(rhs)):
        raise ValueError(f"constraints are inconsistent (residual {gap:.3e})")
    return z


def oracle_lsq(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense least-squares solution; raises on column-rank deficiency."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    z, _, rank, _ = np.linalg.lstsq(H, rhs, rcond=None)
    if rank < H.shape[1]:
        raise ValueError(f"matrix is column-rank deficient (rank {rank} < {H.shape[1]})")
    return z


def oracle_dense_solve(sys: PartitionedSystem):
    """Direct dense solution (ground truth for convergence tests)."""
    K = assemble_dense(sys)
    rhs = np.concatenate([sys.b, sys.c])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("assembled system matrix is singular") from exc
    return sol[:sys.m], sol[sys.m:]


# -- seeded systems and stepped runs ------------------------------------------


def random_system(m, n, seed, lam=1.0, mu=-0.5, symmetric=False,
                  sparse_ops=False, fg_random=False) -> PartitionedSystem:
    """Seeded system with unit-scale Gaussian blocks.

    Draws A, B, b, c and then f, g in that order; B = A^T takes no draw
    when ``symmetric``, and f = b, g = c unless ``fg_random``.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    B = A.T.copy() if symmetric else rng.standard_normal((n, m))
    if sparse_ops:
        from scipy import sparse
        A, B = sparse.csr_matrix(A), sparse.csr_matrix(B)
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    f = rng.standard_normal(m) if fg_random else None
    g = rng.standard_normal(n) if fg_random else None
    return PartitionedSystem(lam, mu, Operator.from_matrix(A),
                             Operator.from_matrix(B), b, c, f, g)


def stepped(state_cls, sys: PartitionedSystem, steps: int):
    """Yield (state, history) after each of ``steps`` steps of a BiLQState
    or QMRState; the same two objects, advanced in place, every time, the
    history holding the step's projection and right-hand side."""
    st = state_cls(sys)
    hist = ReductionHistory(st.red)
    for _ in range(steps):
        hist.update(st.red, st.advance())
        st.flush()
        if st.window.i > len(hist.bundles):
            hist.columns += st.window.cols
            hist.bundles.append(st.window.rot)
            hist.entries += st.varpi[2:] if state_cls is BiLQState else st.rhs[:2]
            if state_cls is QMRState:  # the newest two, d_{2k-1} and d_{2k}
                hist.directions += list(live_directions(st)[:, -2:].T)
        hist.H = hist.projected(sys.lam, sys.mu, st.k)
        hist.rhs = np.array([hist.betas[0], hist.deltas[0]] + [0.0] * (2 * st.k))
        yield st, hist


def live_directions(st) -> np.ndarray:
    """A BiLQState's or QMRState's live directions, oldest first, as columns
    of x side over y side (current after ``flush``)."""
    return np.vstack((st.fx, st.fy))[:, :st.dirs]


# -- dense factors from the recorded history ---------------------------------


def bundle_product(bundles, dim: int) -> np.ndarray:
    """dim x dim product of column-rotation bundles, bundle i (from 0)
    acting on coordinates 2i..2i+3."""
    G = np.eye(dim)
    for i, rot in enumerate(bundles):
        G[:, 2 * i:2 * i + 4] = G[:, 2 * i:2 * i + 4] @ rotation_block(*rot)
    return G


def _banded(columns, dim: int) -> np.ndarray:
    """dim x dim upper factor with entry d of recorded column c in row c - d,
    cut to the matrix."""
    out = np.zeros((dim, dim))
    for c, col in enumerate(columns[:dim]):
        for d, entry in enumerate(col[:c + 1]):
            out[c - d, c] = entry
    return out


def dense_lq_factors(st: BiLQState, hist: ReductionHistory):
    """(L~, Q~) of the square projected matrix at the state's step k.

    L~ is lower banded(4) except for its rotated trailing 2x2 corner and Q~
    is orthogonal; their product reproduces the projected matrix.  L~ is
    the transpose of the upper factor: columns 1..2k-2 from the recorded
    history, columns 2k-1 and 2k from the window's finished entries and its
    hand-off corner.
    """
    dim = 2 * st.k
    c_k, s_k, odd, even = st.window.corner()
    L = _banded(hist.columns + [odd, even], dim).T
    G = bundle_product(hist.bundles, dim)
    G[:, -2:] = G[:, -2:] @ np.array([[c_k, -s_k], [s_k, c_k]])
    return L, G.T


def dense_qr_factors(hist: ReductionHistory):
    """(Q_hat, R_hat) at k = the number of recorded QR bundles: Q_hat
    (2k+2)x(2k+2) orthogonal, R_hat 2k x 2k, with the projected matrix equal
    to Q_hat @ [R_hat; 0]."""
    dim = len(hist.columns)
    # the row-rotation bundles premultiply, so Q_hat is their transposed product
    return bundle_product(hist.bundles, dim + 2), _banded(hist.columns, dim)


# -- one measure per invariant ------------------------------------------------


def reduction_errors(hist: ReductionHistory, A: np.ndarray, B: np.ndarray):
    """Biorthogonality max(|P^T Q - I|, |U^T V - I|) and the Frobenius
    residuals of the relations for A U, A^T P, B Q and B^T V, at k = the
    number of steps recorded."""
    k = len(hist.alphas)
    P, Q, U, V = (np.column_stack(vs) for vs in (hist.ps, hist.qs, hist.us, hist.vs))
    S = hist.alphas, hist.betas, hist.gammas  # diagonal, sub, super
    T = hist.thetas, hist.deltas, hist.etas
    eye = np.eye(k)
    biortho = max(np.max(np.abs(P[:, :k].T @ Q[:, :k] - eye)),
                  np.max(np.abs(U[:, :k].T @ V[:, :k] - eye)))
    return biortho, (np.linalg.norm(A @ U[:, :k] - Q @ _tridiag(*S, k + 1, k)),
                     np.linalg.norm(A.T @ P[:, :k] - V @ _tridiag(*S, k, k + 1).T),
                     np.linalg.norm(B @ Q[:, :k] - U @ _tridiag(*T, k + 1, k)),
                     np.linalg.norm(B.T @ V[:, :k] - P @ _tridiag(*T, k, k + 1).T))


def _iterate_gap(x, y, hist, z):
    """||[x; y] - W z|| / max(1, ||W z||) for a projected solution z."""
    sol = hist.W(len(z) // 2) @ z
    return np.linalg.norm(np.concatenate([x, y]) - sol) / max(1.0, np.linalg.norm(sol))


def minnorm_gap(st: BiLQState, hist: ReductionHistory):
    """Gap of the gpbilq iterate to the minimum-norm solution of the first
    2k-2 projected rows (k >= 2)."""
    rows = 2 * st.k - 2
    return _iterate_gap(st.x, st.y, hist, oracle_minnorm(hist.H[:rows], hist.rhs[:rows]))


def transfer_gap(st: BiLQState, hist: ReductionHistory):
    """Gap of the transfer iterate to the solution of the square projected
    system; None where the iterate does not exist."""
    if not st.attempt_transfer():
        return None
    rows = 2 * st.k
    return _iterate_gap(*st.transfer_iterate(), hist,
                        np.linalg.solve(hist.H[:rows], hist.rhs[:rows]))


def lsq_gaps(st: QMRState, hist: ReductionHistory):
    """Gap of the gpqmr iterate to the projected least-squares solution, and
    |quasi-residual - projected residual|."""
    z = oracle_lsq(hist.H, hist.rhs)
    return (_iterate_gap(st.x, st.y, hist, z),
            abs(st.quasi - np.linalg.norm(hist.H @ z - hist.rhs)))


def estimate_gaps(st: BiLQState):
    """|estimate - true residual| / max(1, true residual) of the gpbilq
    iterate and of the transfer iterate (None where it does not exist), at
    k >= 2."""
    true = residual_norm(st.sys, st.x, st.y)
    gap_l = abs(st.estimate_residual_l() - true) / max(1.0, true)
    if not st.attempt_transfer():
        return gap_l, None
    true_c = residual_norm(st.sys, *st.transfer_iterate())
    return gap_l, abs(st.estimate_residual_c() - true_c) / max(1.0, true_c)


def _off_band(M, lower, upper):
    """Largest |entry| of M outside its first ``lower`` subdiagonals and
    ``upper`` superdiagonals."""
    return np.max(np.abs(M - np.triu(np.tril(M, upper), -lower)))


def lq_errors(st: BiLQState, hist: ReductionHistory):
    """||L Q - H||, ||Q Q^T - I|| and the largest entry of L outside its
    lower band of width 4, for the sliding LQ of the square projection
    (k >= 2)."""
    k = st.k
    L, Qf = dense_lq_factors(st, hist)
    return (np.linalg.norm(L @ Qf - hist.H[:2 * k]),
            np.linalg.norm(Qf @ Qf.T - np.eye(2 * k)), _off_band(L, 4, 0))


def qr_errors(st: QMRState, hist: ReductionHistory):
    """||Q [R; 0] - H||, ||Q Q^T - I|| and the largest entry of R outside its
    upper band of width 4, for the sliding QR of the projection."""
    k = st.k
    Qh, Rh = dense_qr_factors(hist)
    return (np.linalg.norm(Qh @ np.vstack([Rh, np.zeros((2, 2 * k))]) - hist.H),
            np.linalg.norm(Qh @ Qh.T - np.eye(2 * k + 2)), _off_band(Rh, 0, 4))


# -- the suite behind ``gpkrylov check`` --------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_invariant_suite() -> list[CheckResult]:
    """Acceptance criteria 1-7 on their own fixed systems: one result per
    check, named after its criterion, its bound stated where it is measured
    (a third key element marks a lower bound).  Criterion 1 runs the plain
    reduction, 2 the one with B = A^T, 3-7 BiLQState and QMRState on
    random_system(12, 12, s, fg_random) for s = 520-524, 530-534, 540-544,
    550-554 and 560, each with the further systems listed in its loop.
    Biorthogonality is held on criterion 1's systems alone: two-sided
    Lanczos loses it in floating point (Day, SIMAX 1997), to 1.0e-6 after 8
    steps on (12, 12, 42, fg_random); ROADMAP item 11 is to estimate it.
    """
    seen = defaultdict(list)  # (name, bound[, ">"]) -> the measured values
    norm = np.linalg.norm

    def relations(sys_, hist):  # records the relations, returns biorthogonality
        A, B = to_dense(sys_.A), to_dense(sys_.B)
        biortho, rels = reduction_errors(hist, A, B)
        seen["1 reduction relations", 1e-10].append(max(rels) / min(norm(A), norm(B)))
        return biortho

    for sys_, steps in [*((random_system(20, 20, s), 10) for s in range(500, 510)),
                        (random_system(20, 20, 22, fg_random=True), 10),
                        (random_system(5, 5, 21, fg_random=True), 4),
                        (random_system(12, 12, 7), 6)]:
        red = reduction_init(sys_)
        hist = ReductionHistory(red)
        for _ in range(steps):
            hist.update(red, reduction_step(red, sys_))
        seen["1 biorthogonality", 1e-8].append(relations(sys_, hist))
    e, blocks = np.eye(12), random_system(12, 12, 9)
    red = reduction_init(PartitionedSystem(1.0, 1.0, blocks.A, blocks.B, e[1],
                                           np.ones(12), f=e[0], g=np.ones(12)))
    results = [CheckResult("1 starting breakdown detection",
                           isinstance(red.breakdown, BreakdownReport), repr(red.breakdown))]
    for sys_, steps in ((random_system(15, 15, 510, mu=-1.0, symmetric=True), 8),
                        (random_system(12, 12, 8, mu=-1.0, symmetric=True), 8),
                        (random_system(4, 4, 20, symmetric=True), 3)):
        red = reduction_init(sys_)
        for _ in range(steps):
            reduction_step(red, sys_)
            seen["2 symmetric-coupling collapse", 1e-12] += [
                np.max(np.abs(red.p_cur - red.q_cur)), np.max(np.abs(red.u_cur - red.v_cur))]
    family = [(random_system(m, n, s, fg_random=True), k) for m, n, s, k in (
        *((12, 12, s, 8) for s in (*range(520, 525), *range(530, 535), *range(540, 545),
                                   *range(550, 555), 560, *range(40, 45), *range(100, 105))),
        (11, 11, 50, 8), (10, 8, 30, 6), (10, 8, 90, 6), (10, 10, 111, 7))]
    for sys_, steps in [(random_system(12, 12, 7), 8), *family]:
        defined = 0
        for st, hist in stepped(BiLQState, sys_, steps):
            if (gap := transfer_gap(st, hist)) is not None:
                defined += st.k > 1
                seen["5 transfer iterate vs dense", 1e-8].append(gap)
            if st.k < 2:
                continue
            seen["3 row rank of the projection", 1e-10, ">"].append(
                norm(hist.H[:2 * st.k - 2], -2))
            seen["3 minimum-norm iterate vs dense", 1e-8].append(minnorm_gap(st, hist))
            gap_l, gap_c = estimate_gaps(st)
            seen["6 residual estimate (min-norm iterate)", 1e-8].append(gap_l)
            if gap_c is not None:
                seen["6 residual estimate (transfer iterate)", 1e-8].append(gap_c)
            *lq, band = lq_errors(st, hist)
            seen["7 sliding LQ reconstruction", 1e-12] += lq
            seen["7 L outside its lower band", 1e-14].append(band)
        relations(sys_, hist)
        seen["5 transfer iterate defined (steps k > 1 per run)", 4, ">"].append(defined)
        prev = np.inf
        for st, hist in stepped(QMRState, sys_, steps):
            seen["4 column rank of the projection", 1e-10, ">"].append(norm(hist.H, -2))
            iterate_gap, quasi_gap = lsq_gaps(st, hist)
            seen["4 least-squares iterate vs dense", 1e-8].append(iterate_gap)
            seen["4 quasi-residual vs projected residual", 1e-12].append(quasi_gap)
            seen["4 quasi-residual monotonicity", 1e-12].append(max(0.0, st.quasi - prev))
            prev = st.quasi
            seen["6 true residual above ||W(k+1)|| quasi", 1e-9].append(
                residual_norm(sys_, st.x, st.y) - norm(hist.W(st.k + 1), 2) * st.quasi)
            *qr, band = qr_errors(st, hist)
            seen["7 sliding QR reconstruction", 1e-12] += qr
            seen["7 R outside its upper band", 1e-14].append(band)
            seen["7 R diagonal", 0.0, ">"] += [col[0] for col in hist.columns]
    for (name, bound, *floor), values in seen.items():
        value = min(values) if floor else max(values)
        results.append(CheckResult(name, bool(value > bound if floor else value <= bound),
                                   f"{value:.3g} ({'>' if floor else '<='} {bound:g})"))
    return sorted(results, key=lambda r: r.name)
