"""Dense ground truth for the sliding-window solvers (desk scale only).

Every dense materialization of an operator or a system, under one size
guard, and the adjoint probe; the full reduction and factor history, the
dense oracles and factor reconstructions, seeded systems, stepped
gpbilq/gpqmr runs, and one measure per invariant of the paper.  A measure
returns the raw errors at one step; its caller picks the tolerance and the
normalisation.  ``gpkrylov check`` and the tests share these functions; no
solver module imports this one.  The one dense helper left in a solver
module is ``rotations.rotation_block``: the benchmark tracer reads it as
``gpbilq.rotation_block``.
"""

from __future__ import annotations

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
           "random_system", "stepped", "live_directions", "projected_system",
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
    ``directions`` (direction c at index c-1).
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
    is beta_i) and must extend through index k+1 for the subdiagonal
    scalars.
    """
    if len(alphas) < k or len(betas) < k + 1:
        raise ValueError(f"need k={k} diagonal and k+1 coupling coefficients")
    zero = [0.0] * (k + 1)
    lam_i, mu_i = (_tridiag([v] * k, zero, zero, k + 1, k) for v in (lam, mu))
    S = _tridiag(alphas, betas, gammas, k + 1, k)
    T = _tridiag(thetas, deltas, etas, k + 1, k)
    # row (column) j of the top (left) half becomes row (column) 2j, of the
    # bottom (right) half 2j+1
    blocks = np.block([[lam_i, S], [T, mu_i]]).reshape(2, k + 1, 2, k)
    return blocks.transpose(1, 0, 3, 2).reshape(2 * k + 2, 2 * k)


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
    or QMRState; the same two objects, advanced in place, every time."""
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
        yield st, hist


def live_directions(st) -> np.ndarray:
    """A BiLQState's or QMRState's live directions, oldest first, as columns
    of x side over y side (current after ``flush``)."""
    return np.vstack((st.fx, st.fy))[:, :st.dirs]


def projected_system(st, hist: ReductionHistory, rows: int):
    """First ``rows`` rows of the projected matrix at the state's step k and
    the matching right-hand side beta_1 e_1 + delta_1 e_2."""
    H = hist.projected(st.sys.lam, st.sys.mu, st.k)[:rows]
    rhs = np.zeros(rows)
    rhs[0], rhs[1] = hist.betas[0], hist.deltas[0]
    return H, rhs


# -- dense factors from the recorded history ---------------------------------


def bundle_product(bundles, dim: int) -> np.ndarray:
    """dim x dim product of column-rotation bundles, bundle i (from 0)
    acting on coordinates 2i..2i+3."""
    G = np.eye(dim)
    for i, rot in enumerate(bundles):
        emb = np.eye(dim)
        emb[2 * i:2 * i + 4, 2 * i:2 * i + 4] = rotation_block(*rot)
        G = G @ emb
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
    gt = np.eye(dim)
    gt[dim - 2:, dim - 2:] = np.array([[c_k, -s_k], [s_k, c_k]])
    return L, (bundle_product(hist.bundles, dim) @ gt).T


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
    H, rhs = projected_system(st, hist, 2 * st.k - 2)
    return _iterate_gap(st.x, st.y, hist, oracle_minnorm(H, rhs))


def transfer_gap(st: BiLQState, hist: ReductionHistory):
    """Gap of the transfer iterate to the solution of the square projected
    system; None where the iterate does not exist."""
    if not st.attempt_transfer():
        return None
    H, rhs = projected_system(st, hist, 2 * st.k)
    return _iterate_gap(*st.transfer_iterate(), hist, np.linalg.solve(H, rhs))


def lsq_gaps(st: QMRState, hist: ReductionHistory):
    """Gap of the gpqmr iterate to the projected least-squares solution, and
    |quasi-residual - projected residual|."""
    H, rhs = projected_system(st, hist, 2 * st.k + 2)
    z = oracle_lsq(H, rhs)
    return (_iterate_gap(st.x, st.y, hist, z),
            abs(st.quasi - np.linalg.norm(H @ z - rhs)))


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
    H, _ = projected_system(st, hist, 2 * k)
    return (np.linalg.norm(L @ Qf - H), np.linalg.norm(Qf @ Qf.T - np.eye(2 * k)),
            _off_band(L, 4, 0))


def qr_errors(st: QMRState, hist: ReductionHistory):
    """||Q [R; 0] - H||, ||Q Q^T - I|| and the largest entry of R outside its
    upper band of width 4, for the sliding QR of the projection."""
    k = st.k
    Qh, Rh = dense_qr_factors(hist)
    H, _ = projected_system(st, hist, 2 * k + 2)
    return (np.linalg.norm(Qh @ np.vstack([Rh, np.zeros((2, 2 * k))]) - H),
            np.linalg.norm(Qh @ Qh.T - np.eye(2 * k + 2)), _off_band(Rh, 0, 4))


# -- the suite behind ``gpkrylov check`` --------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_invariant_suite(size: int = 12, seed: int = 7) -> list[CheckResult]:
    """Run all invariants on one seeded system; returns one result each."""
    if size < 2:
        raise ValueError(f"size {size} is below 2: a 1x1 reduction ends at its first step")
    if 2 * size > DENSE_GUARD:
        raise ValueError(f"size {size} exceeds the dense verification guard")
    results: list[CheckResult] = []

    def check(name, errs, tol):
        err = max(errs, default=0.0)
        results.append(CheckResult(name, bool(err <= tol), f"{err:.3e} (tol {tol:g})"))

    sys_ = random_system(size, size, seed)
    A, B = to_dense(sys_.A), to_dense(sys_.B)
    nA, nB = np.linalg.norm(A), np.linalg.norm(B)
    steps = max(2, size // 2)
    bi, rel, mn, lq, est_l, tr, est_c = [], [], [], [], [], [], []
    for st, hist in stepped(BiLQState, sys_, steps):
        if st.k < 2:
            continue
        biortho, (au, atp, bq, btv) = reduction_errors(hist, A, B)
        bi.append(biortho)
        rel += [au / nA, atp / nA, bq / nB, btv / nB]
        mn.append(minnorm_gap(st, hist))
        lq += lq_errors(st, hist)[:2]
        gap_l, gap_c = estimate_gaps(st)
        est_l.append(gap_l)
        if gap_c is not None:
            tr.append(transfer_gap(st, hist))
            est_c.append(gap_c)
    check("biorthogonality", bi, 1e-8)
    check("reduction relations", rel, 1e-10)
    check("minimum-norm iterate vs dense", mn, 1e-8)
    check("sliding LQ reconstruction", lq, 1e-12)
    check("residual estimate (min-norm iterate)", est_l, 1e-8)
    check("transfer iterate vs dense", tr, 1e-8)
    check("residual estimate (transfer iterate)", est_c, 1e-8)

    ls, qr = [], []
    quasi_prev = np.inf
    quasi_mono = True
    for st, hist in stepped(QMRState, sys_, steps):
        ls.append(lsq_gaps(st, hist)[0])
        qr += qr_errors(st, hist)[:2]
        quasi_mono = quasi_mono and st.quasi <= quasi_prev + 1e-12
        quasi_prev = st.quasi
    check("least-squares iterate vs dense", ls, 1e-8)
    check("sliding QR reconstruction", qr, 1e-12)
    results.append(CheckResult("quasi-residual monotonicity", quasi_mono,
                               "nonincreasing" if quasi_mono else "increased"))

    # symmetric coupling collapses the two-sided process to one-sided
    ssys = random_system(size, size, seed + 1, mu=-1.0, symmetric=True)
    red3 = reduction_init(ssys)
    err_sym = 0.0
    for _ in range(min(8, size - 1)):
        reduction_step(red3, ssys)
        if red3.breakdown:
            break
        err_sym = max(err_sym, np.max(np.abs(red3.p_cur - red3.q_cur)),
                      np.max(np.abs(red3.u_cur - red3.v_cur)))
    check("symmetric-coupling collapse", [err_sym], 1e-10)

    # a forced starting breakdown must surface as a report, not a crash
    e = np.eye(size)
    blocks = random_system(size, size, seed + 2)
    red0 = reduction_init(PartitionedSystem(1.0, 1.0, blocks.A, blocks.B, e[1],
                                            np.ones(size), f=e[0], g=np.ones(size)))
    results.append(CheckResult("starting breakdown detection",
                               isinstance(red0.breakdown, BreakdownReport),
                               repr(red0.breakdown)))
    return results
