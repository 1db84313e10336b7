"""The paper's special case B = ±A^T, f = b, g = c, where the two-sided
reduction collapses to Saunders-Simon-Yip tridiagonalization: dense oracles
over the interleaved basis W(k) = [q_1|0, 0|u_1, ...] of
``ReductionHistory.W``.

gpqmr is then the minimum-residual method over W(k) (TriMR with M = N = I)
and gpbicg's transfer iterate meets TriCG's Galerkin condition
W(k)^T r_k = 0.  W(k) stays orthonormal to 3e-14 over the first
``ORTHONORMAL_STEPS`` steps of these systems; later, on the square one, it
loses orthogonality (3e-7 at k = 24), and the iterate and Galerkin checks
are held to the early steps, while the residual check runs to
k = min(m, n) - 1.

At grid scale gpmr is the oracle, with no densification: GPMR with
B = +-A^T, f = b and g = c minimizes the residual over the same subspace,
its bases V(k), U(k) spanning W(k), and keeps them orthonormal to working
precision.  On the benchmark's grid family (N = 20 and 60) gpqmr's iterate
is gpmr's to 3e-16-4e-14 relative up to k = 200, and gpbicg's residual is
orthogonal to V(k), U(k) to 4e-15-1.3e-11 relative to ||[b; c]||.  On the
dense systems above, gpqmr's iterate is gpmr's to 4e-15 relative over the
first ``ORTHONORMAL_STEPS`` steps and to 1.4e-11 up to the last k where the
two-sided reduction is still biorthogonal and satisfies its relations to
1e-10 (k = 18-20): the 1e-12 of the grid family does not hold that far.

With general B = -A^T + E on the grid family, gpmr's process still gives
ground truth with no densification: on the system itself its V(k), U(k)
span the two-sided reduction's primal spaces, and on the transposed system
(A' = B^T, B' = A^T, b' = f, c' = g) its dual ones.  gpqmr's and gpbilq's
iterates lie in the primal span to 1.7e-15 relative, and gpbicg's residual
is orthogonal to the dual bases to 1.6e-12 relative to ||[b; c]||, for
||E||_F up to 0.3 ||A||_F and k up to 40 (100 at N = 60, ||E|| = 1e-2 ||A||).
At E = 0 the dual spaces are the primal ones.
"""

import numpy as np
import pytest

from gpkrylov import (BiLQState, Operator, PartitionedSystem, QMRState,
                      apply_partitioned)
from gpkrylov.baselines import GPMRState, HessenbergProcessState
from gpkrylov.verify import (assemble_dense, random_system, reduction_errors, stepped,
                             to_dense)

from perfbench import gen

SHAPES = [(30, 20, 5), (25, 25, 9), (20, 35, 11)]
SCALARS = [(1.0, -0.5), (0.0, -1.0), (2.0, 1.0)]
ORTHONORMAL_STEPS = 12


def ssy_system(m, n, seed, sign, lam, mu):
    """``random_system(symmetric=True)`` with B = sign * A^T."""
    s = random_system(m, n, seed, lam=lam, mu=mu, symmetric=True)
    if sign > 0:
        return s
    return PartitionedSystem(lam, mu, s.A, Operator.from_matrix(-to_dense(s.A).T),
                             s.b, s.c)


def cases():
    return [pytest.param(sign, shape, scalars,
                         id=f"{'+' if sign > 0 else '-'}AT-{shape[0]}x{shape[1]}"
                            f"-lam{scalars[0]:g}-mu{scalars[1]:g}")
            for sign in (1, -1) for shape in SHAPES for scalars in SCALARS]


@pytest.mark.parametrize("sign, shape, scalars", cases())
def test_gpqmr_is_the_minimum_residual_method_over_the_ssy_basis(sign, shape, scalars):
    m, n, seed = shape
    sys_ = ssy_system(m, n, seed, sign, *scalars)
    K = assemble_dense(sys_)
    rhs = np.concatenate([sys_.b, sys_.c])
    for st, hist in stepped(QMRState, sys_, min(m, n) - 1):
        W = hist.W(st.k)
        best = W @ np.linalg.lstsq(K @ W, rhs, rcond=None)[0]
        it = np.concatenate([st.x, st.y])
        res, res_best = (np.linalg.norm(rhs - K @ v) for v in (it, best))
        assert abs(res / res_best - 1) <= 1e-10, st.k
        if st.k <= ORTHONORMAL_STEPS:
            assert np.linalg.norm(it - best) <= 1e-10 * np.linalg.norm(best), st.k


@pytest.mark.parametrize("sign, shape, scalars", cases())
def test_gpbicg_meets_the_galerkin_condition_over_the_ssy_basis(sign, shape, scalars):
    m, n, seed = shape
    sys_ = ssy_system(m, n, seed, sign, *scalars)
    K = assemble_dense(sys_)
    rhs = np.concatenate([sys_.b, sys_.c])
    defined = 0
    for st, hist in stepped(BiLQState, sys_, ORTHONORMAL_STEPS):
        if not st.attempt_transfer():
            continue
        defined += 1
        r = rhs - K @ np.concatenate(st.transfer_iterate())
        assert np.linalg.norm(hist.W(st.k).T @ r) <= 1e-10 * np.linalg.norm(rhs), st.k
    assert defined == ORTHONORMAL_STEPS


# -- gpmr as the oracle on the grid family -----------------------------------

GRID_CASES = [pytest.param(N, ks, sign, id=f"N{N}-{'+' if sign > 0 else '-'}AT")
              for N, ks in ((20, (10, 40, 100)), (60, (50, 200))) for sign in (1, -1)]
# general B = -A^T + E, ||E||_F = eps ||A||_F, to the k where both checks
# still hold with margin (N = 60, eps = 0.3 reads 8.0e-10 at k = 100)
GENERAL_B_CASES = [pytest.param(N, ks, -1, eps, id=f"N{N}--AT+E{eps:g}")
                   for N, eps, ks in ((20, 1e-2, (10, 40)), (20, 0.3, (10, 40)),
                                      (60, 1e-2, (40, 100)), (60, 0.3, (10, 40)))]


def grid_system(N, sign, E=None):
    """The grid workloads' system at size N with B = sign * A^T (+ E), b and
    c from ``gen.grid_rhs(N, 0, 0)``, f = b and g = c."""
    A = gen.grid_gradient(N)
    B = sign * A.T.tocsr()
    return PartitionedSystem(1.0, -1e-2, Operator.from_matrix(A),
                             Operator.from_matrix(B if E is None else B + E),
                             *gen.grid_rhs(N, 0, 0))


def pattern_noise(N, eps, seed=0):
    """A random matrix on the pattern of the grid's A^T, with Frobenius norm
    ``eps`` ||A||_F."""
    At = gen.grid_gradient(N).T.tocsr()
    e = np.random.default_rng(seed).standard_normal(At.nnz)
    E = At.copy()
    E.data = e * (eps * np.linalg.norm(At.data) / np.linalg.norm(e))
    return E


def hessenberg_bases(sys_, steps, dual=False):
    """gpmr's Hessenberg process after ``steps`` steps on ``sys_``, whose
    V(k), U(k) span the spaces of the two-sided reduction's first k steps;
    with ``dual``, on the transposed system (A' = B^T, B' = A^T, b' = f,
    c' = g), whose V(k), U(k) span its dual spaces."""
    if dual:
        A, B = sys_.A, sys_.B
        sys_ = PartitionedSystem(
            sys_.lam, sys_.mu, Operator(B.ncols, B.nrows, B.apply_transpose, B.apply),
            Operator(A.ncols, A.nrows, A.apply_transpose, A.apply),
            sys_.b if sys_.f is None else sys_.f, sys_.c if sys_.g is None else sys_.g)
    proc = HessenbergProcessState(sys_)
    for _ in range(steps):
        proc.step()
    return proc


def alongside_gpmr(state, sys_, ks):
    """Yield (k, state, gpmr's state) at each k in ``ks``, both advanced k
    steps."""
    ref = GPMRState(sys_, maxit=ks[-1])
    for k in range(1, ks[-1] + 1):
        state.advance()
        ref.advance()
        if k in ks:
            yield k, state, ref


def gpqmr_gaps(sys_, ks):
    """Relative gap between gpqmr's and gpmr's iterates at each k in ``ks``."""
    for _, st, ref in alongside_gpmr(QMRState(sys_), sys_, ks):
        best = np.concatenate(ref.iterate())
        yield np.linalg.norm(np.concatenate(st.iterate()) - best) / np.linalg.norm(best)


def reduction_holds_until(sys_, tol=1e-10):
    """The last k < min(m, n) up to which the two-sided reduction stays
    biorthogonal and satisfies its four relations, each over ||A||_F, to
    ``tol``."""
    A, B = to_dense(sys_.A), to_dense(sys_.B)
    last = 0
    for st, hist in stepped(QMRState, sys_, min(sys_.m, sys_.n) - 1):
        biortho, relations = reduction_errors(hist, A, B)
        if max(biortho, max(relations) / np.linalg.norm(A)) >= tol:
            break
        last = st.k
    return last


@pytest.mark.parametrize("sign, shape, scalars", cases())
def test_gpqmr_iterate_is_gpmrs_on_the_ssy_systems(sign, shape, scalars):
    # to 1e-12 while W(k) is orthonormal, and to 1e-10 for as long as the
    # reduction holds (measured 3.7e-15 and 1.4e-11)
    sys_ = ssy_system(*shape, sign, *scalars)
    last = reduction_holds_until(sys_)
    assert last > ORTHONORMAL_STEPS
    gaps = list(gpqmr_gaps(sys_, range(1, last + 1)))
    assert max(gaps[:ORTHONORMAL_STEPS]) <= 1e-12, gaps
    assert max(gaps) <= 1e-10, gaps


def galerkin_gaps(solved, sys_, ks):
    """At each k in ``ks``, ||[V'(k)^T r_x; U'(k)^T r_y]|| / ||[b; c]|| for
    the residual r on ``sys_`` of gpbicg's transfer iterate after k steps
    on ``solved`` (``sys_`` itself but for a planted defect), V'(k), U'(k)
    the dual bases of ``sys_``.  The process's k + 1 columns are no test:
    their gap reads 0.5-4.6e3."""
    proc = hessenberg_bases(sys_, ks[-1], dual=True)
    st = BiLQState(solved, "c")
    for k in range(1, ks[-1] + 1):
        st.advance()
        if k in ks:
            assert st.attempt_transfer(), k
            top, bot = apply_partitioned(sys_, *st.transfer_iterate())
            yield np.hypot(np.linalg.norm(proc.V(k).T @ (sys_.b - top)),
                           np.linalg.norm(proc.U(k).T @ (sys_.c - bot))) / sys_.rhs_norm


def subspace_gaps(state, sys_, ks):
    """At each k in ``ks``, the distance of ``state``'s iterate after k steps
    from the span of gpmr's V(k), U(k) on ``sys_``, relative to its norm."""
    proc = hessenberg_bases(sys_, ks[-1])
    for k in range(1, ks[-1] + 1):
        state.advance()
        if k in ks:
            x, y = state.iterate()
            V, U = proc.V(k), proc.U(k)
            yield (np.hypot(np.linalg.norm(x - V @ (V.T @ x)), np.linalg.norm(y - U @ (U.T @ y)))
                   / np.hypot(np.linalg.norm(x), np.linalg.norm(y)))


@pytest.mark.parametrize("N, ks, sign", GRID_CASES)
def test_gpqmr_iterate_is_gpmrs_on_the_grid_family(N, ks, sign):
    gaps = list(gpqmr_gaps(grid_system(N, sign), ks))
    assert max(gaps) <= 1e-12, gaps


@pytest.mark.parametrize("N, ks, sign, eps", [
    pytest.param(*case.values, 0.0, id=case.id) for case in GRID_CASES] + GENERAL_B_CASES)
def test_gpbicg_meets_the_galerkin_condition_over_gpmrs_bases(N, ks, sign, eps):
    # at eps = 0 the dual spaces are the primal ones (B = +-A^T, f = b, g = c)
    sys_ = grid_system(N, sign, pattern_noise(N, eps) if eps else None)
    gaps = list(galerkin_gaps(sys_, sys_, ks))
    assert max(gaps) <= 1e-10, gaps


@pytest.mark.parametrize("N, ks, sign, eps", GENERAL_B_CASES)
def test_gpqmr_and_gpbilq_iterates_lie_in_gpmrs_subspace(N, ks, sign, eps):
    sys_ = grid_system(N, sign, pattern_noise(N, eps))
    for state in (QMRState(sys_), BiLQState(sys_, "l")):
        gaps = list(subspace_gaps(state, sys_, ks))
        assert max(gaps) <= 1e-12, (type(state).__name__, gaps)


def test_a_planted_perturbation_fails_the_gpqmr_check():
    # B = -A^T + E, E on A^T's pattern with ||E||_F = 1e-6 ||A||_F: the
    # subspaces part, and gpqmr's iterate leaves gpmr's at every k
    gaps = list(gpqmr_gaps(grid_system(20, -1, pattern_noise(20, 1e-6)), (10, 40, 100)))
    assert min(gaps) > 1e-12, gaps


@pytest.mark.parametrize("eps", [1e-2, 0.3])
def test_a_planted_perturbation_fails_the_general_b_checks(eps):
    # the solvers apply B + D, ||D||_F = 1e-6 ||A||_F, and the oracle keeps B
    E = pattern_noise(20, eps)
    sys_ = grid_system(20, -1, E)
    solved = grid_system(20, -1, E + pattern_noise(20, 1e-6, seed=1))
    gaps = list(galerkin_gaps(solved, sys_, (10, 40)))
    assert min(gaps) > 1e-10, gaps
    for state in (QMRState(solved), BiLQState(solved, "l")):
        gaps = list(subspace_gaps(state, sys_, (10, 40)))
        assert min(gaps) > 1e-12, (type(state).__name__, gaps)
