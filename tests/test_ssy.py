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
"""

import numpy as np
import pytest

from gpkrylov import BiLQState, Operator, PartitionedSystem, QMRState
from gpkrylov.verify import assemble_dense, random_system, stepped, to_dense

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
