import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpkrylov.gpbilq import lq_step
from gpkrylov.gpqmr import qr_step, rotate_rhs
from gpkrylov.reduction import reduction_init, reduction_step
from gpkrylov.rotations import (BandWindow, SingularWindowError, plane_rotation,
                                rotation_block, rotation_bundle,
                                rotation_bundle_transposed, substitute_pair)
from gpkrylov.verify import random_system


@pytest.mark.parametrize("a, b, expected", [
    pytest.param(3.0, 4.0, (0.6, 0.8, 5.0), id="three-four-five"),
    pytest.param(2.5, 0.0, (1.0, 0.0, 2.5), id="zero-second"),
    pytest.param(0.0, 1.0, (0.0, 1.0, 1.0), id="pure-swap"),
    pytest.param(0.0, 0.0, (1.0, 0.0, 0.0), id="both-zero"),  # the identity, r = 0
])
def test_plane_rotation(a, b, expected):
    assert_allclose(plane_rotation(a, b), expected)


def explicit_bundle(c1, s1, c2, s2, c3, s3, c4, s4):
    """Reference: the four column rotations multiplied out as 4x4 matrices."""
    r1 = np.array([[c1, 0, 0, -s1], [0, 1, 0, 0], [0, 0, 1, 0], [s1, 0, 0, c1]])
    r2 = np.array([[c2, -s2, 0, 0], [s2, c2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r3 = np.array([[1, 0, 0, 0], [0, c3, 0, -s3], [0, 0, 1, 0], [0, s3, 0, c3]])
    r4 = np.array([[1, 0, 0, 0], [0, c4, -s4, 0], [0, s4, c4, 0], [0, 0, 0, 1]])
    return r1 @ r2 @ r3 @ r4


def test_scalar_kernel_matches_explicit_product():
    rng = np.random.default_rng(700)
    units = [tuple(float(x) for x in e) for e in np.eye(4)]
    for _ in range(20):
        angles = rng.uniform(-np.pi, np.pi, 4)
        rot = tuple(float(x) for a in angles for x in (np.cos(a), np.sin(a)))
        M = explicit_bundle(*rot)
        cols = [rotation_bundle(rot, e) for e in units]  # M e_j
        assert all(type(x) is float for col in cols for x in col)
        assert_allclose(np.array(cols).T, M, rtol=0, atol=1e-15)
        assert_allclose(rotation_block(*rot), M, rtol=0, atol=1e-15)
        v = rng.uniform(-1.0, 1.0, 4)
        assert_allclose(rotation_bundle(rot, tuple(v)), M @ v, rtol=0, atol=1e-15)
        assert_allclose(rotation_bundle_transposed(rot, tuple(v)), M.T @ v,
                        rtol=0, atol=1e-15)
        w = BandWindow(1.0, -1.0)
        w.rot = rot
        carry = tuple(float(x) for x in v[:2])
        assert_allclose(rotate_rhs(w, carry),
                        rotation_block(*w.rot).T @ (*carry, 0.0, 0.0), rtol=0, atol=1e-15)


def test_substitution_kernel_matches_dense_lower_solve():
    """Rows r, r+1 of L w = rhs, with w_{r-4..r-1} given, form a linear map
    of the six inputs (w_{r-4..r-1}, rhs_r, rhs_{r+1}); its rows from the
    kernel on unit inputs (gpqmr's direction coefficients) equal the last
    two rows of the inverse of the dense 6x6 lower triangle [[I, 0], [L21,
    L22]] holding the band columns r and r+1 of R = L^T."""
    rng = np.random.default_rng(710)
    units = [tuple(float(x) for x in e) for e in np.eye(6)]

    def band_column():  # |rho| in [0.5, 2], then nu, omega, zeta, xi
        return (float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1])),
                *(float(x) for x in rng.uniform(-1.0, 1.0, 4)))
    for _ in range(20):
        odd, even = band_column(), band_column()
        L = np.eye(6)
        for row, col in ((4, odd), (5, even)):
            for d, entry in enumerate(col):  # (rho, nu, omega, zeta, xi): L[row, row-d]
                L[row, row - d] = entry
        ref = np.linalg.solve(L, np.eye(6))[4:].T
        got = np.array([substitute_pair((odd, even), e[:4], e[4:]) for e in units])
        assert_allclose(got, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


# -- the shared sliding window ------------------------------------------------

def _lq_order(w, tb, sub):
    """[early, late] per step, gpbilq's order: k = 1 seeds rb1 = lam and
    tb = alpha_1, then rotation 1 pairs rb1 with gamma_2 = ``sub``."""
    lq_step(w, 0.0, 0.0, tb, 0.25, 0.1, 0.2)
    lq_step(w, sub, 1.0, 0.3, 0.4, 0.5, 0.6)


def _qr_order(w, tb, sub):
    """[late, early] per step, gpqmr's order: rb1 = lam and tb = theta_1,
    then rotation 1 pairs rb1 with delta_2 = ``sub``."""
    qr_step(w, 0.25, tb, 1.0, sub, 0.2, 0.1)


@pytest.mark.parametrize("steps", [_lq_order, _qr_order])
def test_window_raises_on_zero_diagonal_only(steps):
    w = BandWindow(0.0, 1.0)
    steps(w, 0.5, 0.0)  # rotation 1 acts on two zeros; rho_1 = |tb| does not vanish
    (rho1, *_), (rho2, *_) = w.cols
    assert w.i == 1 and rho1 == 0.5 and rho2 > 0.0
    w = BandWindow(0.0, 1.0)
    with pytest.raises(SingularWindowError, match="rows 1-2"):
        steps(w, 0.0, 0.0)  # tb = 0 as well: rho_1 = 0
    assert w.i == 0 and w.cols is None  # the window is left as it was


def test_both_stage_orders_give_the_same_factorization():
    """qr_step ([late, early] per step) on a coefficient stream and lq_step
    ([early, late] per step) on its transpose run the same stages: the
    early-stage slots agree after qr_step k and lq_step k+1, the late-stage
    slots after both steps k+1.  The first late stage, on the fresh
    window's identity bundle, also agrees with the hand-off read straight
    off the first diagonal block."""
    sys_ = random_system(40, 40, 11)
    red = reduction_init(sys_)
    wq, wl = BandWindow(sys_.lam, sys_.mu), BandWindow(sys_.lam, sys_.mu)
    assert wq.rot == (1.0, 0.0) * 4 and wq.rb2 == sys_.mu
    early_q = []
    for k in range(1, 25):
        c = reduction_step(red, sys_)
        assert red.breakdown is None
        qr_step(wq, c.alpha, c.theta, red.beta, red.delta, red.gamma, red.eta)
        # transposed roles: alpha<->theta, beta<->eta, gamma<->delta
        lq_step(wl, c.delta, c.beta, c.theta, c.alpha, red.eta, red.gamma)
        late = [(w.ahead, w.far, w.rb1, w.tb, w.nb1, w.zb1, w.omega_bar, w.nu_bar)
                for w in (wq, wl)]
        if k == 1:
            late.append((((0.0,) * 4, (0.0,) * 3), (0.0,) * 3, sys_.lam,
                         c.theta, c.alpha, red.gamma, 0.0, red.eta))
        assert all(slots == late[0] for slots in late)
        if early_q:
            assert early_q[-1] == (wl.i, wl.cols, wl.rot, wl.rb2, wl.omega_check,
                                   wl.zeta_odd)
        early_q.append((wq.i, wq.cols, wq.rot, wq.rb2, wq.omega_check, wq.zeta_odd))
    assert wq.i == 24 and len(set(wq.rot)) == 8
