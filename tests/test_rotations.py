import numpy as np
from numpy.testing import assert_allclose

from gpkrylov.rotations import rotation_block, rotation_bundle


def explicit_bundle(c1, s1, c2, s2, c3, s3, c4, s4):
    """Reference: the four column rotations multiplied out as 4x4 matrices."""
    r1 = np.array([[c1, 0, 0, -s1], [0, 1, 0, 0], [0, 0, 1, 0], [s1, 0, 0, c1]])
    r2 = np.array([[c2, -s2, 0, 0], [s2, c2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r3 = np.array([[1, 0, 0, 0], [0, c3, 0, -s3], [0, 0, 1, 0], [0, s3, 0, c3]])
    r4 = np.array([[1, 0, 0, 0], [0, c4, -s4, 0], [0, s4, c4, 0], [0, 0, 0, 1]])
    return r1 @ r2 @ r3 @ r4


def test_scalar_kernel_matches_explicit_product():
    rng = np.random.default_rng(700)
    for _ in range(20):
        angles = rng.uniform(-np.pi, np.pi, 4)
        rot = tuple(float(x) for a in angles for x in (np.cos(a), np.sin(a)))
        M = explicit_bundle(*rot)
        rows = rotation_bundle(rot)
        assert all(type(x) is float for row in rows for x in row)
        assert_allclose(np.array(rows), M, rtol=0, atol=1e-15)
        assert_allclose(rotation_block(*rot), M, rtol=0, atol=1e-15)
        v = rng.uniform(-1.0, 1.0, 4)
        assert_allclose(rotation_bundle(rot, tuple(v)), M @ v, rtol=0, atol=1e-15)
