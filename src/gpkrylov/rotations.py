"""Plane-rotation kernels and banded scalar storage shared by the sliding factorizations."""

import math

import numpy as np

__all__ = ["plane_rotation", "rotation_bundle", "rotation_block",
           "bundle_product", "Band", "SingularWindowError"]


class SingularWindowError(RuntimeError):
    """A sliding-factorization pivot vanished (rotation denominator zero)."""


def plane_rotation(a: float, b: float) -> tuple[float, float, float]:
    """Return (c, s, r) with r = sqrt(a^2 + b^2), c = a/r, s = b/r.

    r is nonnegative; c and s carry the signs of a and b.  When both inputs
    vanish the rotation degenerates to the identity with r = 0, which callers
    must treat as a singular pivot.
    """
    r = math.hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


def rotation_bundle(rot, v=None):
    """Scalar form of one four-rotation bundle M = r1 r2 r3 r4.

    ``rot`` is (c1, s1, c2, s2, c3, s3, c4, s4); r1, r2, r3 and r4 rotate
    coordinate pairs (0, 3), (0, 1), (1, 3) and (1, 2) of a 4-vector, each
    as [[c, -s], [s, c]].  Returns M @ v as four floats when a 4-vector
    ``v`` is given, else the rows of M as four 4-tuples.
    """
    c1, s1, c2, s2, c3, s3, c4, s4 = rot
    if v is not None:
        v0, v1, v2, v3 = v
        v1, v2 = c4 * v1 - s4 * v2, s4 * v1 + c4 * v2
        v1, v3 = c3 * v1 - s3 * v3, s3 * v1 + c3 * v3
        v0, v1 = c2 * v0 - s2 * v1, s2 * v0 + c2 * v1
        return c1 * v0 - s1 * v3, v1, v2, s1 * v0 + c1 * v3
    a = -c1 * s2 * c3 - s1 * s3
    b = -s1 * s2 * c3 + c1 * s3
    return ((c1 * c2, a * c4, -a * s4, c1 * s2 * s3 - s1 * c3),
            (s2, c2 * c3 * c4, -c2 * c3 * s4, -c2 * s3),
            (0.0, s4, c4, 0.0),
            (s1 * c2, b * c4, -b * s4, s1 * s2 * s3 + c1 * c3))


def rotation_block(c1, s1, c2, s2, c3, s3, c4, s4) -> np.ndarray:
    """4x4 matrix of one column-rotation bundle (dense reconstruction only;
    a row-rotation bundle is its transpose)."""
    return np.array(rotation_bundle((c1, s1, c2, s2, c3, s3, c4, s4)))


def bundle_product(rotations, dim: int) -> np.ndarray:
    """dim x dim product of column-rotation bundles, bundle i (from 0)
    acting on coordinates 2i..2i+3 (dense reconstruction only)."""
    G = np.eye(dim)
    for i, rot in enumerate(rotations):
        emb = np.eye(dim)
        emb[2 * i:2 * i + 4, 2 * i:2 * i + 4] = rotation_block(*rot)
        G = G @ emb
    return G


class Band:
    """Append-only scalar sequence indexed from ``first``.

    Reads below ``first`` return 0.0 (band entries that fall outside the
    factor are zero by convention); reads past the last pushed entry raise,
    since they signal an ordering bug in the sliding window.
    """

    __slots__ = ("first", "_vals")

    def __init__(self, first: int = 1):
        self.first = first
        self._vals: list[float] = []

    def push(self, value: float) -> None:
        self._vals.append(float(value))

    @property
    def last_index(self) -> int:
        return self.first + len(self._vals) - 1

    def __getitem__(self, idx: int) -> float:
        if idx < self.first:
            return 0.0
        off = idx - self.first
        if off >= len(self._vals):
            raise IndexError(f"band entry {idx} has not been computed yet")
        return self._vals[off]

    def __len__(self) -> int:
        return len(self._vals)
