"""Matrix-free operators and the 2x2 block partitioned system model.

The systems solved by this package have the form::

    [ lam*I   A  ] [x]   [b]
    [   B   mu*I ] [y] = [c]

with rectangular coupling blocks A (m x n) and B (n x m).  lam and/or mu may
be zero.  A and B only enter through their actions and the actions of their
transposes, so they are wrapped as callback operators.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Operator", "PartitionedSystem", "apply_partitioned", "residual_norm"]


def check_count(value, name: str, least: int):
    """``value``, where it is a non-bool integer (numpy's too) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _checked(action, out_size, name):
    def call(vec):
        out = action(vec)
        if out.shape != (out_size,):
            raise ValueError(f"{name} callback returned a vector of wrong length")
        return out.copy() if np.may_share_memory(out, vec) else out
    return call


class Operator:
    """Linear operator defined by matvec callbacks.

    Parameters
    ----------
    nrows, ncols : int
        Shape of the represented matrix, non-negative integers.
    apply : callable
        Action ``x -> M @ x`` mapping length-``ncols`` vectors to
        length-``nrows`` vectors.
    apply_transpose : callable
        Action ``y -> M.T @ y``.

    An input of the wrong length is rejected.  A callback's result must be
    1-d of the output length, and one that shares memory with its input
    (``lambda x: x``) is copied, as the solvers update it in place.
    ``from_matrix``'s results are not checked: its ``dot`` returns a fresh
    1-d array of the output length for an input of the right length.
    """

    def __init__(self, nrows, ncols, apply, apply_transpose):
        self.nrows = int(check_count(nrows, "nrows", 0))
        self.ncols = int(check_count(ncols, "ncols", 0))
        self._apply = _checked(apply, self.nrows, "apply")
        self._apply_t = _checked(apply_transpose, self.ncols, "apply_transpose")

    @classmethod
    def from_matrix(cls, mat) -> "Operator":
        """Wrap a dense ndarray or scipy sparse matrix.  A float64 ndarray or
        float64 CSR is kept by reference; other input is converted once (a
        copy), sparse input to one float64 CSR.  The transposed action runs
        on that CSR's ``.T``, a CSC view of the same arrays, so a sparse
        block is stored once.  Complex input is rejected, not truncated to
        its real part."""
        # A scipy sparse matrix cannot exist before scipy.sparse is loaded, so
        # while it is not, the input is not sparse and scipy stays unimported.
        sparse = sys.modules.get("scipy.sparse")
        is_sparse = sparse is not None and sparse.issparse(mat)
        mat = mat.tocsr() if is_sparse else np.asarray(mat)
        if mat.dtype.kind == "c":
            raise ValueError("matrix must be real, got complex input")
        if mat.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        mat = mat.astype(float, copy=False)
        op = cls.__new__(cls)
        op.nrows, op.ncols = mat.shape
        op._apply, op._apply_t = mat.dot, mat.T.dot
        return op

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.ncols,):
            raise ValueError(f"operator is {self.nrows}x{self.ncols}, input must "
                             f"have length {self.ncols}, got shape {x.shape}")
        return self._apply(x)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        if y.shape != (self.nrows,):
            raise ValueError(f"operator is {self.nrows}x{self.ncols}, transpose input "
                             f"must have length {self.nrows}, got shape {y.shape}")
        return self._apply_t(y)


def _as_nonzero_vector(vec, length, name):
    arr = np.asarray(vec)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex input")
    arr = np.ascontiguousarray(arr, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {arr.shape}")
    # a positive squared norm proves a nonzero entry; any() decides the rest
    if not (arr.dot(arr) > 0.0 or arr.any()):
        raise ValueError(f"{name} must be nonzero")
    return arr


@dataclass(frozen=True, init=False, eq=False)
class PartitionedSystem:
    """Immutable description of one partitioned system.

    ``f`` and ``g`` are the auxiliary starting vectors of the two-sided
    reduction; omitted, each is None and the reduction starts from ``b``
    or ``c``, so ``dataclasses.replace``, which re-validates, moves it
    with them.  All given vectors must be nonzero; ``==`` is identity.
    """

    lam: float
    mu: float
    A: Operator
    B: Operator
    b: np.ndarray
    c: np.ndarray
    f: np.ndarray | None = None
    g: np.ndarray | None = None

    def __init__(self, lam, mu, A, B, b, c, f=None, g=None):
        m, n = A.nrows, A.ncols
        if B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m} to pair with A {m}x{n}, got {B.shape}")
        lam, mu = float(lam), float(mu)
        b = _as_nonzero_vector(b, m, "b")
        c = _as_nonzero_vector(c, n, "c")
        f = None if f is None else _as_nonzero_vector(f, m, "f")
        g = None if g is None else _as_nonzero_vector(g, n, "g")
        # each field set once, into __dict__ past the frozen __setattr__
        vars(self).update(lam=lam, mu=mu, A=A, B=B, b=b, c=c, f=f, g=g)

    @property
    def m(self) -> int:
        return self.A.nrows

    @property
    def n(self) -> int:
        return self.A.ncols

    @cached_property
    def rhs_norm(self) -> float:
        return float(np.hypot(np.linalg.norm(self.b), np.linalg.norm(self.c)))


def apply_partitioned(sys: PartitionedSystem, x, y):
    """Return (lam*x + A y, B x + mu*y).  B x and A y come first, so the
    operators reject an x or y of the wrong length."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bot = sys.B.apply(x)
    top = sys.A.apply(y)
    top += sys.lam * x
    bot += sys.mu * y
    return top, bot


def residual_norm(sys: PartitionedSystem, x, y) -> float:
    """Euclidean norm of [b; c] - K [x; y] for the assembled block matrix K."""
    top, bot = apply_partitioned(sys, x, y)
    return float(np.hypot(np.linalg.norm(sys.b - top), np.linalg.norm(sys.c - bot)))
