"""Matrix-free operators and the 2x2 block partitioned system model.

The systems solved by this package have the form::

    [ lam*I   A  ] [x]   [b]
    [   B   mu*I ] [y] = [c]

with rectangular coupling blocks A (m x n) and B (n x m).  lam and/or mu may
be zero.  A and B only enter through their actions and the actions of their
transposes, so they are wrapped as callback operators.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Operator", "PartitionedSystem", "apply_partitioned", "residual_norm"]


class Operator:
    """Linear operator defined by matvec callbacks.

    Parameters
    ----------
    nrows, ncols : int
        Shape of the represented matrix.
    apply : callable
        Action ``x -> M @ x`` mapping length-``ncols`` vectors to
        length-``nrows`` vectors.
    apply_transpose : callable
        Action ``y -> M.T @ y``.

    A result must be 1-d of the output length; one that shares memory with
    its input (``lambda x: x``) is copied, as the solvers update it in place.
    """

    def __init__(self, nrows, ncols, apply, apply_transpose):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self._apply = apply
        self._apply_t = apply_transpose

    @classmethod
    def from_matrix(cls, mat) -> "Operator":
        """Wrap a dense ndarray or scipy sparse matrix.  A float64 ndarray or
        float64 CSR is kept by reference; other input is converted once (a
        copy), sparse input to one float64 CSR.  The transposed action runs
        on that CSR's ``.T``, a CSC view of the same arrays, so a sparse
        block is stored once.  Complex input is rejected, not truncated to
        its real part."""
        if np.iscomplexobj(mat):
            raise ValueError("matrix must be real, got complex input")
        # A scipy sparse matrix cannot exist before scipy.sparse is loaded, so
        # while it is not, the input is not sparse and scipy stays unimported.
        sparse = sys.modules.get("scipy.sparse")
        if sparse is not None and sparse.issparse(mat):
            mat = mat.tocsr().astype(float, copy=False)
        else:
            mat = np.asarray(mat, dtype=float)
            if mat.ndim != 2:
                raise ValueError("expected a 2-d matrix")
        mat_t = mat.T
        return cls(*mat.shape, mat.dot, mat_t.dot)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def _call(self, action, vec, size, out_size, name, what):
        if vec.shape != (size,):
            raise ValueError(f"operator is {self.nrows}x{self.ncols}, {what}input "
                             f"must have length {size}, got shape {vec.shape}")
        out = action(vec)
        if out.shape != (out_size,):
            raise ValueError(f"{name} callback returned a vector of wrong length")
        return out.copy() if np.may_share_memory(out, vec) else out

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._call(self._apply, x, self.ncols, self.nrows, "apply", "")

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return self._call(self._apply_t, y, self.nrows, self.ncols, "apply_transpose",
                          "transpose ")


def _as_nonzero_vector(vec, length, name):
    if np.iscomplexobj(vec):
        raise ValueError(f"{name} must be real, got complex input")
    arr = np.ascontiguousarray(vec, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {arr.shape}")
    if not arr.any():
        raise ValueError(f"{name} must be nonzero")
    return arr


@dataclass(frozen=True)
class PartitionedSystem:
    """Immutable description of one partitioned system.

    ``f`` and ``g`` are the auxiliary starting vectors of the two-sided
    reduction; omitted, each is ``b`` or ``c`` itself (the same array, which
    nothing writes).  All four vectors must be nonzero.
    """

    lam: float
    mu: float
    A: Operator
    B: Operator
    b: np.ndarray
    c: np.ndarray
    f: np.ndarray | None = None
    g: np.ndarray | None = None

    def __post_init__(self):
        m, n = self.A.nrows, self.A.ncols
        if self.B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m} to pair with A {m}x{n}, got {self.B.shape}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "b", _as_nonzero_vector(self.b, m, "b"))
        object.__setattr__(self, "c", _as_nonzero_vector(self.c, n, "c"))
        f = self.b if self.f is None else _as_nonzero_vector(self.f, m, "f")
        g = self.c if self.g is None else _as_nonzero_vector(self.g, n, "g")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

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
