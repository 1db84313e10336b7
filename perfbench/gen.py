"""Seeded inputs for the benchmark's two system families.

* desk: small dense blocks, A (m x n) with entries N(0, 0.25/n) and B
  (n x m) with entries N(0, 0.25/m), b and c ~ N(0, 1).  System ``i`` of a
  batch draws everything from its own seed ``(seed, i)``.
* grid: a 2-D saddle point on N x N cells.  A = N [I (x) D; D (x) I] is the
  discrete gradient, D the (N-1) x N forward difference, and B = -A^T.  A
  and B do not depend on the seed; b and c ~ N(0, 1) are drawn from
  ``(seed, i)``.  The right-hand sides are random because the ones-solution
  right-hand side of ``gpkrylov.io.build_system`` is degenerate here
  (A 1 = 0), which ends every method after two steps.

The grid writers produce Matrix Market files in a fixed text format and
``.npy`` vectors, so the same seed always gives byte-identical files, and
the bytes do not depend on the package under test.  File names describe
the family and size only.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from scipy import sparse

DESK_M, DESK_N = 200, 150


def desk_arrays(seed: int, index: int):
    """(A, B, b, c) of system ``index`` in the desk batch of ``seed``."""
    rng = np.random.default_rng([seed, index])
    m, n = DESK_M, DESK_N
    A = rng.normal(0.0, np.sqrt(0.25 / n), (m, n))
    B = rng.normal(0.0, np.sqrt(0.25 / m), (n, m))
    return A, B, rng.standard_normal(m), rng.standard_normal(n)


def grid_gradient(N: int) -> sparse.csr_matrix:
    """Scaled discrete gradient of the N x N cell grid, 2N(N-1) x N^2."""
    D = sparse.diags([-np.ones(N - 1), np.ones(N - 1)], [0, 1], shape=(N - 1, N))
    eye = sparse.identity(N)
    return (N * sparse.vstack([sparse.kron(eye, D), sparse.kron(D, eye)])).tocsr()


def grid_rhs(N: int, seed: int, index: int):
    """(b, c) of right-hand side ``index`` for the grid of size N."""
    rng = np.random.default_rng([seed, index])
    return rng.standard_normal(2 * N * (N - 1)), rng.standard_normal(N * N)


def _replace_atomically(path: Path, write) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def write_mtx(mat, path: Path) -> None:
    """Real general coordinate Matrix Market file, values as %.17g."""
    coo = sparse.coo_matrix(mat)
    order = np.lexsort((coo.row, coo.col))
    table = np.column_stack([coo.row[order] + 1, coo.col[order] + 1, coo.data[order]])
    header = (f"%%MatrixMarket matrix coordinate real general\n"
              f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}")

    def write(tmp):
        with open(tmp, "w", encoding="ascii") as fh:
            np.savetxt(fh, table, fmt=["%d", "%d", "%.17g"], header=header,
                       comments="")
    _replace_atomically(path, write)


def _save_npy(vec, path: Path) -> None:
    def write(tmp):
        with open(tmp, "wb") as fh:
            np.save(fh, vec)
    _replace_atomically(path, write)


def write_grid_inputs(N: int, seed: int, count: int, out_dir: Path):
    """Write A, B and ``count`` right-hand sides; reuse files already there.

    Returns (a_path, b_path, [(b_path, c_path), ...]).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    a_path = out_dir / f"grid{N}-A.mtx"
    b_path = out_dir / f"grid{N}-B.mtx"
    if not (a_path.exists() and b_path.exists()):
        A = grid_gradient(N)
        write_mtx(A, a_path)
        write_mtx(-A.T, b_path)
    rhs = []
    for i in range(count):
        pair = (out_dir / f"grid{N}-seed{seed}-{i}-b.npy",
                out_dir / f"grid{N}-seed{seed}-{i}-c.npy")
        if not all(p.exists() for p in pair):
            for vec, p in zip(grid_rhs(N, seed, i), pair):
                _save_npy(vec, p)
        rhs.append(pair)
    return a_path, b_path, rhs


def write_desk_inputs(seed: int, out_dir: Path):
    """Matrix Market files of desk system 0 (read only by the io probe)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    A, B, _, _ = desk_arrays(seed, 0)
    a_path = out_dir / f"desk-seed{seed}-0-A.mtx"
    b_path = out_dir / f"desk-seed{seed}-0-B.mtx"
    write_mtx(A, a_path)
    write_mtx(B, b_path)
    return a_path, b_path
