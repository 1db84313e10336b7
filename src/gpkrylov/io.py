"""Matrix Market ingestion, benchmark-system construction, convergence CSV.

Only real-valued matrices are supported.  Files for the named benchmark
systems are not fetched automatically: download them from the SuiteSparse
collection and point ``--matrix-dir`` (or ``matrix_dir``) at the directory
holding the ``.mtx`` files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.io import mminfo, mmread

from .convergence import ConvergenceRecord
from .linop import Operator, PartitionedSystem

__all__ = [
    "MatrixMarketError",
    "read_matrix_market",
    "EXPERIMENTS",
    "ExperimentSpec",
    "build_system",
    "build_experiment",
    "write_convergence_csv",
]


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content."""


def read_matrix_market(path) -> sparse.csr_matrix:
    """Parse a real coordinate or array Matrix Market file into float64 CSR.

    Symmetric and skew-symmetric files are mirrored to full storage;
    duplicate coordinates are summed; integer fields are read as float64.
    Pattern and complex fields are rejected.  ``scipy.io.mminfo`` reads the
    header and size line and ``scipy.io.mmread`` the entries; a file that
    either refuses raises MatrixMarketError.
    """
    try:
        rows, cols, entries, fmt, field, symmetry = mminfo(path)
    except ValueError as exc:
        raise MatrixMarketError(f"{path}: bad Matrix Market header ({exc})") from exc
    if field not in ("real", "integer"):  # complex, pattern, unsigned-integer
        raise MatrixMarketError(f"{path}: {field} matrices are not supported")
    if symmetry != "general" and (fmt == "array" or
                                  symmetry not in ("symmetric", "skew-symmetric")):
        raise MatrixMarketError(f"{path}: unsupported {fmt} symmetry '{symmetry}'")
    try:
        mat = mmread(path)
    except ValueError as exc:
        raise MatrixMarketError(f"{path}: expected {entries} {fmt} entries, none out "
                                f"of bounds for {rows}x{cols} ({exc})") from exc
    return sparse.csr_matrix(mat, dtype=np.float64)


# -- benchmark systems -------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Recipe for one named benchmark system."""

    a_file: str
    b_file: str | None   # None: B = A^T of the single matrix
    transpose_a: bool
    lam: float
    mu: float


EXPERIMENTS = {
    "well1033": ExperimentSpec("well1033", "illc1033", True, 1.0, -0.1),
    "well1850": ExperimentSpec("well1850", "illc1850", True, 1.0, -0.05),
    "lp_osa_07": ExperimentSpec("lp_osa_07", None, False, 1.0, -1.0),
    "lpi_klein3": ExperimentSpec("lpi_klein3", None, False, 1.0, -1.0),
}


def build_system(A, B, lam, mu, f=None, g=None) -> PartitionedSystem:
    """Partitioned system whose exact solution is the vector of ones.

    The right-hand sides are b = A 1 + lam and c = B 1 + mu, each block
    applied to the ones of its own width; f and g default to b and c.
    """
    opA = A if isinstance(A, Operator) else Operator.from_matrix(A)
    opB = B if isinstance(B, Operator) else Operator.from_matrix(B)
    b = opA.apply(np.ones(opA.ncols)) + lam
    c = opB.apply(np.ones(opB.ncols)) + mu
    return PartitionedSystem(lam, mu, opA, opB, b, c, f, g)


def build_experiment(name: str, matrix_dir) -> PartitionedSystem:
    """Assemble one of the named benchmark systems from local .mtx files."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment '{name}'; "
                         f"choose from {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[name]
    matrix_dir = Path(matrix_dir)

    def read(file):
        path = matrix_dir / f"{file}.mtx"
        if not path.exists():
            raise FileNotFoundError(
                f"{path} not found; download '{file}' from the "
                f"SuiteSparse collection into {matrix_dir}")
        return read_matrix_market(path)

    A = read(spec.a_file)
    if spec.transpose_a:
        A = A.T.tocsr()
    B = A.T.tocsr() if spec.b_file is None else read(spec.b_file)
    return build_system(A, B, spec.lam, spec.mu)


# -- convergence CSV ---------------------------------------------------------

_CSV_HEADER = "k,est_residual,true_residual,transfer_defined,elapsed_s"


def write_convergence_csv(record: ConvergenceRecord, path) -> None:
    """One row per iteration; terminal reason as a trailing comment line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_CSV_HEADER + "\n")
        for row in record.rows:
            true_s = "" if row.true_residual is None else f"{row.true_residual:.17g}"
            flag_s = "" if row.transfer_defined is None else str(int(row.transfer_defined))
            fh.write(f"{row.k},{row.est_residual:.17g},{true_s},{flag_s},"
                     f"{row.elapsed:.6g}\n")
        if record.reason is not None:
            fh.write(f"# terminated: {record.reason}\n")
