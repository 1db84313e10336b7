"""Short-recurrence Krylov solvers for 2x2 block partitioned linear systems.

Solves [lam*I, A; B, mu*I][x; y] = [b; c] with rectangular coupling blocks
accessed only through matvec callbacks.  Three short-recurrence methods
(gpbilq_solve with its transfer iterate, and gpqmr_solve) are built on a
simultaneous biorthogonal tridiagonal reduction; gpmr_solve is the
long-recurrence minimum-residual baseline.
"""

from .baselines import HessenbergProcessState, gpmr_solve
from .convergence import (BREAKDOWN, CONVERGED, MAXIT, NONFINITE,
                          ConvergenceRecord, SolveResult)
from .gpbilq import BiLQState, gpbilq_solve
from .gpqmr import QMRState, gpqmr_solve
from .io import (EXPERIMENTS, build_experiment, build_system,
                 read_matrix_market, write_convergence_csv)
from .linop import (Operator, PartitionedSystem, apply_partitioned,
                    residual_norm)
from .reduction import (BreakdownReport, ReductionState, reduction_init,
                        reduction_step)
from .rotations import SingularWindowError

__version__ = "0.1.0"

__all__ = [
    "Operator", "PartitionedSystem", "apply_partitioned", "residual_norm",
    "reduction_init", "reduction_step", "ReductionState", "BreakdownReport",
    "gpbilq_solve", "BiLQState", "gpqmr_solve", "QMRState",
    "gpmr_solve", "HessenbergProcessState",
    "SolveResult", "ConvergenceRecord", "CONVERGED", "MAXIT", "BREAKDOWN",
    "NONFINITE",
    "read_matrix_market", "build_system",
    "build_experiment", "EXPERIMENTS",
    "write_convergence_csv", "SingularWindowError",
    "__version__",
]
