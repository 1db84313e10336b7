"""Outside-in benchmark of the gpkrylov solvers (see README.md)."""
