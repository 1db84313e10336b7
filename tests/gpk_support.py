"""Helpers the tier-1 modules import: the seeded system builder, the
method tables, a Matrix Market writer for fixtures, a reader for the CSVs
the package writes, and the acceptance log that ``conftest.py`` prints at
the end of a run.

A module of its own, with a name no other test directory uses, so that
collecting ``tests`` and ``perfbench/tests`` together resolves it here
(``conftest`` would resolve to whichever directory's was loaded last).
"""

import csv
from functools import partial

from scipy import sparse
from scipy.io import mmwrite

from gpkrylov import (BiLQState, QMRState, gpbilq_solve, gpmr_solve,
                      gpqmr_solve)
from gpkrylov.verify import random_system as make_system

# name -> public solve, gpbicg being gpbilq monitoring its transfer iterate
SOLVERS = {
    "gpbilq": gpbilq_solve,
    "gpbicg": partial(gpbilq_solve, monitor="c"),
    "gpqmr": gpqmr_solve,
    "gpmr": gpmr_solve,
}
# name -> (state class, its arguments after the system) of the short
# recurrences
STATES = {"gpbilq": (BiLQState, ("l",)), "gpbicg": (BiLQState, ("c",)),
          "gpqmr": (QMRState, ())}

ACCEPTANCE_RESULTS = []


def record_acceptance(criterion: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((criterion, passed, detail))


def write_matrix_market(mat, path):
    """Write a dense or sparse matrix in real general coordinate format."""
    with open(path, "wb") as fh:
        mmwrite(fh, sparse.coo_matrix(mat), field="real", symmetry="general")


def read_csv(path):
    """The rows of a CSV the package wrote, as dicts of strings keyed by its
    header, and the reason on its ``# terminated:`` line (None without one)."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if rows and rows[-1]["k"].startswith("# terminated:"):
        return rows[:-1], rows[-1]["k"].split(":", 1)[1].strip()
    return rows, None
