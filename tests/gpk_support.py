"""Helpers the tier-1 modules import: the seeded system builder and the
acceptance log that ``conftest.py`` prints at the end of a run.

A module of its own, with a name no other test directory uses, so that
collecting ``tests`` and ``perfbench/tests`` together resolves it here
(``conftest`` would resolve to whichever directory's was loaded last).
"""

from gpkrylov.verify import random_system as make_system

ACCEPTANCE_RESULTS = []


def record_acceptance(criterion: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((criterion, passed, detail))
