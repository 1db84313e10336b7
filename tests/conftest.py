import pytest

from gpkrylov import Operator, PartitionedSystem
from gpkrylov.verify import random_system as make_system

ACCEPTANCE_RESULTS = []


def record_acceptance(criterion: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((criterion, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"{status}  {criterion}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture
def one_by_one():
    """lam=mu=1, A=[2], B=[3], b=c=1: exact solution (0.2, 0.4)."""
    return PartitionedSystem(1.0, 1.0, Operator.from_matrix([[2.0]]),
                             Operator.from_matrix([[3.0]]), [1.0], [1.0])
