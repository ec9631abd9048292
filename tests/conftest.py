import numpy as np
import pytest
from hypothesis import settings

# the same examples on every run, and no example database on disk
settings.register_profile("cgdyn", derandomize=True, database=None)
settings.load_profile("cgdyn")

# one line per acceptance criterion, echoed after the run so the verdicts
# survive output capturing
ACCEPTANCE_LINES = []


def _basis_orbits(n):
    # what evolve._orbits returns for a sum that neither the rotation nor the reflection
    # fixes, and what qcore.pauli_sum builds on by default: each basis state its own orbit
    b = np.arange(2 ** n)
    return b, b, np.ones(2 ** n, dtype=int)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def acceptance_report():
    def _report(num, name, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {name}{tail}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
