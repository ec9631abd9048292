import numpy as np
import pytest
from hypothesis import settings

# the same examples on every run, and no example database on disk
settings.register_profile("cgdyn", derandomize=True, database=None)
settings.load_profile("cgdyn")

# one line per acceptance criterion, echoed after the run so the verdicts
# survive output capturing
ACCEPTANCE_LINES = []


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
