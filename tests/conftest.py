"""Shared fixtures and the acceptance summary hook."""
import random
import sys
from pathlib import Path

import pytest

from bbsl2 import make_matrix_blackbox

# the tests count oracle calls with the benchmark's counter, perfbench/counting.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

# acceptance tests register "CRITERION n ...: PASS/FAIL" lines here; the
# terminal summary prints them even when capture is on
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def rng():
    return random.Random(0xBB52)


@pytest.fixture
def sl2_13():
    return make_matrix_blackbox(13, 1, opaque=True, seed=1)


@pytest.fixture
def psl2_13():
    return make_matrix_blackbox(13, 1, center_quotient=True, opaque=True, seed=1)


@pytest.fixture
def sl2_9():
    return make_matrix_blackbox(3, 2, opaque=True, seed=1)


@pytest.fixture
def sl2_8():
    return make_matrix_blackbox(2, 3, opaque=True, seed=1)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
