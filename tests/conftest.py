"""Shared pytest wiring: echo the acceptance criterion verdict lines
into the terminal summary so they are visible without -s, and count the
growth steps of the exact towers."""

import sys

import pytest

from padlog.logmatrix import ExactTower


@pytest.fixture
def grown(monkeypatch):
    """(tower, k) for every level P_k an ExactTower grows while the test
    runs, in order."""
    steps = []
    grow = ExactTower._grow

    def counted(tower):
        steps.append((tower, len(tower.chain)))
        grow(tower)

    monkeypatch.setattr(ExactTower, "_grow", counted)
    return steps


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
