import pytest

from popflex.cli import PLANNER_CMD_ENV


@pytest.fixture(autouse=True)
def no_planner_variable(monkeypatch):
    """Run every test without the CLI's planner variable, which the CLI
    reads on purpose, so that no test depends on the shell it runs in."""
    monkeypatch.delenv(PLANNER_CMD_ENV, raising=False)
