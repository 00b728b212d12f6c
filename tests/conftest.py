import os
import sys
from pathlib import Path

import pytest

from carnot_extremals import flow

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Make tests/oracles.py importable regardless of invocation directory.
sys.path.insert(0, str(TESTS))


@pytest.fixture(autouse=True)
def package_on_child_path(monkeypatch):
    """Put src on PYTHONPATH, for the tests that run ``python -m carnot_extremals``.

    pyproject's ``pythonpath`` puts src on this process's path only.  The
    variable is restored after each test, so the benchmark's own tests,
    which check a checkout without the sources, do not see it.
    """
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


# A test making more solves than this fails; no test of the suite makes over 100.
_MAX_SOLVES = 1000


@pytest.fixture(autouse=True)
def bounded_solves(monkeypatch):
    """Fail a test once it calls ``flow._solve`` more than _MAX_SOLVES times.

    A return event that fired at a solve's own start would make
    ``detect_period`` restart at the same root for ever; this turns that
    hang into a failure within seconds.
    """
    solve = flow._solve
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > _MAX_SOLVES:
            pytest.fail(f"more than {_MAX_SOLVES} flow._solve calls in one test: "
                        f"a search that does not advance")
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "_solve", counted)
