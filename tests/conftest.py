import os
import sys
from pathlib import Path

import pytest

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
