import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402


@pytest.fixture(scope="session")
def prog():
    """The program under test, imported from this checkout's src."""
    return worker.load_program()
