"""The benchmark's tracer rebinds package attributes by name; each must exist.

perfbench/tracer.py is loaded from its file and only read: a refactor that
drops or renames a traced name fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, attr", [(t[0], t[1]) for t in _targets()])
def test_target_resolves(module, attr):
    mod = importlib.import_module(f"pmp_thermo.{module}")
    assert callable(getattr(mod, attr, None)), f"pmp_thermo.{module}.{attr}"
