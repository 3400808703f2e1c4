"""The benchmark's tracer rebinds package attributes by name; each must exist.

perfbench/tracer.py is loaded from its file and only read: a refactor that
drops or renames a traced name, or that stops looking one up at call time,
fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pmp_thermo.planner import build_trajectory
from pmp_thermo.two_level import Baths

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    return _tracer_module().TARGETS


@pytest.mark.parametrize("module, attr", [(t[0], t[1]) for t in _targets()])
def test_target_resolves(module, attr):
    mod = importlib.import_module(f"pmp_thermo.{module}")
    assert callable(getattr(mod, attr, None)), f"pmp_thermo.{module}.{attr}"


def test_traced_validate_plan_charges_the_pmp_layer():
    # validate_plan must reach pmp through names the tracer can rebind: a name
    # bound at import would leave the pmp layer untimed
    tracer_module = _tracer_module()
    modules = {name: importlib.import_module(f"pmp_thermo.{name}") for name in tracer_module.LAYERS}
    plan = build_trajectory(0.07, 1.0, 0.26, 6.0, -0.05, 3, Baths.from_ratio(0.3))
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        modules["planner"].validate_plan(plan)
    finally:
        tracer.uninstall()
    assert tracer.layer_self_ns["pmp"] > 0
    assert tracer.calls["planner.validate_plan"] == 1
