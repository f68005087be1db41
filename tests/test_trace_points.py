"""The benchmark tracer's wrap points name attributes that exist.

perfbench/tracer.py swaps timing wrappers into the attributes that
hbspline modules look up at call time; a renamed or deleted function
would break ``perfbench/run.py --trace 1`` without failing any other
test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(caller, attr) for caller, attrs in tracer.WRAP_POINTS.items() for attr in attrs]


@pytest.mark.parametrize("caller, attr", _wrap_points())
def test_wrap_point_resolves(caller, attr):
    assert callable(getattr(importlib.import_module(caller), attr, None))
