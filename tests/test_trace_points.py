"""The benchmark tracer's wrap points and counters fit the code they wrap.

perfbench/tracer.py swaps timing wrappers into the attributes that
hbspline modules look up at call time, and its counters read the
arguments and results of the ingest calls; a renamed or deleted
function, or a changed signature or return shape, would break
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from hbspline.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _wrap_points():
    return [
        (caller, attr)
        for caller, attrs in _tracer_module().WRAP_POINTS.items()
        for attr in attrs
    ]


@pytest.mark.parametrize("caller, attr", _wrap_points())
def test_wrap_point_resolves(caller, attr):
    assert callable(getattr(importlib.import_module(caller), attr, None))


def test_ingest_counters_match_the_cli_reads(tmp_path):
    rows = np.random.default_rng(3).random((47, 2)).tolist()
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text("u,v,y\n" + "".join(f"{a!r},{b!r},{a + b!r}\n" for a, b in rows[:40]))
    test.write_text("u,v\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows[40:]))
    model = tmp_path / "model.json"
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert main(["fit", "--data", str(train), "--response", "y", "--q", "8",
                     "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--data", str(test),
                     "--out", str(tmp_path / "scored.csv")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["ingest.rows_read"] == 40 + 7
    # predict reads its input twice: once to parse, once to copy.
    size = os.path.getsize
    assert tracer.counts["ingest.bytes_read"] == size(train) + 2 * size(test)
    names = {s["name"] for s in tracer.spans}
    assert {"ingest.read_numeric_csv", "ingest.append_prediction_csv"} <= names
