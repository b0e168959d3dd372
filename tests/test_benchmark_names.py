"""The functions the benchmark in ``perfbench/`` traces still exist.

The benchmark skips a traced name that is gone and reports it as
``trace.missing_names``; every per-layer metric built on that name then
reads zero.  This test fails instead, so a rename in the package has to be
matched in the benchmark.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    with tracer:
        tracer.patch(layers.TARGETS)
    assert tracer.missing == []
