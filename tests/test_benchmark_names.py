"""The names the benchmark in ``perfbench/`` traces or calls still exist.

The benchmark skips a traced name that is gone and reports it as
``trace.missing_names``; every per-layer metric built on that name then
reads zero.  These tests fail instead, so a rename or a trimmed export in the
package has to be matched in the benchmark.
"""

import importlib
import pkgutil
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    with tracer:
        tracer.patch(layers.TARGETS)
    assert tracer.missing == []


def test_every_public_name_the_benchmark_reads_is_exported():
    """``perfbench/micro.py`` skips a primitive whose ``dualgp.<name>`` is gone
    without failing, so an over-trimmed ``__all__`` would only show as zeroed
    ``micro.*`` metrics; every ``dg.<name>`` the benchmark reads must be public."""
    import dualgp

    submodules = {module.name for module in pkgutil.iter_modules(dualgp.__path__)}
    read = {
        name
        for path in PERFBENCH.glob("*.py")
        for name in re.findall(r"\bdg\.([A-Za-z_]\w*)", path.read_text())
    } - submodules - {"__file__"}
    assert "gram" in read and "fantasize_batch" in read
    assert read <= set(dualgp.__all__), sorted(read - set(dualgp.__all__))
    for name in dualgp.__all__:
        getattr(dualgp, name)
