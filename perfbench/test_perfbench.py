"""Fast tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dualgp as dg  # noqa: E402
import dualgp.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from layers import TARGETS, layer_metrics  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, BoWorkload  # noqa: E402


class FakeClock:
    """perf_counter stand-in that advances by a fixed amount per read."""

    def __init__(self, tick: float = 1.0):
        self.now = 0.0
        self.tick = tick

    def perf_counter(self) -> float:
        self.now += self.tick
        return self.now


def test_wrapper_returns_the_identical_object():
    sentinel = object()
    traced = Tracer().wrap("f", lambda x, *, y: (sentinel, x, y))
    out = traced(1, y=2)
    assert out[0] is sentinel and out[1:] == (1, 2)


def test_patched_engine_returns_identical_results_and_is_restored():
    original = dg.gram
    x = np.random.default_rng(0).normal(size=(5, 2))
    kernel = dg.KernelSpec("matern52", dg.Hyperparams(1.0, [1.0]))
    expected = original(kernel, x)
    tr = Tracer()
    with tr:
        tr.patch(TARGETS)
        assert dg.gram is not original and dg.kernels.gram is dg.gram and dg.dual.gram is dg.gram
        got = dg.gram(kernel, x)
        assert np.array_equal(got, expected)
        dg.predict(dg.make_state(kernel, x), x)
    assert dg.gram is original and dg.dual.gram is original
    assert tr.calls("kernels.gram") == 3  # the direct call, make_state's and predict's
    assert tr.calls("kernels.gram", parent="dual.predict") == 1


def test_self_time_is_span_minus_children(monkeypatch):
    # every clock read advances one tick: reads 1 and 6 open and close the
    # parent, reads 2-3 and 4-5 the two children, so each child lasts 1 tick
    clock = FakeClock()
    monkeypatch.setattr(tracer_module, "time", types.SimpleNamespace(perf_counter=clock.perf_counter))
    tr = Tracer()
    child = tr.wrap("child", lambda: None)
    parent = tr.wrap("parent", lambda: [child(), child()])
    parent()
    assert tr.calls("child", parent="parent") == 2 and tr.calls("parent", parent=None) == 1
    assert tr.inclusive_s("child") == pytest.approx(2.0) and tr.self_s("child") == pytest.approx(2.0)
    assert tr.inclusive_s("parent") == pytest.approx(5.0)
    assert tr.self_s("parent") == pytest.approx(5.0 - 2.0)
    assert tr.top_level_s() == pytest.approx(5.0)


def test_missing_names_are_reported_not_fatal():
    tr = Tracer()
    targets = [
        Target("dualgp.kernels", "no_such_function", "kernels.none"),
        Target("dualgp.no_such_module", "f", "none.f"),
        Target("dualgp.likelihoods", "NoSuchClass.method", "none.method"),
        Target("dualgp.kernels", "gram", "kernels.gram"),
    ]
    with tr:
        tr.patch(targets)
        dg.gram(dg.KernelSpec("matern52", dg.Hyperparams(1.0, [1.0])), np.zeros((2, 1)))
    assert tr.missing == [
        "dualgp.kernels.no_such_function", "dualgp.no_such_module.f", "dualgp.likelihoods.NoSuchClass.method",
    ]
    assert tr.calls("kernels.gram") == 1
    assert layer_metrics(tr)["trace.missing_names"] == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_data_not_shape(name):
    workload = WORKLOADS[name]
    a, b = workload.prepare(dg, 0), workload.prepare(dg, 1)
    assert a["x_test"].shape == b["x_test"].shape
    if isinstance(workload, BoWorkload):  # scored on a fixed grid; the episodes change
        assert a["first"].x.shape == b["first"].x.shape
        assert not np.array_equal(a["first"].x, b["first"].x)
        assert np.array_equal(a["first"].x, workload.prepare(dg, 0)["first"].x)
    else:
        assert not np.array_equal(a["x_test"], b["x_test"])
        assert [x.shape for x, _ in a["first_pass"]] == [x.shape for x, _ in b["first_pass"]]
        assert not np.array_equal(a["first_pass"][0][0], b["first_pass"][0][0])
        assert np.array_equal(a["x_test"], workload.prepare(dg, 0)["x_test"])


def test_tail_percentile_keeps_ten_steps_beyond():
    values = list(range(1, 13))
    assert run.tail_percentile(values) == (2, pytest.approx(100 * 2 / 12), 12)
    value, pct, n = run.tail_percentile(list(range(100)))
    assert sum(v > value for v in range(100)) == 10 and pct == 90.0 and n == 100
    assert run.tail_percentile([3.0, 1.0]) == (3.0, 100.0, 2)
