"""The names the benchmark in ``perfbench/`` traces or calls still exist.

The benchmark skips a traced name that is gone and reports it as
``trace.missing_names``; every per-layer metric built on that name then
reads zero.  These tests fail instead, so a rename or a trimmed export in the
package has to be matched in the benchmark.  The hooks that read counts from
return values run here too, on what the engine returns today.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import dualgp.sequential
from dualgp.dual import make_state, ngd_step, predict
from dualgp.kernels import Hyperparams, KernelSpec
from dualgp.likelihoods import Gaussian
from dualgp.memory import empty_memory
from dualgp.sequential import SequentialConfig, run_stream

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


def _traced(monkeypatch, call):
    """``call()`` with the benchmark's trace targets patched in; returns its result and the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    with tracer:
        tracer.patch(layers.TARGETS)
        result = call()
    assert tracer.missing == []
    return result, tracer


def _gaussian_batches():
    """Three sorted 1-d Gaussian batches of 20 points."""
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-3, 3, 60))[:, None]
    y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(60)
    return [(x[i : i + 20], y[i : i + 20]) for i in range(0, 60, 20)]


def test_optimize_hypers_returns_the_trace_its_hook_reads(monkeypatch):
    """``_hypers`` counts accepted steps in ``result[2]``, ``hyper_steps + 1`` floats,
    and ``sequential.hyper_evals`` counts ``dualgp.sequential.hyper_objective``:
    one evaluation, then ``2p + 1`` per step for the ``p`` log-theta components."""
    (x, y), _, _ = _gaussian_batches()
    lik = Gaussian(0.3)
    kernel = KernelSpec("matern52", Hyperparams(1.0, np.array([2.0])))
    state = ngd_step(make_state(kernel, x[::2]), lik, x, y, rho=1.0)
    config = SequentialConfig(num_inducing=10, hyper_steps=4, hyper_lr=0.05)
    result, tracer = _traced(
        monkeypatch,
        lambda: dualgp.sequential.optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, predict(state, x)),
    )
    trace = result[2]
    assert len(trace) == config.hyper_steps + 1 and all(type(value) is float for value in trace)
    accepted, rejected = tracer.counts["sequential.hyper_accepted"], tracer.counts["sequential.hyper_rejected"]
    assert accepted > 0 and accepted + rejected == config.hyper_steps
    p = 3  # variance, lengthscale, noise
    assert tracer.calls("sequential.hyper_objective") == 1 + config.hyper_steps * (2 * p + 1)


def test_the_fields_the_other_hooks_read_exist(monkeypatch):
    """A traced stream feeds every hook: ``.clip_magnitude`` of the adjusted prior,
    ``.z`` of the refreshed state, ``.inputs`` of the curated memory and
    ``.jitter_used`` of each factor; a missing field raises inside the hook."""
    config = SequentialConfig(num_inducing=8, memory_capacity=10, hyper_steps=1, hyper_lr=0.05)
    kernel = KernelSpec("matern52", Hyperparams(1.0, np.array([0.7])))
    stream, tracer = _traced(monkeypatch, lambda: run_stream(_gaussian_batches(), kernel, Gaussian(0.1), config))
    assert tracer.calls("sequential.remove_memory") == tracer.calls("representation.refresh_representation") == 3
    assert tracer.counts["representation.z_turnover"] > 0
    assert tracer.maxima["memory.size"] == len(stream.memory) == config.memory_capacity
    assert tracer.calls("kernels.stable_cholesky") > 0
