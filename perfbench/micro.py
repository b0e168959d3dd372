"""Primitive micro-benchmarks at a workload's own shapes.

Each primitive is timed on the state the workload's traced segment ended
with (median of repeated calls after one warm-up call).  Operation counts and
bytes are computed from the shapes, not measured: they count the dominant
dense-algebra terms of the algorithms in ``dualgp`` when this benchmark was
written (an eigendecomposition with vectors counted as 9 M^3 flop, a
Cholesky as M^3/3) and the bytes of the arrays read and written once.  They
describe the problem size, so a faster algorithm leaves them unchanged.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CANDIDATES = 2048
MIN_REPEATS = 3
MAX_REPEATS = 50
BUDGET_S = 0.25


def gram_cost(a: int, b: int, d: int) -> tuple[float, float]:
    """Matérn-5/2 Gram of a x b points in d dims: 3d flop per distance, 8 per kernel value."""
    return a * b * (3.0 * d + 8.0), 8.0 * (a * d + b * d + a * b)


def cholesky_cost(m: int) -> tuple[float, float]:
    return m**3 / 3.0, 16.0 * m * m


def predict_cost(m: int, n: int, d: int) -> tuple[float, float]:
    flop, byte = gram_cost(m, n, d)
    return flop + 2.0 * m * m * n + m**3 / 3.0 + 4.0 * m * n, byte + 8.0 * (2 * m * n + 3 * m * m + 2 * n)


def ngd_step_cost(m: int, n: int, d: int) -> tuple[float, float]:
    p_flop, p_byte = predict_cost(m, n, d)
    g_flop, g_byte = gram_cost(m, n, d)
    return p_flop + g_flop + 2.0 * m * m * n + m**3 / 3.0 + 10.0 * m * m, p_byte + g_byte + 32.0 * m * m


def hyper_objective_cost(m: int, n_batch: int, n_mem: int, d: int) -> tuple[float, float]:
    flop, byte = gram_cost(m, m, d)
    for n in (n_batch, n_mem):
        if n:
            p_flop, p_byte = predict_cost(m, n, d)
            flop, byte = flop + p_flop, byte + p_byte
    # two eigendecompositions, four M x M products or multi-RHS solves, four Cholesky
    return flop + 18.0 * m**3 + 8.0 * m**3 + 4.0 * m**3 / 3.0, byte + 8.0 * 12 * m * m


def pivot_cost(n: int, r: int, d: int) -> tuple[float, float]:
    flop, byte = gram_cost(n, n, d)
    return flop + float(n) * r * r, byte + 8.0 * n * r


def _time(fn) -> float:
    fn()
    samples: list[float] = []
    spent = 0.0
    while len(samples) < MIN_REPEATS or (spent < BUDGET_S and len(samples) < MAX_REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return statistics.median(samples)


def run(dg, shapes: dict) -> dict[str, float]:
    """``micro.<primitive>_{ms,mflop,mb}`` for the eight primitives."""
    state, lik = shapes["state"], shapes["lik"]
    kernel, z = state.kernel, state.z
    m, d = z.shape
    x_batch = np.atleast_2d(shapes["x_batch"])
    y_batch = np.asarray(shapes["y_batch"], dtype=np.float64)
    memory = shapes["memory"]
    if memory is not None and len(memory):
        x_mem, y_mem = memory.inputs, memory.labels
    else:
        x_mem, y_mem = np.empty((0, d)), np.empty(0)
    x_fit = np.vstack([x_batch, x_mem])
    y_fit = np.concatenate([y_batch, y_mem])
    rng = np.random.default_rng(0)
    candidates = rng.uniform(z.min(axis=0), z.max(axis=0), size=(CANDIDATES, d))
    kzz = dg.gram(kernel, z) if hasattr(dg, "gram") else np.eye(m)
    pool = np.vstack([z, x_batch])
    b, n_fit, n_mem = len(x_batch), len(x_fit), len(x_mem)

    # name -> (the public dualgp function it needs, call, computed (flop, bytes))
    prims = {
        "gram_mm": ("gram", lambda: dg.gram(kernel, z), gram_cost(m, m, d)),
        "gram_mb": ("gram", lambda: dg.gram(kernel, z, x_batch), gram_cost(m, b, d)),
        "gram_m2048": ("gram", lambda: dg.gram(kernel, z, candidates), gram_cost(m, CANDIDATES, d)),
        "cholesky": ("stable_cholesky", lambda: dg.stable_cholesky(kzz), cholesky_cost(m)),
        "predict2048": ("predict", lambda: dg.predict(state, candidates), predict_cost(m, CANDIDATES, d)),
        "ngd_step": (
            "ngd_step",
            lambda: dg.ngd_step(state, lik, x_fit, y_fit, shapes["rho"]),
            ngd_step_cost(m, n_fit, d),
        ),
        "hyper_objective": (
            "hyper_objective",
            lambda: dg.hyper_objective(
                state, lik, x_batch, y_batch, x_mem, y_mem, shapes["n_old"], kernel.hyper
            ),
            hyper_objective_cost(m, b, n_mem, d),
        ),
        "pivot_select": (
            "pivoted_cholesky_select",
            lambda: dg.pivoted_cholesky_select(kernel, pool, m),
            pivot_cost(len(pool), m, d),
        ),
    }
    out: dict[str, float] = {}
    for name, (needs, fn, (flop, byte)) in prims.items():
        if hasattr(dg, needs):
            seconds = _time(fn)
        else:  # a later refactor removed the public name
            print(f"micro: {name} not run: dualgp.{needs} is missing")
            seconds = 0.0
        out[f"micro.{name}_ms"] = 1000.0 * seconds
        out[f"micro.{name}_mflop"] = flop / 1e6
        out[f"micro.{name}_mb"] = byte / 1e6
    return out
