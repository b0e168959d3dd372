"""The benchmark's three workloads: seeded inputs, timed loops, quality, checks.

Every function takes the imported ``dualgp`` package as ``dg`` and calls the
engine through its attributes at call time, so the tracer's wrappers are the
ones called while they are installed.  The engine only ever sees arrays made
here from the benchmark's ``--seed``.

Streams feed one ``run_stream`` call with passes: each pass is a fresh
sample sorted on input dimension 0 and cut into batches.  Quality is scored
on the state after the first pass, so it does not depend on how many steps
fit into the run.  The Bayesian optimization workload runs episodes of the
``dualgp bo --objective branin --batch-size 4`` loop; quality is taken over
the first ``quality_episodes`` episodes, and a traced run covers the first
``trace_episodes``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

BRANIN_BOUNDS = np.array([[-5.0, 10.0], [0.0, 15.0]])
BRANIN_MAX = -0.397887  # maximum of the negated Branin function
PSD_TOL = 1e-8


def neg_branin(x: np.ndarray) -> np.ndarray:
    x1, x2 = x[:, 0], x[:, 1]
    b, c = 5.1 / (4.0 * np.pi**2), 5.0 / np.pi
    t = 1.0 / (8.0 * np.pi)
    return -((x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * np.cos(x1) + 10.0)


def regression_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Smooth 4-d target on [-2, 2]^4 plus N(0, 0.5^2) noise."""
    x = rng.uniform(-2.0, 2.0, (n, 4))
    f = np.sin(1.2 * x[:, 0]) + 0.5 * np.cos(x[:, 1]) * x[:, 2] + 0.3 * x[:, 3]
    return x, f + 0.5 * rng.standard_normal(n)


def banana_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved noisy crescents with labels in {-1, +1}."""
    angle = rng.uniform(0.0, np.pi, n)
    which = rng.integers(0, 2, n)
    radius = 2.0 + 0.3 * rng.standard_normal(n)
    x1 = np.where(which == 1, radius * np.cos(angle), 1.0 - radius * np.cos(angle))
    x2 = np.where(which == 1, radius * np.sin(angle) - 1.0, -radius * np.sin(angle) + 1.0)
    x = np.column_stack([x1, x2]) + 0.1 * rng.standard_normal((n, 2))
    return x, np.where(which == 1, 1.0, -1.0)


@dataclass
class RunResult:
    """What one timed loop or traced segment produced."""

    durations: list[float] = field(default_factory=list)
    points: int = 0
    raised: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    # (state, lik) pairs compared bit for bit between traced and untraced runs
    finals: list[tuple] = field(default_factory=list)
    # arrays at the workload's shapes, for the primitive micro-benchmarks
    shapes: dict = field(default_factory=dict)
    # proposals of the first BO episode, compared with the CLI's
    proposals: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations) + self.raised


def state_ok(state) -> str | None:
    """None when the state is finite with PSD ``b_u``, else a description."""
    for name in ("z", "alpha_u", "b_u"):
        if not np.all(np.isfinite(getattr(state, name))):
            return f"non-finite {name}"
    eig = np.linalg.eigvalsh(0.5 * (state.b_u + state.b_u.T))
    if eig.size and eig.min() < -PSD_TOL * max(1.0, float(np.abs(eig).max())):
        return f"b_u not PSD (min eigenvalue {eig.min():.3e})"
    return None


def state_signature(state, lik) -> list[np.ndarray]:
    """z, alpha, B and theta as arrays, for bit-for-bit comparison."""
    hyper = state.kernel.hyper
    theta = [hyper.variance, *hyper.lengthscales, hyper.constant_variance]
    theta.append(getattr(lik, "noise_variance", np.nan))
    return [state.z, state.alpha_u, state.b_u, np.asarray(theta, dtype=np.float64)]


def same_states(a: list[tuple], b: list[tuple]) -> bool:
    if len(a) != len(b):
        return False
    for (sa, la), (sb, lb) in zip(a, b):
        for x, y in zip(state_signature(sa, la), state_signature(sb, lb)):
            if not np.array_equal(x, y, equal_nan=True):
                return False
    return True


def _stop(result: RunResult, deadline: float | None, min_steps: int) -> bool:
    return deadline is not None and len(result.durations) >= min_steps and time.perf_counter() >= deadline


@dataclass(frozen=True)
class StreamWorkload:
    """A sorted stream through ``run_stream`` with memory on."""

    likelihood: str
    batch_size: int
    pass_batches: int
    num_inducing: int
    memory: int
    ngd_steps: int
    ngd_rho: float
    hyper_steps: int
    n_test: int
    ceilings: dict
    notes: dict

    def sample(self, rng, n):
        return regression_sample(rng, n) if self.likelihood == "gaussian" else banana_sample(rng, n)

    def prepare(self, dg, seed: int) -> dict:
        """Data for the first pass and the held-out set, plus model objects."""
        x, y = self.sample(np.random.default_rng([seed, 0]), self.batch_size * self.pass_batches)
        x_test, y_test = self.sample(np.random.default_rng([seed, 10**6]), self.n_test)
        dim = x.shape[1]
        if self.likelihood == "gaussian":
            kernel = dg.KernelSpec("matern52", dg.Hyperparams(1.0, np.ones(dim), noise_variance=0.2))
            lik = dg.Gaussian(noise_variance=0.2)
        else:
            kernel = dg.KernelSpec("matern52", dg.Hyperparams(1.0, np.ones(dim)))
            lik = dg.BernoulliLogit()
        config = dg.SequentialConfig(
            num_inducing=self.num_inducing,
            ngd_rho=self.ngd_rho,
            ngd_steps=self.ngd_steps,
            memory_capacity=self.memory,
            hyper_steps=self.hyper_steps,
        )
        return {
            "first_pass": dg.make_stream(x, y, self.pass_batches, order="sorted"),
            "x_test": x_test,
            "y_test": y_test,
            "kernel": kernel,
            "lik": lik,
            "config": config,
        }

    def _batches(self, dg, setup: dict, seed: int):
        for p in itertools.count():
            if p == 0:
                yield from setup["first_pass"]
                continue
            x, y = self.sample(np.random.default_rng([seed, p]), self.batch_size * self.pass_batches)
            yield from dg.make_stream(x, y, self.pass_batches, order="sorted")

    def run(self, dg, setup: dict, seed: int, deadline=None, min_steps=0) -> RunResult:
        """Stream until ``deadline`` (and at least ``min_steps`` and one pass).

        With ``deadline=None`` exactly one pass is streamed.  Step latency is
        the time between pulls of the batch iterator handed to ``run_stream``;
        generating the next pass happens outside it.
        """
        result = RunResult()
        min_steps = max(min_steps, self.pass_batches)
        first_pass: list[tuple] = []
        calls = itertools.count(1)

        def keep_first_pass(state, lik):
            if next(calls) == self.pass_batches:
                first_pass.append((state, lik))
            return {}

        def feed():
            for x, y in self._batches(dg, setup, seed):
                if len(result.durations) >= min_steps and (deadline is None or time.perf_counter() >= deadline):
                    return
                start = time.perf_counter()
                yield x, y
                result.durations.append(time.perf_counter() - start)
                result.points += len(y)

        try:
            out = dg.run_stream(
                feed(), setup["kernel"], setup["lik"], setup["config"], seed=seed, evaluate=keep_first_pass
            )
        except Exception:  # noqa: BLE001 - a raising step is a failed step, reported below
            traceback.print_exc()
            result.raised += 1
            result.failed += 1
            result.problems.append(f"run_stream raised at step {len(result.durations)}")
            return result

        bad = sum(
            1 for r in out.records
            if not (np.isfinite(r["elbo_like_objective"]) and np.all(np.isfinite(_theta_values(r["theta"]))))
        )
        if bad:
            result.failed += bad
            result.problems.append(f"{bad} steps gave a non-finite objective or theta")
        state, lik = first_pass[0]
        for label, st in (("first-pass", state), ("final", out.state)):
            problem = state_ok(st)
            if problem:
                result.problems.append(f"{label} state: {problem}")
        result.finals = [(state, lik)]
        result.quality = self.quality(dg, setup, state, lik)
        last_x, last_y = setup["first_pass"][-1]
        result.shapes = {
            "state": state, "lik": lik, "x_batch": last_x, "y_batch": last_y,
            "memory": out.memory, "n_old": self.batch_size * (self.pass_batches - 1),
            "rho": self.ngd_rho,
        }
        return result

    def quality(self, dg, setup: dict, state, lik) -> dict:
        scores = dg.evaluate_state(state, lik, setup["x_test"], setup["y_test"])
        return {"nlpd": scores["nlpd"], "error": scores["rmse_or_error"]}


def _theta_values(theta: dict) -> list[float]:
    out = []
    for value in theta.values():
        out.extend(value if isinstance(value, list) else [value])
    return out


@dataclass
class _BoEpisode:
    rng: np.random.Generator
    lik: object
    state: object
    x: np.ndarray
    y: np.ndarray
    proposals: list = field(default_factory=list)


@dataclass(frozen=True)
class BoWorkload:
    """``dualgp bo --objective branin --batch-size 4`` with the default config."""

    batch_size: int
    steps_per_episode: int
    quality_episodes: int
    trace_episodes: int
    grid_side: int
    ceilings: dict
    notes: dict
    # default ``[bo]``/``[model]`` config of the CLI
    num_inducing: int = 50
    search_budget: int = 2048
    refine_steps: int = 20
    init_points: int = 5
    noise_variance: float = 0.1

    @staticmethod
    def episode_seed(seed: int, episode: int) -> int:
        return 1000 * seed + episode

    def start(self, dg, episode_seed: int) -> _BoEpisode:
        """Initial design and fit, as ``dualgp bo`` does before its loop."""
        rng = np.random.default_rng(episode_seed)
        lik = dg.Gaussian(noise_variance=self.noise_variance)
        kernel = dg.KernelSpec(
            "matern52", dg.Hyperparams(1.0, np.array([1.0]), noise_variance=self.noise_variance)
        )
        lo, hi = BRANIN_BOUNDS[:, 0], BRANIN_BOUNDS[:, 1]
        x = rng.uniform(lo, hi, size=(max(self.init_points, 2), 2))
        y = neg_branin(x)
        selection = dg.pivoted_cholesky_select(kernel, x, self.num_inducing)
        state = dg.make_state(kernel, x[selection.indices])
        state, _, _ = dg.iterate_ngd(state, lik, x, y, rho=1.0, max_steps=5)
        return _BoEpisode(rng=rng, lik=lik, state=state, x=x, y=y)

    def step(self, dg, ep: _BoEpisode) -> np.ndarray:
        acq = dg.ExpectedImprovement(best=float(ep.y.max()), bounds=BRANIN_BOUNDS)
        points, _ = dg.fantasize_batch(
            ep.state, ep.lik, acq, k=self.batch_size, search_budget=self.search_budget,
            seed=int(ep.rng.integers(2**31)), refine_steps=self.refine_steps, fantasy_sample=False,
        )
        values = neg_branin(points)
        ep.x = np.vstack([ep.x, points])
        ep.y = np.concatenate([ep.y, values])
        state = dg.refresh_representation(ep.state, points, self.num_inducing)
        ep.state = dg.ngd_step(state, ep.lik, points, values, 1.0, state.alpha_u.copy(), state.b_u.copy())
        ep.proposals.append(points)
        return points

    def prepare(self, dg, seed: int) -> dict:
        """The held-out grid and the first episode's initial fit.

        The surrogate is scored on a fixed grid over the box: with seeded
        random points, a few points near the box's high corner moved the
        NLPD by more than the episodes did.
        """
        axes = [np.linspace(lo, hi, self.grid_side) for lo, hi in BRANIN_BOUNDS]
        x_test = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        return {
            "first": self.start(dg, self.episode_seed(seed, 0)),
            "x_test": x_test,
            "y_test": neg_branin(x_test),
        }

    def run(self, dg, setup: dict, seed: int, deadline=None, min_steps=0) -> RunResult:
        """Episodes until ``deadline`` (and at least ``min_steps`` and the quality episodes).

        With ``deadline=None`` exactly ``trace_episodes`` episodes run.
        """
        result = RunResult()
        episodes: list[_BoEpisode] = []
        for e in itertools.count():
            if deadline is None and e == self.trace_episodes:
                break
            if e >= self.quality_episodes and _stop(result, deadline, min_steps):
                break
            ep = setup["first"] if e == 0 else self.start(dg, self.episode_seed(seed, e))
            for _ in range(self.steps_per_episode):
                if e >= self.quality_episodes and _stop(result, deadline, min_steps):
                    break
                before = ep.state
                kept = [a.copy() for a in (before.z, before.alpha_u, before.b_u)]
                start = time.perf_counter()
                try:
                    points = self.step(dg, ep)
                except Exception:  # noqa: BLE001 - a raising step is a failed step
                    traceback.print_exc()
                    result.raised += 1
                    result.failed += 1
                    result.problems.append(f"episode {e} step raised")
                    break
                result.durations.append(time.perf_counter() - start)
                result.points += len(points)
                problem = self._check_step(points, before, kept, ep.state)
                if problem:
                    result.failed += 1
                    result.problems.append(f"episode {e} step {len(ep.proposals)}: {problem}")
            episodes.append(ep)

        quality = [self.quality(dg, setup, ep) for ep in episodes[: self.quality_episodes]]
        result.quality = {
            "nlpd": float(np.mean([q["nlpd"] for q in quality])),
            "error": float(np.mean([q["error"] for q in quality])),
            "regret": float(np.median([q["regret"] for q in quality])),
        }
        result.finals = [(ep.state, ep.lik) for ep in episodes[: self.quality_episodes]]
        first = episodes[0]
        result.shapes = {
            "state": first.state, "lik": first.lik, "x_batch": first.proposals[-1],
            "y_batch": neg_branin(first.proposals[-1]), "memory": None, "n_old": 0, "rho": 1.0,
        }
        result.proposals = [p.tolist() for p in first.proposals]
        return result

    @staticmethod
    def _check_step(points, before, kept, after) -> str | None:
        lo, hi = BRANIN_BOUNDS[:, 0], BRANIN_BOUNDS[:, 1]
        if not np.all(np.isfinite(points)) or np.any(points < lo) or np.any(points > hi):
            return "proposal outside the bounds"
        if not all(np.array_equal(a, b) for a, b in zip(kept, (before.z, before.alpha_u, before.b_u))):
            return "fantasize_batch changed the real state"
        return state_ok(after)

    def quality(self, dg, setup: dict, ep: _BoEpisode) -> dict:
        scores = dg.evaluate_state(ep.state, ep.lik, setup["x_test"], setup["y_test"])
        return {"nlpd": scores["nlpd"], "error": scores["rmse_or_error"], "regret": BRANIN_MAX - float(ep.y.max())}

    def cli_proposals(self, dg, seed: int, steps: int, workdir: str) -> list:
        """Proposals of ``dualgp bo`` run in-process with the same seed."""
        with (
            tempfile.TemporaryDirectory(dir=workdir, prefix=".cli-check-") as out,
            contextlib.redirect_stdout(io.StringIO()),
        ):
            code = dg.cli.run_cli([
                "bo", "--objective", "branin", "--batch-size", str(self.batch_size),
                "--steps", str(steps), "--seed", str(self.episode_seed(seed, 0)), "--out", out,
            ])
            if code != 0:
                return []
            with open(os.path.join(out, "run_log.jsonl")) as handle:
                return [json.loads(line)["proposed"] for line in handle]


WORKLOADS = {
    "reg-hyper": StreamWorkload(
        likelihood="gaussian", batch_size=50, pass_batches=8,
        num_inducing=100, memory=100, ngd_steps=2, ngd_rho=0.8, hyper_steps=5, n_test=5000,
        ceilings={"nlpd": 1.1, "error": 0.7},
        notes={"points": "training points", "nlpd": "held-out, after the first pass", "error": "held-out RMSE"},
    ),
    "clf-stream": StreamWorkload(
        likelihood="bernoulli_logit", batch_size=300, pass_batches=10,
        num_inducing=300, memory=300, ngd_steps=8, ngd_rho=0.6, hyper_steps=0, n_test=10000,
        ceilings={"nlpd": 0.4, "error": 0.2},
        notes={"points": "training points", "nlpd": "held-out, after the first pass", "error": "held-out error rate"},
    ),
    "bo-branin": BoWorkload(
        batch_size=4, steps_per_episode=10, quality_episodes=32, trace_episodes=8, grid_side=100,
        ceilings={"nlpd": 2500.0, "error": 80.0, "regret": 6.0},
        notes={
            "points": "query points", "nlpd": "surrogate held-out, mean over the first 32 episodes",
            "error": "surrogate held-out RMSE, mean over the first 32 episodes",
            "regret": "median over the first 32 episodes of 10 steps",
        },
    ),
}
