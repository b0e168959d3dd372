"""Acquisition functions and fantasy-batch assembly.

Batches of query points are built greedily: maximize the acquisition over a
seeded random search with local coordinate refinement, invent a fantasy
observation at the winner (the predictive mean by default), condition the
Gaussian surrogate on it through a dual-space NGD step, and repeat.  The
conditioning happens on a throwaway copy of the state; the real model is
never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualState, cross_gram, ngd_step, predict
from .kernels import as_count, as_real, read_only
from .likelihoods import Gaussian

DEFAULT_SEARCH_BUDGET = 2048
DEFAULT_REFINE_STEPS = 20

# math.erfc as a ufunc (object output); numpy itself has no error function.
_erfc = np.frompyfunc(math.erfc, 1, 1)


def ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, ``erfc(-z / sqrt 2) / 2``: accurate far into the lower tail."""
    return 0.5 * np.asarray(_erfc(-np.asarray(z) / math.sqrt(2.0)), dtype=np.float64)


def expected_improvement(mean, var, best) -> np.ndarray:
    """Expected improvement over ``best`` for maximization.

    ``s * (z * Phi(z) + phi(z))`` with ``z = (mean - best) / s``; points with
    nonpositive variance contribute their deterministic improvement
    ``max(mean - best, 0)``.
    """
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    out = np.maximum(mean - best, 0.0)
    positive = var > 0.0
    if np.any(positive):
        s = np.sqrt(var[positive])
        z = (mean[positive] - best) / s
        phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        out = np.asarray(out, dtype=np.float64)
        out[positive] = s * (z * ndtr(z) + phi)
    return out


@dataclass(frozen=True, eq=False)
class ExpectedImprovement:
    """EI over the model being fantasized, with box ``bounds`` of shape (d, 2).

    ``best`` is a finite real (:func:`~dualgp.kernels.as_real`), and
    ``bounds`` a finite integer or float array of shape (d, 2), d >= 1, with
    each row's low end at most its high end, stored as a read-only float
    copy; anything else raises :class:`ValueError` naming the field.  The
    fields are frozen.
    """

    best: float
    bounds: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "best", as_real("best", self.best, -math.inf, strict=False))
        try:
            bounds = np.asarray(self.bounds)
        except ValueError:  # a ragged nesting
            bounds = np.empty(0)
        if not (bounds.dtype.kind in "iuf" and bounds.ndim == 2 and bounds.shape[1] == 2 and len(bounds)
                and np.isfinite(bounds).all() and (bounds[:, 0] <= bounds[:, 1]).all()):
            raise ValueError(f"bounds must be a finite array of shape (d, 2) with lo <= hi, not {self.bounds!r}")
        bounds = np.array(bounds, dtype=np.float64)
        read_only(bounds)
        object.__setattr__(self, "bounds", bounds)

    def evaluate(self, state: DualState, x: np.ndarray) -> np.ndarray:
        mean, var = predict(state, x)
        return expected_improvement(mean, var, self.best)


def _refine(acq: ExpectedImprovement, state: DualState, x0: np.ndarray, s0: float, steps: int) -> np.ndarray:
    """Deterministic coordinate pattern search inside the acquisition's box."""
    lo, hi = acq.bounds[:, 0], acq.bounds[:, 1]
    widths = 0.05 * (hi - lo)
    x_cur, s_cur = x0.copy(), float(s0)
    for _ in range(steps):
        improved = False
        for dim in range(len(x_cur)):
            for sign in (1.0, -1.0):
                cand = x_cur.copy()
                cand[dim] = np.clip(cand[dim] + sign * widths[dim], lo[dim], hi[dim])
                score = float(acq.evaluate(state, cand[None, :])[0])
                if score > s_cur:
                    x_cur, s_cur = cand, score
                    improved = True
        if not improved:
            widths *= 0.5
    return x_cur


def fantasize_batch(
    state: DualState,
    lik: Gaussian,
    acq: ExpectedImprovement,
    k: int,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    seed: int = 0,
    refine_steps: int = DEFAULT_REFINE_STEPS,
    fantasy_sample: bool = False,
) -> tuple[np.ndarray, DualState]:
    """Assemble ``k`` query points by greedy fantasy conditioning.

    Each round maximizes ``acq`` over ``search_budget`` seeded uniform samples
    plus coordinate refinement, conditions a fantasy copy of the state on the
    invented observation (predictive mean unless ``fantasy_sample``), and
    continues.  Conditioning is one ``rho = 1`` :func:`ngd_step` against the
    fantasy state as prior, which is exact rank-one conditioning, on the
    :func:`cross_gram` the label was read from.  A non-Gaussian likelihood or
    a count :func:`~dualgp.kernels.as_count` refuses (``k`` and ``search_budget``
    below 1, ``seed`` and ``refine_steps`` below 0) raises ``ValueError``.
    Returns the points and the final fantasy state; the input state is never
    modified.
    """
    k, search_budget = as_count("k", k, 1), as_count("search_budget", search_budget, 1)
    refine_steps, seed = as_count("refine_steps", refine_steps, 0), as_count("seed", seed, 0)
    if not isinstance(lik, Gaussian):
        raise ValueError(f"fantasize_batch needs a {Gaussian.name} likelihood, not {lik.name!r}")
    lo, hi = acq.bounds[:, 0], acq.bounds[:, 1]
    rng = np.random.default_rng(seed)
    fantasy = state
    points = []
    for _ in range(k):
        candidates = rng.uniform(lo, hi, size=(search_budget, len(lo)))
        scores = acq.evaluate(fantasy, candidates)
        best_idx = int(np.argmax(scores))
        x_best = _refine(acq, fantasy, candidates[best_idx], scores[best_idx], refine_steps)
        points.append(x_best)

        cross = cross_gram(fantasy, x_best[None, :])
        mean, var = cross.marginals(fantasy)
        y_fantasy = float(mean[0])
        if fantasy_sample:
            spread = np.sqrt(max(float(var[0]), 0.0) + lik.noise_variance)
            y_fantasy = float(rng.normal(y_fantasy, spread))
        fantasy = ngd_step(
            fantasy, lik, x_best[None, :], np.array([y_fantasy]), 1.0, fantasy.alpha_u, fantasy.b_u, cross=cross
        )
    return np.asarray(points), fantasy
