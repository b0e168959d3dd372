"""Replay-memory scoring and curation.

Memory points are scored by Bayesian leverage: the site precision of a point
times its current posterior predictive variance.  Points that are both hard
to explain (large site precision) and still uncertain (large variance)
matter most for anchoring the posterior, and get proportionally more mass in
the seeded weighted resampling that curates the memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DualState, predict
from .kernels import as_points
from .likelihoods import Likelihood


@dataclass(frozen=True)
class MemorySet:
    """Curated replay points with the scores they were last selected under."""

    inputs: np.ndarray
    labels: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]


def empty_memory(dim: int) -> MemorySet:
    return MemorySet(inputs=np.empty((0, dim)), labels=np.empty(0), scores=np.empty(0))


def bls(state: DualState, lik: Likelihood, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bayesian leverage scores: site precision times predictive variance."""
    mean, var = predict(state, x)
    return lik.site_expectations(y, mean, var).beta_hat * var


def update_memory(
    memory: MemorySet,
    state: DualState,
    lik: Likelihood,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    capacity: int,
    rng_seed,
) -> MemorySet:
    """Re-curate the memory from the candidate pool by leverage-weighted sampling.

    The pool is the current memory plus the incoming batch; scores are
    recomputed for every pool member under the current state.  If the pool
    fits the capacity it is kept whole; otherwise ``capacity`` points are
    drawn without replacement with probability proportional to their score,
    via exponential sorting keys, deterministically for a given ``rng_seed``.
    """
    x_batch = as_points(x_batch)
    y_batch = np.asarray(y_batch, dtype=np.float64)
    pool_x = np.vstack([memory.inputs, x_batch])
    pool_y = np.concatenate([memory.labels, y_batch])

    if capacity <= 0:
        return empty_memory(pool_x.shape[1])

    scores = bls(state, lik, pool_x, pool_y)
    if len(pool_x) <= capacity:
        keep = np.arange(len(pool_x))
    else:
        rng = np.random.default_rng(rng_seed)
        keys = rng.exponential(size=len(pool_x)) / scores
        keep = np.sort(np.argsort(keys)[:capacity])
    return MemorySet(inputs=pool_x[keep], labels=pool_y[keep], scores=scores[keep])
