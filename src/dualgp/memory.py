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

from .kernels import as_points, read_only
from .likelihoods import Likelihood

BETA_FLOOR = 1e-8  # bls floors beta_hat, which can underflow to 0: scores divide the sampling keys


@dataclass(frozen=True, eq=False)
class MemorySet:
    """Curated replay points with the scores they were last selected under.

    The three arrays are frozen in place (:func:`~dualgp.kernels.read_only`):
    arrays handed to ``MemorySet`` become read-only for the caller too.
    """

    inputs: np.ndarray
    labels: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        read_only(self.inputs, self.labels, self.scores)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def empty_memory(dim: int) -> MemorySet:
    return MemorySet(inputs=np.empty((0, dim)), labels=np.empty(0), scores=np.empty(0))


def bls(lik: Likelihood, y: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Bayesian leverage scores: site precision times predictive variance, at the caller's marginals."""
    return np.maximum(lik.site_expectations(y, mean, var)[1], BETA_FLOOR) * var


def update_memory(
    memory: MemorySet,
    lik: Likelihood,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    capacity: int,
    rng_seed,
) -> MemorySet:
    """Re-curate the memory from the candidate pool by leverage-weighted sampling.

    The pool is the current memory plus the incoming batch; every member is
    scored at ``mean`` and ``var``, the current marginals over the batch then
    the memory (the objective's).  If the pool fits the capacity it is kept
    whole; otherwise ``capacity`` points are drawn without replacement with
    probability proportional to their score, via exponential sorting keys,
    deterministically for a given ``rng_seed``.
    """
    pool_x = np.vstack([memory.inputs, as_points(x_batch)])
    pool_y = np.concatenate([memory.labels, np.asarray(y_batch, dtype=np.float64)])

    if capacity <= 0:
        return empty_memory(pool_x.shape[1])

    scores = bls(lik, pool_y, np.roll(mean, -len(x_batch)), np.roll(var, -len(x_batch)))
    if len(pool_x) <= capacity:
        keep = np.arange(len(pool_x))
    else:
        rng = np.random.default_rng(rng_seed)
        keys = rng.exponential(size=len(pool_x)) / scores
        keep = np.sort(np.argsort(keys)[:capacity])
    return MemorySet(inputs=pool_x[keep], labels=pool_y[keep], scores=scores[keep])
