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
from scipy.linalg import cholesky

from .dual import DualState, compute_sites, predict
from .kernels import KernelSpec, gram, gram_diag
from .likelihoods import Likelihood


@dataclass
class MemorySet:
    """Curated replay points with the scores they were last selected under."""

    inputs: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    seed: int | None = None

    def __len__(self) -> int:
        return self.inputs.shape[0]


def empty_memory(dim: int) -> MemorySet:
    return MemorySet(
        inputs=np.empty((0, dim)), labels=np.empty(0), scores=np.empty(0), seed=None
    )


def bls(state: DualState, lik: Likelihood, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bayesian leverage scores: site precision times predictive variance."""
    mean, var = predict(state, x)
    return lik.site_expectations(y, mean, var).beta_hat * var


def bls_dense(state: DualState, lik: Likelihood, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense-route leverage scores through the weighted feature Gram.

    Builds the scores from scratch as
    ``beta_i * (k_ii - a_i^T K_zz a_i + a_i^T (A W A^T + K_zz^{-1})^{-1} a_i)``
    with features ``a_i = K_zz^{-1} k_zi`` and site weights ``W``.  Agrees
    with :func:`bls` exactly when the state's ``b_u`` equals the site sum of
    the scored points (an NGD fixed point with zero prior); kept as an
    independent assembly for cross-checking.
    """
    sites = compute_sites(state, lik, x, y)
    kzx = gram(state.kernel, state.z, x)
    a = state.kzz.solve(kzx)
    ki = state.kzz.solve(np.eye(state.num_inducing))
    middle = (a * sites.beta_hat) @ a.T + ki
    low = cholesky(middle, lower=True)
    half = np.linalg.solve(low, a)
    leverage = np.sum(half * half, axis=0)
    residual = gram_diag(state.kernel, x) - np.sum(kzx * a, axis=0)
    return sites.beta_hat * (residual + leverage)


def rls(kernel: KernelSpec, noise_variance: float, a: np.ndarray, kzz: np.ndarray) -> np.ndarray:
    """Classical ridge leverage scores ``a_i^T (A A^T / s2 + K^{-1})^{-1} a_i``.

    ``a`` holds the feature columns ``a_i`` and ``kzz`` the inducing Gram
    matrix.  Evaluated through the Woodbury identity, so no explicit
    ``K^{-1}`` is formed; as ``noise_variance -> inf`` the scores approach
    ``a_i^T K a_i``.
    """
    g = a.T @ kzz @ a
    n = g.shape[0]
    low = cholesky(noise_variance * np.eye(n) + g, lower=True)
    half = np.linalg.solve(low, g)
    return np.diag(g) - np.sum(half * half, axis=0)


def update_memory(
    memory: MemorySet,
    state: DualState,
    lik: Likelihood,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    capacity: int,
    rng_seed,
    pool_includes_memory: bool = True,
) -> MemorySet:
    """Re-curate the memory from the candidate pool by leverage-weighted sampling.

    The pool is the current memory plus the incoming batch (just the batch
    when ``pool_includes_memory`` is off); scores are recomputed for every
    pool member under the current state.  If the pool fits the capacity it is
    kept whole; otherwise ``capacity`` points are drawn without replacement
    with probability proportional to their score, via exponential sorting
    keys, deterministically for a given ``rng_seed``.
    """
    x_batch = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
    y_batch = np.asarray(y_batch, dtype=np.float64)
    if pool_includes_memory and len(memory):
        pool_x = np.vstack([memory.inputs, x_batch])
        pool_y = np.concatenate([memory.labels, y_batch])
    else:
        pool_x, pool_y = x_batch, y_batch

    if capacity <= 0:
        return empty_memory(pool_x.shape[1])

    scores = bls(state, lik, pool_x, pool_y)
    if len(pool_x) <= capacity:
        keep = np.arange(len(pool_x))
    else:
        rng = np.random.default_rng(rng_seed)
        keys = rng.exponential(size=len(pool_x)) / scores
        keep = np.sort(np.argsort(keys)[:capacity])
    seed_field = int(rng_seed) if np.isscalar(rng_seed) else None
    return MemorySet(
        inputs=pool_x[keep], labels=pool_y[keep], scores=scores[keep], seed=seed_field
    )
