"""Observation models and their Gaussian-expectation primitives.

Every likelihood exposes two expectations under a Gaussian marginal
``f ~ N(mean, var)``, vectorized over points:

* ``site_expectations``: the pair ``(alpha_hat, beta_hat)`` of the expected
  first derivative and expected negative second derivative of
  ``log p(y | f)``, as computed, the quantities the dual updates consume.
* ``expected_log_lik``: ``E[log p(y | f)]``, the data term of the bound.

The Bernoulli likelihood adds ``predictive_density``, ``E[p(y | f)]``, its
class probability.  The Gaussian likelihood is closed form; the logistic
``p(y | f) = sigma(y f)`` reads ``f`` only through ``g = y f ~ N(y mean, var)``,
so each Bernoulli expectation is Gauss-Hermite quadrature (20 points by
default) of a label-free integrand of ``g``.  At that order the rule matches
a 40-point rule to under 1e-8 for |mean| <= 5 and var <= 1, degrading
smoothly to about 6e-5 at var = 5; raise ``quad_points`` when marginals get
that wide and tighter moments matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import BLOCK_ENTRIES, as_count, as_real

DEFAULT_QUAD_POINTS = 20


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))``, without overflow in either tail."""
    return np.exp(-np.logaddexp(0.0, -x))


@lru_cache(maxsize=8)
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for ``E[g(x)]``, ``x ~ N(0, 1/2)``.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Hermite polynomials (zero diagonal, off-diagonal ``sqrt(k / 2)``), and
    the weights are the squared first components of its unit eigenvectors,
    so they sum to one.  The rule is symmetrized about zero.
    """
    off = np.sqrt(np.arange(1, order) / 2.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])


def gauss_hermite_expectation(func, mean: np.ndarray, var: np.ndarray, order: int) -> np.ndarray:
    """``E[func(f)]`` for ``f ~ N(mean, var)`` pointwise via Gauss-Hermite.

    ``func`` gets the f-values of a block of points as an array of shape
    ``(rows, order)``.  Blocks hold ``BLOCK_ENTRIES // order`` points (at
    least one; 1638 at the default 20 nodes), so the scratch does not grow
    with the number of points.
    Zero variance degenerates gracefully to evaluation at the mean.
    """
    nodes, weights = _hermgauss(order)
    mean = np.asarray(mean, dtype=np.float64)
    scale = np.sqrt(2.0 * np.maximum(np.asarray(var, dtype=np.float64), 0.0))
    out = np.empty(len(mean))
    block = max(1, BLOCK_ENTRIES // order)
    for lo in range(0, len(mean), block):
        rows = slice(lo, lo + block)
        out[rows] = func(mean[rows, None] + scale[rows, None] * nodes) @ weights
    return out


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Homoscedastic Gaussian observation noise, a positive ``noise_variance`` (:func:`~dualgp.kernels.as_real`)."""

    name = "gaussian"
    noise_variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "noise_variance", as_real("noise_variance", self.noise_variance))

    def site_expectations(self, y, mean, var) -> tuple[np.ndarray, np.ndarray]:
        """``(alpha_hat, beta_hat)``, in closed form ``(y - mean) / noise_variance`` and ``1 / noise_variance``."""
        y = np.asarray(y, dtype=np.float64)
        mean = np.asarray(mean, dtype=np.float64)
        alpha = (y - mean) / self.noise_variance
        return alpha, np.full_like(alpha, 1.0 / self.noise_variance)

    def expected_log_lik(self, y, mean, var) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        mean = np.asarray(mean, dtype=np.float64)
        var = np.asarray(var, dtype=np.float64)
        s2 = self.noise_variance
        return -0.5 * math.log(2.0 * math.pi * s2) - ((y - mean) ** 2 + var) / (2.0 * s2)


@dataclass(frozen=True, eq=False)
class BernoulliLogit:
    """Binary labels through a logistic link.

    Labels may arrive as {0, 1} or {-1, +1}; they are canonicalized to
    {-1, +1} at every entry point.  ``quad_points`` is a count of at least 2
    (:func:`~dualgp.kernels.as_count`).
    """

    name = "bernoulli_logit"
    quad_points: int = DEFAULT_QUAD_POINTS

    def __post_init__(self) -> None:
        object.__setattr__(self, "quad_points", as_count("quad_points", self.quad_points, 2))

    @staticmethod
    def canon_labels(y) -> np.ndarray:
        """``y`` in {-1, +1}; labels outside {0, 1} and {-1, +1}, or both 0 and -1, raise :class:`ValueError`."""
        y = np.asarray(y, dtype=np.float64)
        zero = y == 0.0
        out = np.where(zero, -1.0, y)
        if not np.all(np.abs(out) == 1.0):
            raise ValueError("Bernoulli labels must lie in {0, 1} or {-1, +1}")
        if zero.any() and (y == -1.0).any():
            raise ValueError("Bernoulli labels mix 0 and -1; use {0, 1} or {-1, +1} throughout, not both")
        return out

    def site_expectations(self, y, mean, var) -> tuple[np.ndarray, np.ndarray]:
        """``(alpha_hat, beta_hat)`` as ``y E[sigma(-g)]`` and ``E[sigma(g) sigma(-g)]`` of ``g = y f``.

        ``beta_hat`` is not floored: it underflows towards zero far from the decision boundary.
        """
        y = self.canon_labels(y)
        signed = y * mean
        alpha = y * gauss_hermite_expectation(lambda g: expit(-g), signed, var, self.quad_points)
        return alpha, gauss_hermite_expectation(_logistic_curvature, signed, var, self.quad_points)

    def expected_log_lik(self, y, mean, var) -> np.ndarray:
        y = self.canon_labels(y)
        return gauss_hermite_expectation(lambda g: -np.logaddexp(0.0, -g), y * mean, var, self.quad_points)

    def predictive_density(self, y, mean, var) -> np.ndarray:
        """``E[p(y | f)]``, clipped into [0, 1]: the weights sum to 1 only up to rounding."""
        y = self.canon_labels(y)
        prob = gauss_hermite_expectation(expit, y * mean, var, self.quad_points)
        return np.clip(prob, 0.0, 1.0, out=prob)


def _logistic_curvature(g: np.ndarray) -> np.ndarray:
    """``-d^2/dg^2 log sigma(g)`` as ``s (1 - s)``: one logistic ``s = sigma(-|g|) <= 1/2``, no cancellation."""
    s = expit(-np.abs(g))
    return s * (1.0 - s)


Likelihood = Gaussian | BernoulliLogit
