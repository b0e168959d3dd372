"""Independent oracles used to check the package and freeze expected values.

The Monte Carlo oracles were written and run before the quadrature
implementations existed; the frozen constants in the test files were produced
by the functions here with the seeds recorded at each use site.  Rerunning
them reproduces the constants to Monte Carlo accuracy (~3e-4 at 10^7
samples).  :func:`gram_einsum` is the direct-difference Gram assembly that
``dualgp.kernels.gram`` replaced.
"""

from __future__ import annotations

import numpy as np


def gram_einsum(spec, xa: np.ndarray, xb: np.ndarray | None = None) -> np.ndarray:
    """Reference Gram through the explicit ``(M, N, d)`` difference tensor."""
    xa = np.asarray(xa, dtype=np.float64).reshape(len(xa), -1)
    xb = xa if xb is None else np.asarray(xb, dtype=np.float64).reshape(len(xb), -1)
    inv_ls = 1.0 / np.broadcast_to(spec.hyper.lengthscales, (xa.shape[1],))
    diff = (xa[:, None, :] - xb[None, :, :]) * inv_ls
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    if spec.family == "matern52":
        s = np.sqrt(5.0) * np.sqrt(r2)
        k = (1.0 + s + (5.0 / 3.0) * r2) * np.exp(-s)
    else:
        k = np.exp(-0.5 * r2)
    return spec.hyper.variance * k + spec.hyper.constant_variance


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mc_bernoulli_sites(
    y: float, mean: float, var: float, n: int = 10_000_000, seed: int = 20260816
) -> tuple[float, float]:
    """Monte Carlo first/negative-second derivative expectations of log sigmoid(y f)."""
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    first = y * sigmoid(-y * f)
    second = sigmoid(f) * sigmoid(-f)
    return float(first.mean()), float(second.mean())


def mc_bernoulli_expected_log_lik(
    y: float, mean: float, var: float, n: int = 10_000_000, seed: int = 20260816
) -> float:
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    return float(np.mean(-np.logaddexp(0.0, -y * f)))


def mc_bernoulli_predictive(
    y: float, mean: float, var: float, n: int = 10_000_000, seed: int = 20260816
) -> float:
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    return float(sigmoid(y * f).mean())


def mc_gaussian_expected_log_lik(
    y: float, mean: float, var: float, noise_var: float, n: int = 10_000_000, seed: int = 20260816
) -> float:
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    return float(np.mean(-0.5 * np.log(2.0 * np.pi * noise_var) - (y - f) ** 2 / (2.0 * noise_var)))


def mc_expected_improvement(
    mean: float, var: float, best: float, n: int = 10_000_000, seed: int = 20260816
) -> float:
    """Monte Carlo E[max(f - best, 0)] under f ~ N(mean, var) (maximization)."""
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    return float(np.maximum(f - best, 0.0).mean())
