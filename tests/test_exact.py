"""Dense reference regression used to validate the sparse machinery."""

import math

import numpy as np
import pytest
from oracles import fit_exact, log_marginal, predict_exact

from dualgp.kernels import Hyperparams, KernelSpec


def _spec():
    return KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))


def test_single_point_posterior():
    """One observation at the query point: classic conjugate shrinkage.

    With k(x,x) = 1, noise 1, and y = 1 the posterior at the training input
    is N(0.5, 0.5).
    """
    post = fit_exact(_spec(), np.array([[0.0]]), np.array([1.0]), noise_variance=1.0)
    mean, var = predict_exact(post, np.array([[0.0]]))
    assert mean[0] == pytest.approx(0.5, rel=1e-12)
    assert var[0] == pytest.approx(0.5, rel=1e-12)


def test_single_point_log_marginal():
    post = fit_exact(_spec(), np.array([[0.0]]), np.array([1.0]), noise_variance=1.0)
    expected = -0.5 * (1.0 / 2.0 + math.log(2.0) + math.log(2.0 * math.pi))
    assert log_marginal(post) == pytest.approx(expected, rel=1e-12)


def test_interpolates_with_tiny_noise(rng):
    x = np.linspace(0, 3, 8)[:, None]
    y = np.sin(x[:, 0])
    post = fit_exact(_spec(), x, y, noise_variance=1e-8)
    mean, var = predict_exact(post, x)
    np.testing.assert_allclose(mean, y, atol=1e-4)
    assert np.all(var < 1e-3)


def test_variance_reverts_to_prior_far_away():
    post = fit_exact(_spec(), np.array([[0.0]]), np.array([1.0]), noise_variance=0.1)
    _, var = predict_exact(post, np.array([[50.0]]))
    assert var[0] == pytest.approx(1.0, abs=1e-9)


def test_log_marginal_matches_multivariate_normal(rng):
    """Cross-check against a direct density evaluation."""
    from scipy.stats import multivariate_normal

    x = rng.uniform(-2, 2, (6, 2))
    y = rng.standard_normal(6)
    spec = KernelSpec("squared_exponential", Hyperparams(1.4, np.array([0.9, 1.3])))
    post = fit_exact(spec, x, y, noise_variance=0.25)
    from dualgp.kernels import gram

    cov = gram(spec, x) + 0.25 * np.eye(6)
    ref = multivariate_normal(mean=np.zeros(6), cov=cov).logpdf(y)
    assert log_marginal(post) == pytest.approx(ref, rel=1e-10)


def test_posterior_variance_never_exceeds_prior(rng):
    x = rng.uniform(-2, 2, (10, 1))
    y = rng.standard_normal(10)
    post = fit_exact(_spec(), x, y, noise_variance=0.3)
    _, var = predict_exact(post, rng.uniform(-3, 3, (20, 1)))
    assert np.all(var <= 1.0 + 1e-12)
    assert np.all(var >= 0.0)
