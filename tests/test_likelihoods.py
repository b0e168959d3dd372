"""Observation models against closed forms and frozen Monte Carlo oracles.

The frozen constants were produced by tests/oracles.py (10^7 samples,
seed 20260816) before the quadrature code existed; tolerances reflect
Monte Carlo error, roughly 3e-4 for order-one quantities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgp.likelihoods import (
    BETA_FLOOR,
    DEFAULT_QUAD_POINTS,
    BernoulliLogit,
    Gaussian,
    gauss_hermite_expectation,
    likelihood_from_dict,
)

# Frozen by tests/oracles.py: mc_bernoulli_sites(y, mean, var).
BERN_SITE_ORACLE = [
    (1.0, 0.3, 1.2, 0.440131, 0.198182),
    (-1.0, -0.7, 0.5, -0.347324, 0.205213),
    (1.0, 2.0, 3.0, 0.206531, 0.115334),
]

# mc_bernoulli_expected_log_lik(1, 0.3, 1.2)
BERN_ELL_ORACLE = -0.685605

# mc_bernoulli_predictive(1, 1.0, 2.0)
BERN_PRED_ORACLE = 0.674984

# mc_gaussian_expected_log_lik(2.0, 0.5, 0.3, 0.5)
GAUSS_ELL_ORACLE = -3.123002


class TestGaussHermite:
    def test_polynomial_is_exact(self):
        """A 20-point rule integrates low-degree polynomials exactly."""
        val = gauss_hermite_expectation(lambda f: f**2, np.array([1.5]), np.array([0.7]), 20)
        assert val[0] == pytest.approx(1.5**2 + 0.7, rel=1e-13)

    def test_zero_variance_evaluates_at_mean(self):
        val = gauss_hermite_expectation(np.tanh, np.array([0.9]), np.array([0.0]), 20)
        assert val[0] == pytest.approx(math.tanh(0.9), rel=1e-12)

    def test_vectorized_over_points(self):
        mean = np.array([0.0, 1.0, -2.0])
        var = np.array([0.5, 1.0, 2.0])
        out = gauss_hermite_expectation(lambda f: f, mean, var, 20)
        np.testing.assert_allclose(out, mean, atol=1e-12)

    @given(
        mean=st.floats(-5.0, 5.0),
        var=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_20_matches_order_40_narrow_marginals(self, mean, var):
        """Doubling the quadrature order moves the logistic moments by < 1e-8.

        This tight agreement holds for marginal variances up to about 1.2;
        the wide-marginal test below covers the rest of the range at the
        accuracy a 20-point rule actually delivers there.
        """
        m = np.array([mean])
        v = np.array([var])
        lik20 = BernoulliLogit(quad_points=20)
        lik40 = BernoulliLogit(quad_points=40)
        y = np.array([1.0])
        s20 = lik20.site_expectations(y, m, v)
        s40 = lik40.site_expectations(y, m, v)
        assert abs(s20.alpha_hat[0] - s40.alpha_hat[0]) < 1e-8
        assert abs(s20.beta_hat[0] - s40.beta_hat[0]) < 1e-8
        e20 = lik20.expected_log_lik(y, m, v)
        e40 = lik40.expected_log_lik(y, m, v)
        assert abs(e20[0] - e40[0]) < 1e-8

    @given(
        mean=st.floats(-5.0, 5.0),
        var=st.floats(1.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_20_matches_order_40_wide_marginals(self, mean, var):
        """For variances up to 5 the 20-point rule is still good to ~6e-5."""
        m = np.array([mean])
        v = np.array([var])
        lik20 = BernoulliLogit(quad_points=20)
        lik40 = BernoulliLogit(quad_points=40)
        y = np.array([1.0])
        s20 = lik20.site_expectations(y, m, v)
        s40 = lik40.site_expectations(y, m, v)
        assert abs(s20.alpha_hat[0] - s40.alpha_hat[0]) < 1e-4
        assert abs(s20.beta_hat[0] - s40.beta_hat[0]) < 1e-4
        e20 = lik20.expected_log_lik(y, m, v)
        e40 = lik40.expected_log_lik(y, m, v)
        assert abs(e20[0] - e40[0]) < 1e-4


class TestGaussian:
    def test_sites_closed_form(self):
        lik = Gaussian(noise_variance=0.5)
        sites = lik.site_expectations(np.array([2.0]), np.array([0.5]), np.array([0.3]))
        assert sites.alpha_hat[0] == pytest.approx(3.0, rel=1e-14)
        assert sites.beta_hat[0] == pytest.approx(2.0, rel=1e-14)

    def test_expected_log_lik_matches_oracle(self):
        lik = Gaussian(noise_variance=0.5)
        out = lik.expected_log_lik(np.array([2.0]), np.array([0.5]), np.array([0.3]))
        assert out[0] == pytest.approx(GAUSS_ELL_ORACLE, abs=2e-3)

    def test_expected_log_lik_closed_form(self):
        lik = Gaussian(noise_variance=0.5)
        out = lik.expected_log_lik(np.array([2.0]), np.array([0.5]), np.array([0.3]))
        expected = -0.5 * math.log(2 * math.pi * 0.5) - (1.5**2 + 0.3) / 1.0
        assert out[0] == pytest.approx(expected, rel=1e-14)

    def test_log_predictive_uses_total_variance(self):
        lik = Gaussian(noise_variance=0.7)
        out = lik.log_predictive_density(np.array([1.0]), np.array([0.2]), np.array([0.3]))
        expected = -0.5 * (math.log(2 * math.pi * 1.0) + 0.8**2)
        assert out[0] == pytest.approx(expected, rel=1e-13)

    def test_predictive_density_exp_of_log(self):
        lik = Gaussian(noise_variance=0.4)
        y, m, v = np.array([0.3]), np.array([-0.1]), np.array([0.2])
        assert lik.predictive_density(y, m, v)[0] == pytest.approx(
            math.exp(lik.log_predictive_density(y, m, v)[0])
        )

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="noise_variance"):
            Gaussian(noise_variance=0.0)

    def test_beta_constant_across_points(self):
        lik = Gaussian(noise_variance=2.0)
        sites = lik.site_expectations(np.zeros(4), np.arange(4.0), np.ones(4))
        np.testing.assert_allclose(sites.beta_hat, 0.5)


class TestBernoulliLogit:
    @pytest.mark.parametrize("y, mean, var, a_ref, b_ref", BERN_SITE_ORACLE)
    def test_sites_match_oracle(self, y, mean, var, a_ref, b_ref):
        lik = BernoulliLogit()
        sites = lik.site_expectations(np.array([y]), np.array([mean]), np.array([var]))
        assert sites.alpha_hat[0] == pytest.approx(a_ref, abs=1e-3)
        assert sites.beta_hat[0] == pytest.approx(b_ref, abs=1e-3)

    def test_sites_at_zero_mean_zero_var(self):
        lik = BernoulliLogit()
        sites = lik.site_expectations(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        assert sites.alpha_hat[0] == pytest.approx(0.5, rel=1e-12)
        assert sites.beta_hat[0] == pytest.approx(0.25, rel=1e-12)

    def test_sites_collapse_to_pointwise_derivatives(self):
        """As var -> 0 the site expectations hit the log-likelihood derivatives."""
        lik = BernoulliLogit()
        from scipy.special import expit

        for y, mean in [(1.0, 0.7), (-1.0, 1.3), (1.0, -2.0)]:
            sites = lik.site_expectations(np.array([y]), np.array([mean]), np.array([1e-12]))
            assert sites.alpha_hat[0] == pytest.approx(y * expit(-y * mean), abs=1e-6)
            assert sites.beta_hat[0] == pytest.approx(expit(mean) * expit(-mean), abs=1e-6)

    def test_expected_log_lik_matches_oracle(self):
        lik = BernoulliLogit()
        out = lik.expected_log_lik(np.array([1.0]), np.array([0.3]), np.array([1.2]))
        assert out[0] == pytest.approx(BERN_ELL_ORACLE, abs=1e-3)

    def test_expected_log_lik_at_zero(self):
        lik = BernoulliLogit()
        out = lik.expected_log_lik(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        assert out[0] == pytest.approx(-math.log(2.0), rel=1e-12)

    def test_predictive_matches_oracle(self):
        lik = BernoulliLogit()
        out = lik.predictive_density(np.array([1.0]), np.array([1.0]), np.array([2.0]))
        assert out[0] == pytest.approx(BERN_PRED_ORACLE, abs=1e-3)

    def test_predictive_probabilities_sum_to_one(self, rng):
        lik = BernoulliLogit()
        mean = rng.standard_normal(6)
        var = rng.uniform(0.1, 3.0, 6)
        p_pos = lik.predictive_density(np.ones(6), mean, var)
        p_neg = lik.predictive_density(-np.ones(6), mean, var)
        np.testing.assert_allclose(p_pos + p_neg, 1.0, atol=1e-12)

    def test_zero_one_labels_match_signed_labels(self, rng):
        lik = BernoulliLogit()
        mean = rng.standard_normal(5)
        var = rng.uniform(0.1, 2.0, 5)
        y01 = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        ypm = np.array([-1.0, 1.0, 1.0, -1.0, 1.0])
        a = lik.site_expectations(y01, mean, var)
        b = lik.site_expectations(ypm, mean, var)
        np.testing.assert_array_equal(a.alpha_hat, b.alpha_hat)
        np.testing.assert_array_equal(a.beta_hat, b.beta_hat)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            BernoulliLogit.canon_labels(np.array([1.0, 2.0]))

    def test_label_sign_flips_alpha(self):
        """Flipping the label and negating the mean negates alpha_hat."""
        lik = BernoulliLogit()
        a_pos = lik.site_expectations(np.array([1.0]), np.array([0.8]), np.array([0.6]))
        a_neg = lik.site_expectations(np.array([-1.0]), np.array([-0.8]), np.array([0.6]))
        assert a_neg.alpha_hat[0] == pytest.approx(-a_pos.alpha_hat[0], rel=1e-12)
        assert a_neg.beta_hat[0] == pytest.approx(a_pos.beta_hat[0], rel=1e-12)

    def test_beta_floor_engages_far_from_boundary(self):
        lik = BernoulliLogit()
        sites = lik.site_expectations(np.array([1.0]), np.array([60.0]), np.array([0.01]))
        assert sites.beta_hat[0] == BETA_FLOOR

    def test_rejects_tiny_quadrature(self):
        with pytest.raises(ValueError, match="quad_points"):
            BernoulliLogit(quad_points=1)


class TestModuleHelpers:
    def test_round_trip_gaussian(self):
        back = likelihood_from_dict(Gaussian(noise_variance=0.3).to_dict())
        assert isinstance(back, Gaussian)
        assert back.noise_variance == 0.3

    def test_round_trip_bernoulli(self):
        back = likelihood_from_dict(BernoulliLogit(quad_points=32).to_dict())
        assert isinstance(back, BernoulliLogit)
        assert back.quad_points == 32

    def test_default_quad_points(self):
        assert BernoulliLogit().quad_points == DEFAULT_QUAD_POINTS

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown likelihood"):
            likelihood_from_dict({"name": "poisson"})
