"""Observation models against closed forms and frozen Monte Carlo oracles.

The frozen constants were produced by tests/oracles.py (10^7 samples,
seed 20260816) before the quadrature code existed; tolerances reflect
Monte Carlo error, roughly 3e-4 for order-one quantities.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expit_reference

from dualgp.kernels import BLOCK_ENTRIES
from dualgp.likelihoods import (
    BETA_FLOOR,
    DEFAULT_QUAD_POINTS,
    BernoulliLogit,
    Gaussian,
    _hermgauss,
    expit,
    gauss_hermite_expectation,
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


@st.composite
def _bernoulli_points(draw):
    """``(y, mean, var)`` of 1 to 8 points: both labels, ``|mean| <= 30`` and ``0 <= var <= 5``."""
    n = draw(st.integers(1, 8))
    y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    mean = draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n))
    var = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    return np.array(y), np.array(mean), np.array(var)


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

    @pytest.mark.parametrize("order", [2, 20, 40, 64])
    def test_rule_matches_numpy_hermgauss(self, order):
        """Golub-Welsch gives numpy's rule, compared in absolute terms: at order 64
        the tail weights are about 1e-100, where a relative comparison means nothing."""
        nodes, weights = _hermgauss(order)
        ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(order)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-13)
        np.testing.assert_allclose(weights, ref_weights / math.sqrt(math.pi), rtol=0, atol=1e-15)

    def test_blocks_give_the_unblocked_values(self, rng):
        order = 20
        n = 2 * (BLOCK_ENTRIES // order) + 3
        mean, var = rng.standard_normal(n), rng.uniform(0.0, 2.0, n)
        nodes, weights = _hermgauss(order)
        whole = expit(mean[:, None] + np.sqrt(2.0 * var)[:, None] * nodes) @ weights
        out = gauss_hermite_expectation(expit, mean, var, order)
        np.testing.assert_allclose(out, whole, rtol=1e-15, atol=0)

    def test_scratch_is_bounded_by_blocks(self, rng):
        """Each method's scratch is a few blocks of ``BLOCK_ENTRIES`` values plus O(n)."""
        n = 4 * (BLOCK_ENTRIES // DEFAULT_QUAD_POINTS)
        y, mean, var = np.sign(rng.standard_normal(n)), rng.standard_normal(n), rng.uniform(0, 2, n)
        lik = BernoulliLogit()
        for method in (lik.site_expectations, lik.expected_log_lik, lik.predictive_density):
            method(y, mean, var)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                method(y, mean, var)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 6 * BLOCK_ENTRIES * 8 + 8 * n * 8, method.__name__

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

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="noise_variance"):
            Gaussian(noise_variance=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_noise(self, bad):
        with pytest.raises(ValueError, match="noise_variance must be positive and finite"):
            Gaussian(noise_variance=bad)

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
        for y, mean in [(1.0, 0.7), (-1.0, 1.3), (1.0, -2.0)]:
            sites = lik.site_expectations(np.array([y]), np.array([mean]), np.array([1e-12]))
            assert sites.alpha_hat[0] == pytest.approx(y * expit_reference(-y * mean), abs=1e-6)
            assert sites.beta_hat[0] == pytest.approx(expit_reference(mean) * expit_reference(-mean), abs=1e-6)

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

    def test_predictive_density_stays_in_the_unit_interval(self, rng):
        """A confident point sums a rounding step above 1; the clip keeps in-range values' bits."""
        lik = BernoulliLogit()
        one = np.ones(1)
        assert lik.predictive_density(one, 40.0 * one, 1e-12 * one)[0] == 1.0
        mean, var = rng.standard_normal(6), rng.uniform(0.1, 3.0, 6)
        raw = gauss_hermite_expectation(lambda f: expit(f), mean, var, lik.quad_points)
        assert np.array_equal(lik.predictive_density(np.ones(6), mean, var), raw)

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

    @pytest.mark.parametrize("y", [[-1.0, 0.0, 1.0], [0.0, -1.0], [1.0, 1.0, -1.0, 0.0, 0.0]])
    def test_rejects_labels_that_mix_zero_and_minus_one(self, y):
        """One array uses one convention: {-1, 0, 1} is not made binary."""
        with pytest.raises(ValueError, match=re.escape("Bernoulli labels mix 0 and -1")):
            BernoulliLogit.canon_labels(np.array(y))

    @pytest.mark.parametrize(
        "y", [[0.0, 1.0, 1.0, 0.0], [-1.0, 1.0, 1.0, -1.0], [0.0, 0.0], [-1.0], [1.0, 1.0], []]
    )
    def test_either_convention_keeps_its_bits(self, y):
        """0 reads as -1, and -1 and +1 as themselves."""
        y = np.array(y)
        out = BernoulliLogit.canon_labels(y)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.where(y == 0.0, -1.0, y))

    @given(points=_bernoulli_points(), order=st.sampled_from([2, 20, 64]))
    @settings(max_examples=100, deadline=None)
    def test_label_sign_flips_alpha(self, points, order):
        """Flipping the label and negating the mean leave ``y * mean`` as it is:
        alpha_hat negates exactly, and beta_hat, the expected log-likelihood
        and the predictive density keep their bits."""
        y, mean, var = points
        lik = BernoulliLogit(quad_points=order)
        sites, flipped = lik.site_expectations(y, mean, var), lik.site_expectations(-y, -mean, var)
        assert np.array_equal(flipped.alpha_hat, -sites.alpha_hat)
        assert np.array_equal(flipped.beta_hat, sites.beta_hat)
        for method in (lik.expected_log_lik, lik.predictive_density):
            assert np.array_equal(method(-y, -mean, var), method(y, mean, var)), method.__name__

    @given(points=_bernoulli_points(), order=st.sampled_from([2, 20, 64]))
    @settings(max_examples=100, deadline=None)
    def test_signed_latent_gives_the_label_column_numbers(self, points, order):
        """The expectations over ``y f`` against integrands of ``f`` that read the label, to 1e-14."""
        y, mean, var = points
        lik = BernoulliLogit(quad_points=order)
        nodes, weights = _hermgauss(order)
        f, yb = mean[:, None] + np.sqrt(2.0 * var)[:, None] * nodes, y[:, None]
        sites = lik.site_expectations(y, mean, var)
        np.testing.assert_allclose(sites.alpha_hat, y * (expit(-yb * f) @ weights), rtol=1e-14, atol=0)
        beta = (expit(f) * expit(-f)) @ weights
        above = beta > BETA_FLOOR
        np.testing.assert_allclose(sites.beta_hat[above], beta[above], rtol=1e-14, atol=0)
        assert np.all(sites.beta_hat[~above] == BETA_FLOOR)
        ell = -np.logaddexp(0.0, -yb * f) @ weights
        np.testing.assert_allclose(lik.expected_log_lik(y, mean, var), ell, rtol=1e-14, atol=0)
        prob = np.clip(expit(yb * f) @ weights, 0.0, 1.0)
        np.testing.assert_allclose(lik.predictive_density(y, mean, var), prob, rtol=1e-14, atol=0)

    def test_beta_floor_engages_far_from_boundary(self):
        lik = BernoulliLogit()
        sites = lik.site_expectations(np.array([1.0]), np.array([60.0]), np.array([0.01]))
        assert sites.beta_hat[0] == BETA_FLOOR

    def test_rejects_tiny_quadrature(self):
        with pytest.raises(ValueError, match="quad_points"):
            BernoulliLogit(quad_points=1)

    def test_rejects_fractional_quadrature(self):
        """2.5 nodes is an error, not 2; a numpy integer is a count."""
        with pytest.raises(ValueError, match="quad_points must be an integer"):
            BernoulliLogit(quad_points=2.5)
        assert BernoulliLogit(quad_points=np.int64(3)).quad_points == 3


class TestExpit:
    def test_matches_scipy_over_both_tails(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 16001), [-40.0, -39.99, -1e-300, 0.0, 1e-300, 39.99]])
        np.testing.assert_allclose(expit(x), expit_reference(x), rtol=1e-12, atol=0)

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            out = expit(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0


class TestModuleHelpers:
    def test_default_quad_points(self):
        assert BernoulliLogit().quad_points == DEFAULT_QUAD_POINTS
