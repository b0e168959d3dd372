"""Acquisition functions and greedy fantasy-batch assembly.

Frozen by tests/oracles.py (mc_expected_improvement, 10^7 samples, seed
20260816):

    EI(mean=1, var=0.25, best=0) = 1.004044   (closed form 1.0042453...)
    EI(mean=0, var=1,    best=0) = 0.398600   (closed form phi(0))
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from oracles import ndtr_reference

import dualgp.acquisition
from dualgp.acquisition import ExpectedImprovement, expected_improvement, fantasize_batch, ndtr
from dualgp.dual import iterate_ngd, make_state, ngd_step, predict
from dualgp.kernels import Hyperparams, KernelSpec
from dualgp.likelihoods import BernoulliLogit, Gaussian

EI_ORACLE_SHIFTED = 1.004044
EI_ORACLE_CENTERED = 0.398600


def _spec(ls=0.8):
    return KernelSpec("matern52", Hyperparams(1.0, np.array([ls])))


def _gaussian_model(rng, n=10):
    x = np.sort(rng.uniform(-3, 3, n))[:, None]
    y = np.sin(1.5 * x[:, 0]) + 0.1 * rng.standard_normal(n)
    lik = Gaussian(noise_variance=0.05)
    state = ngd_step(make_state(_spec(), x), lik, x, y, rho=1.0)
    return state, lik, x, y


def _classifier_model(rng, n=14):
    x = np.sort(rng.uniform(-3, 3, n))[:, None]
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    lik = BernoulliLogit()
    state, _, _ = iterate_ngd(make_state(_spec(), x), lik, x, y, rho=0.7, tol=1e-10)
    return state, lik


class TestExpectedImprovement:
    def test_matches_monte_carlo_oracle_shifted(self):
        val = expected_improvement(np.array([1.0]), np.array([0.25]), best=0.0)
        assert val[0] == pytest.approx(EI_ORACLE_SHIFTED, abs=5e-4)

    def test_matches_monte_carlo_oracle_centered(self):
        val = expected_improvement(np.array([0.0]), np.array([1.0]), best=0.0)
        assert val[0] == pytest.approx(EI_ORACLE_CENTERED, abs=6e-4)

    def test_centered_unit_case_is_standard_normal_density(self):
        val = expected_improvement(np.array([0.0]), np.array([1.0]), best=0.0)
        assert val[0] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_zero_variance_reduces_to_hinge(self):
        vals = expected_improvement(np.array([2.0, -1.0]), np.zeros(2), best=0.5)
        assert vals[0] == pytest.approx(1.5)
        assert vals[1] == 0.0

    def test_monotone_in_mean(self):
        means = np.linspace(-2, 2, 9)
        vals = expected_improvement(means, np.full(9, 0.5), best=0.0)
        assert np.all(np.diff(vals) > 0)

    def test_positive_everywhere_with_variance(self):
        vals = expected_improvement(np.array([-10.0]), np.array([1.0]), best=0.0)
        assert vals[0] > 0.0

    def test_mixed_zero_and_positive_variance(self):
        vals = expected_improvement(np.array([1.0, 1.0]), np.array([0.0, 1e-12]), best=0.0)
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(1.0, abs=1e-5)


class TestNdtr:
    def test_matches_scipy_over_both_tails(self):
        """Relative to 1e-12 down to the smallest normal float; scipy flushes subnormals earlier."""
        z = np.concatenate([np.linspace(-40.0, 40.0, 16001), [-40.0, -37.5, -8.3, 0.0, 8.3, 40.0]])
        np.testing.assert_allclose(ndtr(z), ndtr_reference(z), rtol=1e-12, atol=np.finfo(np.float64).tiny)

    def test_keeps_the_shape(self):
        assert ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert ndtr(np.zeros(0)).shape == (0,)
        assert ndtr(0.0) == 0.5


class TestAcquisitionObjects:
    def test_expected_improvement_object_delegates(self, rng):
        state, _, x, _ = _gaussian_model(rng)
        acq = ExpectedImprovement(best=0.4, bounds=np.array([[-3.0, 3.0]]))
        probe = rng.uniform(-3, 3, (6, 1))
        mean, var = predict(state, probe)
        np.testing.assert_allclose(
            acq.evaluate(state, probe), expected_improvement(mean, var, 0.4), atol=1e-14
        )

    @pytest.mark.parametrize(
        "bounds",
        [
            pytest.param(np.array([-3.0, 3.0]), id="flat"),
            pytest.param(np.array([[-3.0, 3.0, 4.0]]), id="three_columns"),
            pytest.param(np.empty((0, 2)), id="no_dimensions"),
            pytest.param(np.array([[3.0, -3.0]]), id="lo_above_hi"),
            pytest.param(np.array([[np.nan, 3.0]]), id="nan"),
            pytest.param(np.array([[-np.inf, 3.0]]), id="infinite"),
            pytest.param([["-3", "3"]], id="strings"),
            pytest.param([[False, True]], id="bools"),
            pytest.param([[-3.0, 3.0], [1.0]], id="ragged"),
        ],
    )
    def test_a_box_that_is_not_finite_d_by_2_with_lo_at_most_hi_is_refused(self, rng, bounds):
        """Named by the field, rather than failing inside numpy once a batch is assembled."""
        state, lik, _, _ = _gaussian_model(rng)
        with pytest.raises(ValueError, match="bounds"):
            fantasize_batch(state, lik, ExpectedImprovement(best=0.0, bounds=bounds), k=1, search_budget=8)

    @pytest.mark.parametrize("best", [np.nan, np.inf, -np.inf])
    def test_a_best_that_is_not_finite_is_refused(self, rng, best):
        state, lik, _, _ = _gaussian_model(rng)
        with pytest.raises(ValueError, match="best must be finite"):
            fantasize_batch(state, lik, ExpectedImprovement(best=best, bounds=np.array([[-3.0, 3.0]])), k=1)

    @pytest.mark.parametrize("name, value", [("best", np.nan), ("bounds", np.array([[3.0, -3.0]]))])
    def test_fields_cannot_be_assigned(self, name, value):
        """A box assigned after construction used to reach numpy's "high - low < 0" unchecked."""
        acq = ExpectedImprovement(best=0.4, bounds=np.array([[-3.0, 3.0]]))
        with pytest.raises(FrozenInstanceError):
            setattr(acq, name, value)
        assert acq.best == 0.4
        np.testing.assert_array_equal(acq.bounds, [[-3.0, 3.0]])

    @pytest.mark.parametrize("given", [np.array([[-3.0, 3.0]]), [[-3, 3]]], ids=["float_array", "int_list"])
    def test_bounds_are_a_read_only_copy(self, given):
        acq = ExpectedImprovement(best=0.4, bounds=given)
        with pytest.raises(ValueError, match="read-only"):
            acq.bounds[0, 0] = 5.0
        given[0][0] = -1.0  # the caller's box stays writable, and its own
        np.testing.assert_array_equal(acq.bounds, [[-3.0, 3.0]])

    def test_an_integer_box_proposes_the_float_boxs_points(self, rng):
        state, lik, _, _ = _gaussian_model(rng)
        acq = ExpectedImprovement(best=0.4, bounds=[[-3, 3]])
        assert acq.bounds.dtype == np.float64
        same = ExpectedImprovement(best=0.4, bounds=np.array([[-3.0, 3.0]]))
        np.testing.assert_array_equal(
            fantasize_batch(state, lik, acq, k=2, search_budget=32)[0],
            fantasize_batch(state, lik, same, k=2, search_budget=32)[0],
        )


class TestFantasizeBatch:
    def test_returns_k_points_inside_bounds(self, rng):
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        points, _ = fantasize_batch(state, lik, acq, k=4, seed=1)
        assert points.shape == (4, 1)
        assert np.all(points >= -3.0) and np.all(points <= 3.0)

    def test_real_state_untouched_bitwise(self, rng):
        state, lik, _, y = _gaussian_model(rng)
        alpha_before = state.alpha_u.copy()
        b_before = state.b_u.copy()
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        fantasize_batch(state, lik, acq, k=3, seed=2)
        np.testing.assert_array_equal(state.alpha_u, alpha_before)
        np.testing.assert_array_equal(state.b_u, b_before)

    def test_fantasy_shrinks_variance_at_chosen_points(self, rng):
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        points, fantasy = fantasize_batch(state, lik, acq, k=3, seed=3)
        _, var_before = predict(state, points)
        _, var_after = predict(fantasy, points)
        assert np.all(var_after < var_before + 1e-12)

    def test_mean_fantasy_keeps_mean_fixed(self, rng):
        """Conditioning on the predictive mean leaves the mean surface alone."""
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        points, fantasy = fantasize_batch(state, lik, acq, k=1, seed=4)
        mean_before, _ = predict(state, points)
        mean_after, _ = predict(fantasy, points)
        assert mean_after[0] == pytest.approx(mean_before[0], abs=1e-9)

    def test_deterministic_given_seed(self, rng):
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        a, _ = fantasize_batch(state, lik, acq, k=3, seed=9)
        b, _ = fantasize_batch(state, lik, acq, k=3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_batch_points_are_distinct(self, rng):
        """Fantasy conditioning dents the acquisition, so picks never repeat."""
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        points, _ = fantasize_batch(state, lik, acq, k=3, seed=5)
        dists = [
            abs(points[i, 0] - points[j, 0])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(dists) > 1e-6

    def test_rejects_empty_batch(self, rng):
        state, lik, _, _ = _gaussian_model(rng)
        acq = ExpectedImprovement(best=0.0, bounds=np.array([[-3.0, 3.0]]))
        with pytest.raises(ValueError, match="k"):
            fantasize_batch(state, lik, acq, k=0)

    @pytest.mark.parametrize(
        "name, value", [("search_budget", 0), ("search_budget", -5), ("refine_steps", -1)]
    )
    def test_rejects_a_search_setting_out_of_range(self, rng, name, value):
        """As the config parser does, rather than failing inside numpy or skipping refinement."""
        state, lik, _, _ = _gaussian_model(rng)
        acq = ExpectedImprovement(best=0.0, bounds=np.array([[-3.0, 3.0]]))
        with pytest.raises(ValueError, match=name):
            fantasize_batch(state, lik, acq, k=2, **{name: value})

    def test_classifier_fantasy_is_rejected(self, rng):
        """Only a Gaussian surrogate is conditioned; a classifier raises, naming its likelihood."""
        state, lik = _classifier_model(rng)
        acq = ExpectedImprovement(best=0.0, bounds=np.array([[-3.0, 3.0]]))
        with pytest.raises(ValueError, match="bernoulli_logit"):
            fantasize_batch(state, lik, acq, k=2, seed=6)

    def test_sampled_fantasies_still_deterministic(self, rng):
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        a, fa = fantasize_batch(state, lik, acq, k=2, seed=7, fantasy_sample=True)
        b, fb = fantasize_batch(state, lik, acq, k=2, seed=7, fantasy_sample=True)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(fa.alpha_u, fb.alpha_u)

    def test_sampled_fantasies_move_the_mean(self, rng):
        """Label sampling, unlike mean fantasies, perturbs the mean surface."""
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        points, fantasy = fantasize_batch(state, lik, acq, k=1, seed=8, fantasy_sample=True)
        mean_before, _ = predict(state, points)
        mean_after, _ = predict(fantasy, points)
        assert abs(mean_after[0] - mean_before[0]) > 1e-4

    @pytest.mark.parametrize("sample", [False, True], ids=["mean", "sampled"])
    def test_label_and_conditioning_share_one_block(self, rng, monkeypatch, sample):
        """One cross-Gram per fantasy point: the label reads its marginals, the step its sites."""
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        built, handed = [], []
        cross_gram, ngd_step = dualgp.acquisition.cross_gram, dualgp.acquisition.ngd_step

        def building(state, x):
            built.append(cross_gram(state, x))
            return built[-1]

        def conditioning(*args, cross):
            handed.append(cross)
            return ngd_step(*args, cross=cross)

        monkeypatch.setattr(dualgp.acquisition, "cross_gram", building)
        monkeypatch.setattr(dualgp.acquisition, "ngd_step", conditioning)
        predicted, evaluated = [], []
        monkeypatch.setattr(dualgp.acquisition, "predict", lambda s, x: predicted.append(1) or predict(s, x))
        evaluate = ExpectedImprovement.evaluate
        monkeypatch.setattr(ExpectedImprovement, "evaluate", lambda a, s, x: evaluated.append(1) or evaluate(a, s, x))
        fantasize_batch(state, lik, acq, k=3, search_budget=64, seed=10, fantasy_sample=sample)
        assert len(built) == 3 and all(b is h for b, h in zip(built, handed, strict=True))
        assert [b.kzx.shape[1] for b in built] == [1, 1, 1]
        assert len(predicted) == len(evaluated)  # the acquisition's only; none for a label

    @pytest.mark.parametrize("sample", [False, True], ids=["mean", "sampled"])
    def test_shared_block_changes_no_bit(self, rng, monkeypatch, sample):
        """Against conditioning steps that build their own block, as ``ngd_step`` does without one."""
        state, lik, _, y = _gaussian_model(rng)
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        points, fantasy = fantasize_batch(state, lik, acq, k=3, search_budget=64, seed=12, fantasy_sample=sample)
        ngd_step = dualgp.acquisition.ngd_step
        monkeypatch.setattr(dualgp.acquisition, "ngd_step", lambda *args, cross=None: ngd_step(*args))
        own_points, own = fantasize_batch(state, lik, acq, k=3, search_budget=64, seed=12, fantasy_sample=sample)
        np.testing.assert_array_equal(points, own_points)
        for name in ("alpha_u", "b_u", "kinv_alpha"):
            np.testing.assert_array_equal(getattr(fantasy, name), getattr(own, name))
        np.testing.assert_array_equal(fantasy.kq.inv, own.kq.inv)
