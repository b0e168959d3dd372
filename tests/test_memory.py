"""Leverage scores and seeded curation of the replay memory."""

import numpy as np
import pytest
from oracles import bls_dense, rls

from dualgp.dual import iterate_ngd, make_state, ngd_step, predict
from dualgp.kernels import Hyperparams, KernelSpec, gram
from dualgp.likelihoods import BernoulliLogit, Gaussian
from dualgp.memory import MemorySet, bls, empty_memory, update_memory


def _spec(ls=0.8):
    return KernelSpec("matern52", Hyperparams(1.0, np.array([ls])))


def _converged_gaussian_state(rng, n=8):
    x = rng.uniform(-2, 2, (n, 1))
    y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(n)
    lik = Gaussian(noise_variance=0.3)
    state = ngd_step(make_state(_spec(), x), lik, x, y, rho=1.0)
    return state, lik, x, y


class TestScores:
    def test_gaussian_scores_proportional_to_variance(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng)
        scores = bls(lik, y, *predict(state, x))
        _, var = predict(state, x)
        np.testing.assert_allclose(scores, var / 0.3, atol=1e-12)

    def test_far_point_scores_higher(self, rng):
        """An unexplained region carries more leverage than a covered one."""
        state, lik, _, _ = _converged_gaussian_state(rng)
        probe_x = np.array([[0.0], [9.0]])
        probe_y = np.array([0.0, 0.0])
        scores = bls(lik, probe_y, *predict(state, probe_x))
        assert scores[1] > scores[0]

    def test_dense_route_agrees_at_gaussian_fixed_point(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng)
        np.testing.assert_allclose(
            bls(lik, y, *predict(state, x)), bls_dense(state, lik, x, y), atol=1e-10
        )

    def test_dense_route_agrees_at_bernoulli_fixed_point(self, rng):
        x = rng.uniform(-2, 2, (7, 1))
        y = np.where(rng.standard_normal(7) > 0, 1.0, -1.0)
        lik = BernoulliLogit()
        state, _, converged = iterate_ngd(make_state(_spec(), x), lik, x, y, rho=0.7, tol=1e-12)
        assert converged
        np.testing.assert_allclose(
            bls(lik, y, *predict(state, x)), bls_dense(state, lik, x, y), atol=1e-9
        )

    def test_scores_positive(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng)
        assert np.all(bls(lik, y, *predict(state, x)) > 0)
        assert np.all(bls_dense(state, lik, x, y) > 0)


class TestRidgeLeverage:
    def test_matches_direct_inverse(self, rng):
        """Woodbury evaluation against the textbook expression."""
        z = rng.uniform(-2, 2, (4, 1))
        x = rng.uniform(-2, 2, (6, 1))
        spec = _spec()
        kzz = gram(spec, z) + 1e-10 * np.eye(4)
        a = np.linalg.solve(kzz, gram(spec, z, x))
        noise = 0.4
        middle = np.linalg.inv(a @ a.T / noise + np.linalg.inv(kzz))
        direct = np.einsum("ij,jk,ki->i", a.T, middle, a)
        np.testing.assert_allclose(rls(spec, noise, a, kzz), direct, atol=1e-12)

    def test_large_noise_limit_is_prior_leverage(self, rng):
        z = rng.uniform(-2, 2, (4, 1))
        x = rng.uniform(-2, 2, (6, 1))
        spec = _spec()
        kzz = gram(spec, z) + 1e-10 * np.eye(4)
        a = np.linalg.solve(kzz, gram(spec, z, x))
        limit = np.einsum("ij,jk,ki->i", a.T, kzz, a)
        np.testing.assert_allclose(rls(spec, 1e12, a, kzz), limit, atol=1e-9)

    def test_matches_gaussian_dense_leverage_term(self, rng):
        """With unit site weights 1/s2 the two score families share their core."""
        state, lik, x, y = _converged_gaussian_state(rng)
        spec = state.kernel
        kzz = state.keff
        kzx = gram(spec, state.z, x)
        a = np.linalg.solve(kzz, kzx)
        noise = lik.noise_variance
        dense = bls_dense(state, lik, x, y)
        residual = (1.0 + 0.0) - np.sum(kzx * a, axis=0)  # prior diag is 1.0 here
        leverage = dense * noise - residual
        np.testing.assert_allclose(rls(spec, noise, a, kzz), leverage, atol=1e-9)


class TestUpdateMemory:
    def test_empty_capacity_clears_memory(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng)
        mem = update_memory(empty_memory(1), lik, x, y, *predict(state, x), capacity=0, rng_seed=0)
        assert len(mem) == 0

    def test_pool_within_capacity_kept_whole(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng)
        mem = update_memory(empty_memory(1), lik, x, y, *predict(state, x), capacity=50, rng_seed=0)
        assert len(mem) == len(x)
        np.testing.assert_array_equal(mem.inputs, x)
        np.testing.assert_array_equal(mem.labels, y)

    def test_deterministic_for_fixed_seed(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng, n=12)
        a = update_memory(empty_memory(1), lik, x, y, *predict(state, x), capacity=5, rng_seed=7)
        b = update_memory(empty_memory(1), lik, x, y, *predict(state, x), capacity=5, rng_seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_different_seeds_differ_somewhere(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng, n=12)
        draws = {
            tuple(update_memory(empty_memory(1), lik, x, y, *predict(state, x), 5, seed).inputs[:, 0])
            for seed in range(8)
        }
        assert len(draws) > 1

    def test_composite_seed_accepted(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng, n=12)
        mem = update_memory(empty_memory(1), lik, x, y, *predict(state, x), capacity=5, rng_seed=[3, 1])
        assert len(mem) == 5

    def test_empty_memory_pool_is_the_batch(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng)
        memory = update_memory(empty_memory(1), lik, x, y, *predict(state, x), capacity=len(y), rng_seed=0)
        assert np.array_equal(memory.inputs, x) and np.array_equal(memory.labels, y)
        assert np.array_equal(memory.scores, bls(lik, y, *predict(state, x)))

    def test_pool_includes_old_memory(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng, n=6)
        old = MemorySet(
            inputs=np.array([[5.0], [6.0]]), labels=np.array([0.1, 0.2]), scores=np.ones(2)
        )
        mem = update_memory(old, lik, x, y, *predict(state, np.vstack([x, old.inputs])), capacity=20, rng_seed=0)
        assert len(mem) == 8
        np.testing.assert_array_equal(mem.inputs[:2], old.inputs)

    def test_kept_indices_preserve_pool_order(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng, n=15)
        mem = update_memory(empty_memory(1), lik, x, y, *predict(state, x), capacity=6, rng_seed=11)
        positions = [int(np.flatnonzero(x[:, 0] == v)[0]) for v in mem.inputs[:, 0]]
        assert positions == sorted(positions)

    def test_returned_scores_are_current(self, rng):
        state, lik, x, y = _converged_gaussian_state(rng, n=10)
        mem = update_memory(empty_memory(1), lik, x, y, *predict(state, x), capacity=4, rng_seed=2)
        np.testing.assert_allclose(mem.scores, bls(lik, mem.labels, *predict(state, mem.inputs)), atol=1e-12)

    def test_selection_frequency_tracks_scores(self, rng):
        """A point with nine times the leverage wins one-of-two draws ~90%.

        Weighted sampling without replacement via exponential keys makes the
        first pick land on i with probability score_i / sum(scores); with a
        fixed seed range the count is deterministic, expected 900 +- ~30.
        """
        z = np.array([[0.0], [1.5]])
        lik = Gaussian(noise_variance=0.5)
        state = make_state(_spec(), z)
        x = np.array([[0.0], [50.0]])
        y = np.array([0.0, 0.0])
        state = ngd_step(state, lik, np.array([[0.0]] * 9), np.zeros(9), rho=1.0)
        scores = bls(lik, y, *predict(state, x))
        assert scores[1] / scores[0] > 5.0
        wins = sum(
            float(update_memory(empty_memory(1), lik, x, y, *predict(state, x), 1, seed).inputs[0, 0]) == 50.0
            for seed in range(1000)
        )
        expected = 1000 * scores[1] / scores.sum()
        assert abs(wins - expected) < 45.0
