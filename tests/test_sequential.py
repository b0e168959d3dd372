"""Streaming engine: prior adjustment, objectives, hyper steps, full runs.

Frozen by hand for the single-point conjugate model (unit prior, unit
noise, y = 1): the hyperparameter objective at the fitted state is

    -1/2 log|K B^+ K + K| - 1/2 b (B+K)^{-1} b
        = -1/2 log 2 - 1/4 = -0.5965735902799727

which also equals the evidence bound plus half log 2 pi there.
"""

import numpy as np
import pytest
from oracles import seq_objective_vcl_form

from dualgp.dual import elbo, iterate_ngd, make_state, ngd_step, predict
from dualgp.harness import make_stream
from dualgp.kernels import Hyperparams, KernelSpec
from dualgp.likelihoods import BernoulliLogit, Gaussian
from dualgp.memory import MemorySet, empty_memory
from dualgp.representation import pivoted_cholesky_select
from dualgp.sequential import (
    SequentialConfig,
    fit_offline,
    hyper_gradient,
    hyper_objective,
    optimize_hypers,
    process_batch,
    remove_memory,
    run_stream,
    seq_objective,
)

ONE_POINT_HYPER_OBJECTIVE = -0.5965735902799727


def _spec(ls=0.8, noise=0.3):
    return KernelSpec("matern52", Hyperparams(1.0, np.array([ls]), noise_variance=noise))


def _memory_of(x, y):
    return MemorySet(inputs=x, labels=y, scores=np.ones(len(y)))


def _fitted_gaussian(rng, n=6, noise=0.3):
    x = rng.uniform(-2, 2, (n, 1))
    y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(n)
    lik = Gaussian(noise)
    state = ngd_step(make_state(_spec(noise=noise), x), lik, x, y, rho=1.0)
    return state, lik, x, y


class TestRemoveMemory:
    def test_empty_memory_returns_posterior(self, rng):
        state, lik, _, _ = _fitted_gaussian(rng)
        prior = remove_memory(state, lik, empty_memory(1))
        np.testing.assert_array_equal(prior.alpha, state.alpha_u)
        np.testing.assert_array_equal(prior.b, state.b_u)
        np.testing.assert_array_equal(prior.removed_alpha, 0.0)
        assert prior.clip_magnitude == 0.0

    def test_disabled_keeps_pair_but_fills_bookkeeping(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        prior = remove_memory(state, lik, _memory_of(x, y), enabled=False)
        np.testing.assert_array_equal(prior.alpha, state.alpha_u)
        np.testing.assert_array_equal(prior.b, state.b_u)
        assert float(np.max(np.abs(prior.removed_b))) > 0.1

    def test_full_memory_removal_recovers_kernel_prior(self, rng):
        """Removing all the data a converged state absorbed leaves nothing."""
        state, lik, x, y = _fitted_gaussian(rng)
        prior = remove_memory(state, lik, _memory_of(x, y))
        np.testing.assert_allclose(prior.alpha, 0.0, atol=1e-9)
        np.testing.assert_allclose(prior.b, 0.0, atol=1e-9)

    def test_adjusted_precision_stays_psd(self, rng):
        """Partial-memory removal at an unconverged state still yields PSD b."""
        x = rng.uniform(-2, 2, (8, 1))
        y = np.sin(x[:, 0])
        lik = Gaussian(0.3)
        state = make_state(_spec(), x[:5])
        for _ in range(2):
            state = ngd_step(state, lik, x, y, rho=0.6)
        prior = remove_memory(state, lik, _memory_of(x[:4], y[:4]))
        w = np.linalg.eigvalsh(prior.b)
        assert w.min() >= -1e-10
        assert prior.clip_magnitude >= 0.0

    def test_mean_ref_is_old_posterior_mean(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        prior = remove_memory(state, lik, _memory_of(x[:2], y[:2]))
        np.testing.assert_array_equal(prior.mean_ref, state.alpha_u)


class TestSeqObjective:
    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_equals_union_bound_when_memory_is_all_past_data(self, rng, family):
        """With total replay the streaming bound is the batch bound on the union."""
        x_old = rng.uniform(-2, 2, (6, 1))
        x_new = rng.uniform(-2, 2, (4, 1))
        if family == "gaussian":
            lik = Gaussian(0.3)
            y_old = np.sin(x_old[:, 0]) + 0.1 * rng.standard_normal(6)
            y_new = np.sin(x_new[:, 0]) + 0.1 * rng.standard_normal(4)
            state = ngd_step(make_state(_spec(), x_old), lik, x_old, y_old, rho=1.0)
        else:
            lik = BernoulliLogit()
            y_old = np.where(rng.standard_normal(6) > 0, 1.0, -1.0)
            y_new = np.where(rng.standard_normal(4) > 0, 1.0, -1.0)
            state, _, converged = iterate_ngd(
                make_state(_spec(), x_old), lik, x_old, y_old, rho=0.7, tol=1e-12
            )
            assert converged
        memory = _memory_of(x_old, y_old)
        prior = remove_memory(state, lik, memory)

        # Candidate states need not be converged for the identity to hold.
        candidate = ngd_step(
            state, lik, x_new, y_new, rho=0.5, prior_alpha=prior.alpha,
            prior_b=prior.b, prior_mean_ref=prior.mean_ref,
        )
        for probe in (state, candidate):
            streaming = seq_objective(probe, lik, x_new, y_new, memory, prior)
            union = elbo(
                probe, lik, np.vstack([x_new, x_old]), np.concatenate([y_new, y_old])
            )
            assert streaming == pytest.approx(union, abs=1e-9)

    def test_vcl_form_differs_by_state_independent_constant(self, rng):
        x_old = rng.uniform(-2, 2, (6, 1))
        y_old = np.sin(x_old[:, 0]) + 0.1 * rng.standard_normal(6)
        x_new = rng.uniform(-2, 2, (3, 1))
        y_new = np.sin(x_new[:, 0])
        lik = Gaussian(0.3)
        state = ngd_step(make_state(_spec(), x_old), lik, x_old, y_old, rho=1.0)
        memory = _memory_of(x_old[:3], y_old[:3])
        prior = remove_memory(state, lik, memory)

        offsets = []
        probe = state
        for _ in range(3):
            probe = ngd_step(
                probe, lik, x_new, y_new, rho=0.4, prior_alpha=prior.alpha,
                prior_b=prior.b, prior_mean_ref=prior.mean_ref,
            )
            a = seq_objective(probe, lik, x_new, y_new, memory, prior)
            b = seq_objective_vcl_form(probe, lik, x_new, y_new, memory, prior)
            offsets.append(a - b)
        assert max(offsets) - min(offsets) < 1e-9

    def test_empty_memory_reduces_to_plain_bound(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        memory = empty_memory(1)
        prior = remove_memory(state, lik, memory)
        val = seq_objective(state, lik, x, y, memory, prior)
        ref = elbo(
            state, lik, x, y, prior.alpha, prior.b, prior.mean_ref
        )
        assert val == pytest.approx(ref, rel=1e-12)


class TestProcessBatch:
    def test_replay_includes_memory_points(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        memory = _memory_of(x[:3], y[:3])
        config = SequentialConfig(num_inducing=6, ngd_steps=1, ngd_rho=0.5)
        with_replay, prior = process_batch(state, lik, config, x[3:], y[3:], memory)
        manual = ngd_step(
            state, lik, np.vstack([x[3:], x[:3]]), np.concatenate([y[3:], y[:3]]),
            0.5, prior.alpha, prior.b, prior.mean_ref,
        )
        np.testing.assert_allclose(with_replay.alpha_u, manual.alpha_u, atol=1e-12)
        np.testing.assert_allclose(with_replay.b_u, manual.b_u, atol=1e-12)

    def test_replay_toggle_off_uses_batch_only(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        memory = _memory_of(x[:3], y[:3])
        config = SequentialConfig(num_inducing=6, ngd_steps=1, ngd_rho=0.5, replay_memory=False)
        no_replay, prior = process_batch(state, lik, config, x[3:], y[3:], memory)
        manual = ngd_step(state, lik, x[3:], y[3:], 0.5, prior.alpha, prior.b, prior.mean_ref)
        np.testing.assert_allclose(no_replay.alpha_u, manual.alpha_u, atol=1e-12)

    def test_runs_requested_step_count(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        config1 = SequentialConfig(num_inducing=6, ngd_steps=1, ngd_rho=0.4)
        config3 = SequentialConfig(num_inducing=6, ngd_steps=3, ngd_rho=0.4)
        one, prior = process_batch(state, lik, config1, x, y, empty_memory(1))
        three, _ = process_batch(state, lik, config3, x, y, empty_memory(1))
        manual = one
        for _ in range(2):
            manual = ngd_step(manual, lik, x, y, 0.4, prior.alpha, prior.b, prior.mean_ref)
        np.testing.assert_allclose(three.alpha_u, manual.alpha_u, atol=1e-12)


class TestHyperObjective:
    def test_one_point_frozen_value(self):
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8]), noise_variance=1.0))
        lik = Gaussian(1.0)
        x, y = np.array([[0.0]]), np.array([1.0])
        state = ngd_step(make_state(spec, x), lik, x, y, rho=1.0)
        val = hyper_objective(state, lik, x, y, np.empty((0, 1)), np.empty(0), 0, spec.hyper)
        assert val == pytest.approx(ONE_POINT_HYPER_OBJECTIVE, rel=1e-12)

    def test_one_point_sits_half_log_two_pi_above_bound(self):
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8]), noise_variance=1.0))
        lik = Gaussian(1.0)
        x, y = np.array([[0.0]]), np.array([1.0])
        state = ngd_step(make_state(spec, x), lik, x, y, rho=1.0)
        val = hyper_objective(state, lik, x, y, np.empty((0, 1)), np.empty(0), 0, spec.hyper)
        bound = elbo(state, lik, x, y)
        assert val - bound == pytest.approx(0.5 * np.log(2.0 * np.pi), rel=1e-12)

    def test_memory_term_scales_linearly_with_n_old(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        x_mem, y_mem = x[:3], y[:3]
        base = hyper_objective(state, lik, x[3:], y[3:], x_mem, y_mem, 0, state.kernel.hyper)
        one = hyper_objective(state, lik, x[3:], y[3:], x_mem, y_mem, 3, state.kernel.hyper)
        two = hyper_objective(state, lik, x[3:], y[3:], x_mem, y_mem, 6, state.kernel.hyper)
        assert two - one == pytest.approx(one - base, rel=1e-9)

    def test_noise_variance_flows_from_hyper(self, rng):
        """For Gaussian data the hyper argument overrides the likelihood noise."""
        state, lik, x, y = _fitted_gaussian(rng)
        loud = Hyperparams(1.0, np.array([0.8]), noise_variance=5.0)
        quiet = Hyperparams(1.0, np.array([0.8]), noise_variance=0.3)
        assert hyper_objective(
            state, lik, x, y, np.empty((0, 1)), np.empty(0), 0, loud
        ) != hyper_objective(state, lik, x, y, np.empty((0, 1)), np.empty(0), 0, quiet)

    def test_gradient_of_quadratic_is_exact(self):
        h = np.array([[2.0, 0.3], [0.3, 1.0]])
        lin = np.array([0.4, -1.1])

        def objective(t):
            return float(lin @ t - 0.5 * t @ h @ t)

        point = np.array([0.7, -0.2])
        grad = hyper_gradient(objective, point, fd_step=1e-4)
        np.testing.assert_allclose(grad, lin - h @ point, atol=1e-9)


class TestOptimizeHypers:
    def test_trace_never_drops_beyond_guard(self, rng):
        x = np.sort(rng.uniform(-3, 3, 30))[:, None]
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(30)
        spec = _spec(ls=2.0, noise=0.5)
        lik = Gaussian(0.5)
        state = ngd_step(make_state(spec, x[::3]), lik, x, y, rho=1.0)
        config = SequentialConfig(num_inducing=10, hyper_steps=10, hyper_lr=0.05)
        _, _, trace = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0)
        diffs = np.diff(np.asarray(trace))
        assert diffs.min() > -1e-6

    def test_improves_misspecified_start(self, rng):
        x = np.sort(rng.uniform(-3, 3, 30))[:, None]
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(30)
        spec = _spec(ls=2.0, noise=0.5)
        lik = Gaussian(0.5)
        state = ngd_step(make_state(spec, x[::3]), lik, x, y, rho=1.0)
        config = SequentialConfig(num_inducing=10, hyper_steps=15, hyper_lr=0.08)
        new_state, new_lik, trace = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0)
        assert trace[-1] > trace[0]
        assert new_state.kernel.hyper.lengthscales[0] != 2.0
        assert new_lik.noise_variance != 0.5

    def test_dual_parameters_frozen_through_ascent(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        config = SequentialConfig(num_inducing=6, hyper_steps=5, hyper_lr=0.05)
        new_state, _, _ = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0)
        np.testing.assert_array_equal(new_state.alpha_u, state.alpha_u)
        np.testing.assert_array_equal(new_state.b_u, state.b_u)

    def test_bernoulli_keeps_likelihood_object(self, rng):
        x = rng.uniform(-2, 2, (10, 1))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        lik = BernoulliLogit()
        state, _, _ = iterate_ngd(make_state(_spec(), x), lik, x, y, rho=0.7, tol=1e-10)
        config = SequentialConfig(num_inducing=10, hyper_steps=3, hyper_lr=0.05)
        _, new_lik, trace = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0)
        assert new_lik is lik
        assert len(trace) == 4


class TestRunStream:
    def _batches(self, rng, n=120, k=4):
        x = np.sort(rng.uniform(-3, 3, n))[:, None]
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(n)
        return [
            (xs, ys)
            for xs, ys in zip(np.array_split(x, k), np.array_split(y, k))
        ]

    def test_record_fields_and_counters(self, rng):
        batches = self._batches(rng)
        config = SequentialConfig(num_inducing=12, memory_capacity=15, ngd_steps=3)
        result = run_stream(batches, _spec(), Gaussian(0.3), config, seed=5)
        assert [r["batch_index"] for r in result.records] == [0, 1, 2, 3]
        assert [r["n_seen"] for r in result.records] == [30, 60, 90, 120]
        for record in result.records:
            assert record["seed"] == 5
            assert record["wall_ms"] > 0.0
            assert np.isfinite(record["elbo_like_objective"])
            assert set(record["theta"]) == {
                "variance", "lengthscales", "constant_variance", "noise_variance",
            }

    def test_stream_learns_the_function(self, rng):
        """Late-stream predictions beat first-batch predictions on held-out data."""
        batches = self._batches(rng)
        x_test = np.linspace(-3, 3, 60)[:, None]
        y_test = np.sin(2.0 * x_test[:, 0])
        config = SequentialConfig(
            num_inducing=15, memory_capacity=20, ngd_steps=4, hyper_steps=2, hyper_lr=0.05
        )

        def evaluate(state, lik):
            mean, _ = predict(state, x_test)
            return {"rmse": float(np.sqrt(np.mean((mean - y_test) ** 2)))}

        result = run_stream(batches, _spec(ls=0.6, noise=0.1), Gaussian(0.1), config, evaluate=evaluate)
        assert result.records[-1]["rmse"] < result.records[0]["rmse"]
        assert result.records[-1]["rmse"] < 0.2

    def test_memory_capacity_respected(self, rng):
        batches = self._batches(rng)
        config = SequentialConfig(num_inducing=10, memory_capacity=7)
        result = run_stream(batches, _spec(), Gaussian(0.3), config)
        assert len(result.memory) == 7

    def test_zero_capacity_keeps_memory_empty(self, rng):
        batches = self._batches(rng)
        config = SequentialConfig(num_inducing=10, memory_capacity=0)
        result = run_stream(batches, _spec(), Gaussian(0.3), config)
        assert len(result.memory) == 0

    def test_deterministic_given_seed(self, rng):
        batches = self._batches(rng)
        config = SequentialConfig(num_inducing=10, memory_capacity=9, hyper_steps=1)
        a = run_stream(batches, _spec(), Gaussian(0.3), config, seed=3)
        b = run_stream(batches, _spec(), Gaussian(0.3), config, seed=3)
        np.testing.assert_array_equal(a.state.alpha_u, b.state.alpha_u)
        np.testing.assert_array_equal(a.memory.inputs, b.memory.inputs)
        for ra, rb in zip(a.records, b.records):
            assert ra["elbo_like_objective"] == rb["elbo_like_objective"]

    def test_no_batches_raises(self):
        with pytest.raises(ValueError, match="at least one batch"):
            run_stream([], _spec(), Gaussian(0.3), SequentialConfig(num_inducing=5))

    def test_inducing_budget_respected(self, rng):
        batches = self._batches(rng)
        config = SequentialConfig(num_inducing=8)
        result = run_stream(batches, _spec(), Gaussian(0.3), config)
        assert result.state.num_inducing <= 8


class TestOneDimensionalInputs:
    """A 1-D input array is n points in one dimension at every entry point."""

    def test_make_state(self):
        z = np.array([0.0, 1.0, 2.0])
        flat, column = make_state(_spec(), z), make_state(_spec(), z[:, None])
        assert flat.z.shape == (3, 1)
        for name in ("z", "alpha_u", "b_u"):
            assert np.array_equal(getattr(flat, name), getattr(column, name))
        assert np.array_equal(flat.kzz.chol, column.kzz.chol)

    def test_pivoted_cholesky_select(self, rng):
        x = rng.uniform(-3, 3, 20)
        flat = pivoted_cholesky_select(_spec(), x, 6)
        column = pivoted_cholesky_select(_spec(), x[:, None], 6)
        assert len(flat.indices) == 6
        assert np.array_equal(flat.indices, column.indices)
        assert np.array_equal(flat.residual_diag, column.residual_diag)

    def test_make_stream(self, rng):
        x, y = rng.uniform(-3, 3, 10), rng.standard_normal(10)
        flat_batches = make_stream(x, y, 3, order="sorted")
        column_batches = make_stream(x[:, None], y, 3, order="sorted")
        for flat, column in zip(flat_batches, column_batches):
            assert np.array_equal(flat[0], column[0]) and np.array_equal(flat[1], column[1])

    def test_run_stream(self, rng):
        x = np.sort(rng.uniform(-3, 3, 60))
        y = np.sin(2.0 * x) + 0.1 * rng.standard_normal(60)
        config = SequentialConfig(num_inducing=8, memory_capacity=6, hyper_steps=1)
        flat = run_stream(
            zip(np.array_split(x, 3), np.array_split(y, 3)), _spec(), Gaussian(0.3), config
        )
        column = run_stream(
            zip(np.array_split(x[:, None], 3), np.array_split(y, 3)), _spec(), Gaussian(0.3), config
        )
        for name in ("z", "alpha_u", "b_u"):
            assert np.array_equal(getattr(flat.state, name), getattr(column.state, name))
        assert np.array_equal(flat.memory.inputs, column.memory.inputs)
        for a, b in zip(flat.records, column.records):
            assert {k: v for k, v in a.items() if k != "wall_ms"} == {
                k: v for k, v in b.items() if k != "wall_ms"
            }


class TestFitOffline:
    def test_single_record_with_scaled_budget(self, rng):
        x = rng.uniform(-3, 3, (60, 1))
        y = np.sin(x[:, 0])
        config = SequentialConfig(num_inducing=10, ngd_steps=2, hyper_steps=1, memory_capacity=9)
        result = fit_offline(_spec(), Gaussian(0.2), config, x, y, budget_batches=3)
        assert len(result.records) == 1
        assert result.records[0]["n_seen"] == 60
        assert len(result.memory) == 0

    def test_matches_manual_equivalent_stream(self, rng):
        x = rng.uniform(-3, 3, (40, 1))
        y = np.sin(x[:, 0])
        config = SequentialConfig(num_inducing=8, ngd_steps=2)
        offline = fit_offline(_spec(), Gaussian(0.2), config, x, y, budget_batches=2)
        manual_config = SequentialConfig(num_inducing=8, ngd_steps=4)
        manual = run_stream([(x, y)], _spec(), Gaussian(0.2), manual_config)
        np.testing.assert_allclose(offline.state.alpha_u, manual.state.alpha_u, atol=1e-12)
