"""Streaming engine: prior adjustment, objectives, hyper steps, full runs.

Frozen by hand for the single-point conjugate model (unit prior, unit
noise, y = 1): the hyperparameter objective at the fitted state is the
evidence bound, which is tight at the exact posterior, so it equals the log
evidence

    log N(1 | 0, 2) = -1/2 log 4 pi - 1/4 = -1.5155121234846454
"""

import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import banana, fit_offline, hyper_objective_reference, run_stream_keeping_states, seq_objective_vcl_form

import dualgp.dual
import dualgp.kernels
import dualgp.memory
import dualgp.representation
import dualgp.sequential
from dualgp.dual import cross_gram, elbo, iterate_ngd, make_state, ngd_step, predict
from dualgp.harness import evaluate_state, make_stream
from dualgp.kernels import FactorizationFailed, Hyperparams, KernelSpec, gram_diag, stable_cholesky
from dualgp.likelihoods import BernoulliLogit, Gaussian
from dualgp.memory import MemorySet, empty_memory
from dualgp.representation import pivoted_cholesky_select, project_duals, refresh_representation
from dualgp.sequential import (
    SequentialConfig,
    Stream,
    _hyper_at,
    _log_theta,
    hyper_gradient,
    hyper_objective,
    optimize_hypers,
    process_batch,
    remove_memory,
    run_stream,
    seq_objective,
    step,
)

ONE_POINT_HYPER_OBJECTIVE = -1.5155121234846454


def _spec(ls=0.8, noise=0.3):
    return KernelSpec("matern52", Hyperparams(1.0, np.array([ls]), noise_variance=noise))


def _moved(hyper, scale=1.2):
    """``hyper`` with every value moved, so the objective rebuilds a new ``K``."""
    noise = None if hyper.noise_variance is None else hyper.noise_variance * scale
    return Hyperparams(hyper.variance * scale, hyper.lengthscales / scale, noise_variance=noise)


def _hyper_case(name, rng):
    """``(state, lik, x, y, x_mem, y_mem, n_old, hyper)`` for one named state."""
    no_mem = (np.empty((0, 1)), np.empty(0), 0)
    if name == "one_point":
        spec = _spec(noise=1.0)
        lik, x, y = Gaussian(1.0), np.array([[0.0]]), np.array([1.0])
        state = ngd_step(make_state(spec, x), lik, x, y, rho=1.0)
        return (state, lik, x, y, *no_mem, _moved(spec.hyper))
    if name == "zero_b_u":
        z = np.linspace(-2.0, 2.0, 5)[:, None]
        state = make_state(_spec(), z, alpha_u=np.sin(z[:, 0]))
        x = rng.uniform(-2, 2, (4, 1))
        return (state, Gaussian(0.3), x, np.cos(x[:, 0]), *no_mem, _moved(state.kernel.hyper))
    if name.startswith("rank_deficient"):
        m, n = {"rank_deficient_10_3": (10, 3), "rank_deficient_20_5": (20, 5)}[name]
        spec = _spec(ls=0.3)
        x = rng.uniform(-3, 3, (n, 1))
        y = np.sin(x[:, 0])
        state = ngd_step(make_state(spec, np.linspace(-3, 3, m)[:, None]), Gaussian(0.3), x, y, 1.0)
        assert np.linalg.matrix_rank(state.b_u) == n
        return (state, Gaussian(0.3), x, y, x[:2], y[:2], 4, _moved(spec.hyper))
    if name == "criterion_10":
        x = np.linspace(-2.0, 2.0, 12)[:, None]
        y = np.sin(1.5 * x[:, 0])
        lik = Gaussian(0.25)
        spec = KernelSpec("matern52", Hyperparams(0.8, np.array([0.6])))
        z = x[pivoted_cholesky_select(spec, x, 4).indices]
        state, _, _ = iterate_ngd(make_state(spec, z), lik, x, y, rho=1.0, max_steps=5)
        hyper = Hyperparams(0.8, np.array([0.6]), noise_variance=0.25)
        return (state, lik, x, y, *no_mem, hyper)
    if name == "bernoulli":
        x = rng.uniform(-2, 2, (10, 1))
        y = np.where(np.sin(2.0 * x[:, 0]) > 0, 1.0, -1.0)
        lik, spec = BernoulliLogit(), KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
        state, _, _ = iterate_ngd(make_state(spec, x[:6]), lik, x, y, rho=0.7, max_steps=20)
        return (state, lik, x[6:], y[6:], x[:6], y[:6], 12, _moved(spec.hyper))
    state, lik, x, y = _fitted_gaussian(rng)
    if name == "with_memory":
        return (state, lik, x[3:], y[3:], x[:3], y[:3], 9, _moved(state.kernel.hyper))
    return (state, lik, x, y, *no_mem, _moved(state.kernel.hyper))


def _count_eigh(monkeypatch):
    """A list that grows by one entry per ``eigh`` the engine runs."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return np.linalg.eigh(*args, **kwargs)

    for module in (dualgp.dual, dualgp.sequential):
        monkeypatch.setattr(module, "eigh", counting)
    return calls


def _count_calls(monkeypatch, module, name):
    """A list that grows by one entry per call of ``module.name``, in every module that imported it."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for engine_module in (dualgp.dual, dualgp.representation, dualgp.memory, dualgp.sequential):
        if getattr(engine_module, name, None) is original:
            monkeypatch.setattr(engine_module, name, counting)
    return calls


def _memory_of(x, y):
    return MemorySet(inputs=x, labels=y, scores=np.ones(len(y)))


def _fitted_gaussian(rng, n=6, noise=0.3):
    x = rng.uniform(-2, 2, (n, 1))
    y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(n)
    lik = Gaussian(noise)
    state = ngd_step(make_state(_spec(noise=noise), x), lik, x, y, rho=1.0)
    return state, lik, x, y


class TestSequentialConfig:
    @pytest.mark.parametrize(
        "setting",
        [
            {"num_inducing": 0},
            {"ngd_rho": -0.1},
            {"ngd_rho": 0.0},
            {"ngd_rho": 1.5},
            {"ngd_steps": -1},
            {"ngd_steps": 0},
            {"memory_capacity": -1},
            {"hyper_steps": -1},
            {"hyper_lr": 0.0},
            {"hyper_lr": float("nan")},
            {"hyper_lr": float("inf")},
            {"num_inducing": 2.5},
            {"ngd_steps": 2.5},
            {"memory_capacity": 2.5},
            {"hyper_steps": 2.5},
            {"num_inducing": True},
            {"ngd_steps": True},
            {"memory_capacity": True},
            {"hyper_steps": True},
        ],
        ids=lambda setting: "{}={}".format(*next(iter(setting.items()))),
    )
    def test_out_of_range_value_raises(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            SequentialConfig(**{"num_inducing": 5, **setting})

    def test_range_ends_are_accepted(self):
        SequentialConfig(num_inducing=1, ngd_rho=5e-324, ngd_steps=1, memory_capacity=0, hyper_steps=0)
        SequentialConfig(num_inducing=1, ngd_rho=1.0)
        counts = ("num_inducing", "ngd_steps", "memory_capacity", "hyper_steps")
        SequentialConfig(**{name: np.int64(1) for name in counts})


class TestRemoveMemory:
    def test_empty_memory_returns_posterior(self, rng):
        state, lik, _, _ = _fitted_gaussian(rng)
        prior = remove_memory(state, lik, empty_memory(1))
        np.testing.assert_array_equal(prior.alpha, state.alpha_u)
        np.testing.assert_array_equal(prior.b, state.b_u)
        assert prior.clip_magnitude == 0.0

    @pytest.mark.parametrize("name", ["alpha", "b", "keff_ref", "logdet", "clip_magnitude"])
    def test_prior_fields_cannot_be_assigned(self, rng, name):
        state, lik, x, y = _fitted_gaussian(rng)
        prior = remove_memory(state, lik, _memory_of(x[:3], y[:3]))
        with pytest.raises(FrozenInstanceError):
            setattr(prior, name, None)

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

    def test_prior_is_posterior_of_the_other_points(self):
        """The adjusted pair is the posterior without the memory, mean included.

        Gaussian likelihood, Z equal to the data, one full step: removing
        the memory must give the fit on the remaining points, and
        conditioning that prior on the memory must give the state back.
        """
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, (8, 1))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(8)
        lik = Gaussian(0.3)
        state = ngd_step(make_state(_spec(), x), lik, x, y, rho=1.0)
        rest = ngd_step(make_state(_spec(), x), lik, x[3:], y[3:], rho=1.0)
        prior = remove_memory(state, lik, _memory_of(x[:3], y[:3]))
        np.testing.assert_allclose(prior.alpha, rest.alpha_u, rtol=0, atol=1e-9)
        np.testing.assert_allclose(prior.b, rest.b_u, rtol=0, atol=1e-9)
        back = ngd_step(state, lik, x[:3], y[:3], 1.0, prior.alpha, prior.b)
        np.testing.assert_allclose(back.alpha_u, state.alpha_u, rtol=0, atol=1e-9)
        np.testing.assert_allclose(back.b_u, state.b_u, rtol=0, atol=1e-9)


@pytest.mark.parametrize("flat", [False, True])
def test_with_empty_memory_is_the_batch(rng, flat):
    """With no memory the NGD data is the batch, given as points or as a flat array."""
    x = rng.uniform(-2, 2, (5, 1))
    y = np.sin(x[:, 0])
    lik, state = Gaussian(0.3), make_state(_spec(), x[:3])
    config = SequentialConfig(num_inducing=3, ngd_steps=1)
    new, _, (mean, var) = process_batch(state, lik, config, x[:, 0] if flat else x, y, empty_memory(1))
    expected = ngd_step(state, lik, x, y, config.ngd_rho, state.alpha_u, state.b_u)
    assert np.array_equal(new.alpha_u, expected.alpha_u) and np.array_equal(new.b_u, expected.b_u)
    fresh_mean, fresh_var = cross_gram(new, x).marginals(new)
    assert np.array_equal(mean, fresh_mean) and np.array_equal(var, fresh_var)


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
            state, lik, x_new, y_new, rho=0.5, prior_alpha=prior.alpha, prior_b=prior.b
        )
        for probe in (state, candidate):
            x_union, y_union = np.vstack([x_new, x_old]), np.concatenate([y_new, y_old])
            streaming = seq_objective(probe, lik, y_union, *predict(probe, x_union), prior)
            union = elbo(probe, lik, y_union, *predict(probe, x_union))
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
                probe, lik, x_new, y_new, rho=0.4, prior_alpha=prior.alpha, prior_b=prior.b
            )
            x_fit, y_fit = np.vstack([x_new, memory.inputs]), np.concatenate([y_new, memory.labels])
            a = seq_objective(probe, lik, y_fit, *predict(probe, x_fit), prior)
            b = seq_objective_vcl_form(probe, lik, x_new, y_new, memory, state)
            offsets.append(a - b)
        assert max(offsets) - min(offsets) < 1e-9

    def test_empty_memory_reduces_to_plain_bound(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        memory = empty_memory(1)
        prior = remove_memory(state, lik, memory)
        val = seq_objective(state, lik, y, *predict(state, x), prior)
        ref = elbo(state, lik, y, *predict(state, x), prior.alpha, prior.b)
        assert val == pytest.approx(ref, rel=1e-12)


class TestPriorFactor:
    """The prior keeps log det(``keff + b``); the objective reuses it while ``keff`` holds."""

    @pytest.mark.parametrize("n_mem", [0, 3])
    def test_prior_factor_is_the_fresh_factor(self, rng, n_mem):
        state, lik, x, y = _fitted_gaussian(rng)
        prior = remove_memory(state, lik, _memory_of(x[:n_mem], y[:n_mem]))
        assert prior.keff_ref() is state.keff
        assert prior.logdet == stable_cholesky(state.keff + prior.b).logdet
        assert not hasattr(prior, "factor")

    @pytest.mark.parametrize("n_mem", [0, 3])
    def test_prior_does_not_keep_kzz_alive(self, rng, n_mem):
        """Once no state holds the prior's ``keff``, its key reads None, so no later array matches it."""
        state, lik, x, y = _fitted_gaussian(rng)
        prior = remove_memory(state, lik, _memory_of(x[:n_mem], y[:n_mem]))
        del state
        assert prior.keff_ref() is None

    @pytest.mark.parametrize("n_mem", [0, 3])
    def test_objective_reuses_the_factor_bit_for_bit(self, rng, n_mem, factorizations):
        state, lik, x, y = _fitted_gaussian(rng)
        memory = _memory_of(x[:n_mem], y[:n_mem])
        config = SequentialConfig(num_inducing=6, ngd_steps=2)
        new, prior, _ = process_batch(state, lik, config, x[n_mem:], y[n_mem:], memory)
        x_all, y_all = np.vstack([x[n_mem:], x[:n_mem]]), np.concatenate([y[n_mem:], y[:n_mem]])
        factorizations.clear()
        value = seq_objective(new, lik, y_all, *predict(new, x_all), prior)
        assert factorizations == []
        assert value == elbo(new, lik, y_all, *predict(new, x_all), prior.alpha, prior.b)

    def test_objective_refactors_after_hyper_steps(self, rng, factorizations):
        state, lik, x, y = _fitted_gaussian(rng)
        memory = _memory_of(x[:3], y[:3])
        config = SequentialConfig(num_inducing=6, ngd_steps=1, hyper_steps=2)
        new, prior, marginals = process_batch(state, lik, config, x[3:], y[3:], memory)
        new, lik, _, _ = optimize_hypers(new, lik, config, x[3:], y[3:], memory, 3, marginals)
        assert prior.keff_ref() is state.keff
        assert new.keff is not state.keff
        x_all, y_all = np.vstack([x[3:], x[:3]]), np.concatenate([y[3:], y[:3]])
        factorizations.clear()
        value = seq_objective(new, lik, y_all, *predict(new, x_all), prior)
        assert factorizations == [(6, 6)]
        assert value == elbo(new, lik, y_all, *predict(new, x_all), prior.alpha, prior.b)


class TestProcessBatch:
    def test_replay_includes_memory_points(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        memory = _memory_of(x[:3], y[:3])
        config = SequentialConfig(num_inducing=6, ngd_steps=1, ngd_rho=0.5)
        with_replay, prior, _ = process_batch(state, lik, config, x[3:], y[3:], memory)
        manual = ngd_step(
            state, lik, np.vstack([x[3:], x[:3]]), np.concatenate([y[3:], y[:3]]),
            0.5, prior.alpha, prior.b,
        )
        np.testing.assert_allclose(with_replay.alpha_u, manual.alpha_u, atol=1e-12)
        np.testing.assert_allclose(with_replay.b_u, manual.b_u, atol=1e-12)

    def test_runs_requested_step_count(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        config1 = SequentialConfig(num_inducing=6, ngd_steps=1, ngd_rho=0.4)
        config3 = SequentialConfig(num_inducing=6, ngd_steps=3, ngd_rho=0.4)
        one, prior, _ = process_batch(state, lik, config1, x, y, empty_memory(1))
        three, _, _ = process_batch(state, lik, config3, x, y, empty_memory(1))
        manual = one
        for _ in range(2):
            manual = ngd_step(manual, lik, x, y, 0.4, prior.alpha, prior.b)
        np.testing.assert_allclose(three.alpha_u, manual.alpha_u, atol=1e-12)

    def test_shared_cross_gram_matches_public_steps(self, rng):
        """The steps share one cross-Gram and agree with steps that each build their own."""
        x = rng.uniform(-2, 2, (24, 2))
        y = np.sign(x[:, 0] + 0.3 * rng.standard_normal(24))
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8, 1.1])))
        lik = BernoulliLogit()
        state = ngd_step(make_state(spec, x[::3]), lik, x, y, rho=0.6)
        memory = _memory_of(x[:6], y[:6])
        config = SequentialConfig(num_inducing=8, ngd_steps=4, ngd_rho=0.6)
        new, prior, _ = process_batch(state, lik, config, x[6:], y[6:], memory)
        x_fit, y_fit = np.vstack([x[6:], x[:6]]), np.concatenate([y[6:], y[:6]])
        manual = state
        for _ in range(4):
            manual = ngd_step(manual, lik, x_fit, y_fit, 0.6, prior.alpha, prior.b)
        np.testing.assert_allclose(new.alpha_u, manual.alpha_u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new.b_u, manual.b_u, rtol=0, atol=1e-12)

    def test_builds_one_cross_gram_per_batch(self, rng, monkeypatch):
        state, lik, x, y = _fitted_gaussian(rng)
        built = []
        original = dualgp.sequential.cross_gram

        def counting(state, x):
            built.append(len(x))
            return original(state, x)

        monkeypatch.setattr(dualgp.sequential, "cross_gram", counting)
        config = SequentialConfig(num_inducing=6, ngd_steps=5)
        process_batch(state, lik, config, x[3:], y[3:], _memory_of(x[:3], y[:3]))
        assert built == [3, 6]  # the memory for the removal, then batch plus memory


class TestHyperObjective:
    def test_one_point_frozen_value(self):
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8]), noise_variance=1.0))
        lik = Gaussian(1.0)
        x, y = np.array([[0.0]]), np.array([1.0])
        state = ngd_step(make_state(spec, x), lik, x, y, rho=1.0)
        val = hyper_objective(state, lik, x, y, np.empty((0, 1)), np.empty(0), 0, spec.hyper)[0]
        assert val == pytest.approx(ONE_POINT_HYPER_OBJECTIVE, rel=1e-12)

    def test_one_point_equals_bound(self):
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8]), noise_variance=1.0))
        lik = Gaussian(1.0)
        x, y = np.array([[0.0]]), np.array([1.0])
        state = ngd_step(make_state(spec, x), lik, x, y, rho=1.0)
        val = hyper_objective(state, lik, x, y, np.empty((0, 1)), np.empty(0), 0, spec.hyper)[0]
        bound = elbo(state, lik, y, *predict(state, x))
        assert val == pytest.approx(bound, rel=1e-12)

    def test_memory_term_scales_linearly_with_n_old(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        x_mem, y_mem = x[:3], y[:3]
        base = hyper_objective(state, lik, x[3:], y[3:], x_mem, y_mem, 0, state.kernel.hyper)[0]
        one = hyper_objective(state, lik, x[3:], y[3:], x_mem, y_mem, 3, state.kernel.hyper)[0]
        two = hyper_objective(state, lik, x[3:], y[3:], x_mem, y_mem, 6, state.kernel.hyper)[0]
        assert two - one == pytest.approx(one - base, rel=1e-9)

    def test_noise_variance_flows_from_hyper(self, rng):
        """For Gaussian data the hyper argument overrides the likelihood noise."""
        state, lik, x, y = _fitted_gaussian(rng)
        loud = Hyperparams(1.0, np.array([0.8]), noise_variance=5.0)
        quiet = Hyperparams(1.0, np.array([0.8]), noise_variance=0.3)
        assert hyper_objective(
            state, lik, x, y, np.empty((0, 1)), np.empty(0), 0, loud
        )[0] != hyper_objective(state, lik, x, y, np.empty((0, 1)), np.empty(0), 0, quiet)[0]

    def test_missing_hyper_noise_falls_back_to_likelihood(self, rng):
        x = rng.uniform(-2, 2, (6, 1))
        y = np.sin(x[:, 0])
        bare = Hyperparams(1.0, np.array([0.8]))
        state = ngd_step(make_state(KernelSpec("matern52", bare), x), Gaussian(0.3), x, y, 1.0)
        no_mem = (np.empty((0, 1)), np.empty(0), 0)
        fallback = hyper_objective(state, Gaussian(0.3), x, y, *no_mem, bare)[0]
        explicit = Hyperparams(1.0, np.array([0.8]), noise_variance=0.3)
        assert fallback == hyper_objective(state, Gaussian(0.3), x, y, *no_mem, explicit)[0]

    def test_steps_do_not_depend_on_the_units_of_y(self, rng):
        """``y * c`` with variance and noise ``* c**2`` moves the target by a theta-free constant."""
        x = rng.uniform(-2, 2, (30, 2))
        y = np.sin(x[:, 0]) * np.cos(x[:, 1]) + 0.1 * rng.standard_normal(30)
        steps = []
        for c in (1.0, 3.0, 10.0):
            lik = Gaussian(0.3 * c**2)
            spec = KernelSpec("matern52", Hyperparams(c**2, np.array([0.8, 1.1]), noise_variance=0.3 * c**2))
            state = ngd_step(make_state(spec, x[:12]), lik, x, c * y, rho=1.0)
            moved = Hyperparams(1.4 * c**2, np.array([0.6, 1.5]), noise_variance=0.2 * c**2)
            args = (state, lik, x[5:], c * y[5:], x[:5], c * y[:5], 20)
            steps.append(hyper_objective(*args, moved)[0] - hyper_objective(*args, spec.hyper)[0])
        assert steps[1] == pytest.approx(steps[0], rel=1e-9)
        assert steps[2] == pytest.approx(steps[0], rel=1e-9)

    def test_gradient_of_quadratic_is_exact(self):
        h = np.array([[2.0, 0.3], [0.3, 1.0]])
        lin = np.array([0.4, -1.1])

        def objective(t):
            return float(lin @ t - 0.5 * t @ h @ t)

        point = np.array([0.7, -0.2])
        grad = hyper_gradient(objective, point, fd_step=1e-4)
        np.testing.assert_allclose(grad, lin - h @ point, atol=1e-9)


HYPER_CASES = [
    "one_point",
    "zero_b_u",
    "rank_deficient_10_3",
    "rank_deficient_20_5",
    "criterion_10",
    "bernoulli",
    "with_memory",
    "without_memory",
]


class TestHyperObjectiveClosedForm:
    """The bound's closed form, ``elbo`` of the rebuilt state, against the moment form in ``oracles``.

    ``B`` is never inverted on either side, so drawn states need no
    condition filter, rank-deficient and ill-conditioned ``b_u`` included.
    """

    @pytest.mark.parametrize("name", HYPER_CASES)
    def test_matches_reference(self, name, rng):
        case = _hyper_case(name, rng)
        expected = hyper_objective_reference(*case)
        assert hyper_objective(*case)[0] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(1, 8),
        extra=st.integers(0, 8),
        n_mem=st.integers(0, 3),
        bernoulli=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    @example(seed=997308486, m=8, extra=0, n_mem=0, bernoulli=False)  # cond(b_u) 6.4e7
    def test_matches_reference_on_drawn_states(self, seed, m, extra, n_mem, bernoulli):
        rng = np.random.default_rng(seed)
        n = m + extra
        x = rng.uniform(-3, 3, (n, 1))
        z = np.linspace(-3, 3, m)[:, None]
        ls = rng.uniform(0.3, 1.0)
        if bernoulli:
            lik, spec = BernoulliLogit(), KernelSpec("matern52", Hyperparams(1.0, np.array([ls])))
            y = np.where(np.sin(2.0 * x[:, 0]) + 0.3 * rng.standard_normal(n) > 0, 1.0, -1.0)
        else:
            lik, spec = Gaussian(rng.uniform(0.05, 1.0)), _spec(ls=ls)
            y = np.sin(2.0 * x[:, 0])
        state = ngd_step(make_state(spec, z), lik, x, y, rho=rng.uniform(0.3, 1.0))
        hyper = _moved(spec.hyper, scale=rng.uniform(0.75, 1.35))
        case = (state, lik, x, y, x[:n_mem], y[:n_mem], 7, hyper)
        expected = hyper_objective_reference(*case)
        assert hyper_objective(*case)[0] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_one_eigh_and_no_moment_route(self, rng, monkeypatch):
        """One evaluation: no eigh, the factors of K and K + B and nothing else."""
        calls = Counter()

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        originals = {
            "eigh": np.linalg.eigh,
            "stable_cholesky": stable_cholesky,
            "dual_factor": dualgp.dual.dual_factor,
            "recover_moments": dualgp.dual.recover_moments,
        }
        for name, original in originals.items():
            for module in (dualgp.dual, dualgp.sequential):
                monkeypatch.setattr(module, name, counted(name, original), raising=False)
        case = _hyper_case("with_memory", rng)
        calls.clear()
        hyper_objective(*case)
        assert calls["eigh"] == 0
        assert calls["stable_cholesky"] <= 2
        assert calls["dual_factor"] == 0
        assert calls["recover_moments"] == 0

    def test_second_evaluation_on_a_state_runs_no_eigh(self, rng, monkeypatch):
        """``B`` is never decomposed, on the first evaluation or on later ones."""
        calls = _count_eigh(monkeypatch)
        state, lik, x, y, x_mem, y_mem, n_old, hyper = _hyper_case("with_memory", rng)
        first = hyper_objective(state, lik, x, y, x_mem, y_mem, n_old, hyper)[0]
        assert calls == []
        again = hyper_objective(state, lik, x, y, x_mem, y_mem, n_old, _moved(hyper))[0]
        assert calls == []
        assert hyper_objective(state, lik, x, y, x_mem, y_mem, n_old, hyper)[0] == first
        assert again != first


class TestThetaLayout:
    @pytest.mark.parametrize("lengthscales", [[0.7], [0.7, 1.9, 0.4]], ids=["shared", "per_dim"])
    @pytest.mark.parametrize("constant", [0.0, 0.4])
    @pytest.mark.parametrize("lik", [Gaussian(0.25), BernoulliLogit()], ids=["gaussian", "bernoulli"])
    def test_positional_layout_round_trips(self, lengthscales, constant, lik):
        """variance, lengthscales, constant if positive, noise if Gaussian; all in log."""
        hyper = Hyperparams(1.3, np.array(lengthscales), constant_variance=constant, noise_variance=0.8)
        gaussian = isinstance(lik, Gaussian)
        expected = [1.3, *lengthscales] + [constant] * (constant > 0) + [0.25] * gaussian
        log_theta = _log_theta(hyper, lik)
        assert np.array_equal(log_theta, np.log(expected))

        back = _hyper_at(log_theta, hyper, lik)
        theta = np.exp(log_theta)
        n_ls = len(lengthscales)
        assert back.variance == theta[0]
        assert np.array_equal(back.lengthscales, theta[1 : 1 + n_ls])
        assert back.constant_variance == (theta[1 + n_ls] if constant > 0 else 0.0)
        assert back.noise_variance == (theta[-1] if gaussian else 0.8)
        back_lik = Gaussian(back.noise_variance) if gaussian else lik
        assert np.array_equal(_log_theta(back, back_lik), np.log(theta))


class TestOptimizeHypers:
    def test_gaussian_noise_is_read_from_the_likelihood(self, rng):
        """An unset kernel noise ascends the likelihood's; kernel and likelihood agree after."""
        state, lik, x, y = _fitted_gaussian(rng, noise=0.5)
        config = SequentialConfig(num_inducing=6, hyper_steps=5, hyper_lr=0.05)
        bare = make_state(_spec(noise=None), state.z, state.alpha_u, state.b_u)
        new_state, new_lik, trace, _ = optimize_hypers(bare, lik, config, x, y, empty_memory(1), 0, predict(bare, x))
        _, same_lik, same_trace, _ = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, predict(state, x))
        assert new_lik.noise_variance != 0.5
        assert new_state.kernel.hyper.noise_variance == new_lik.noise_variance
        assert trace == same_trace
        assert same_lik.noise_variance == new_lik.noise_variance

    @given(
        seed=st.integers(0, 2**31 - 1),
        bernoulli=st.booleans(),
        n_mem=st.sampled_from([0, 4]),
        ard=st.booleans(),
        constant=st.sampled_from([0.0, 0.3]),
        kernel_noise=st.booleans(),
        hyper_steps=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_start_value_is_the_rebuilt_objective_at_the_input_theta(
        self, seed, bernoulli, n_mem, ard, constant, kernel_noise, hyper_steps
    ):
        """The trace starts at ``hyper_objective`` of the input state at its own theta, bit for bit.

        The state comes from NGD over the batch then the memory and the
        marginals from that data's cross-Gram, as in :func:`step`.
        """
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, (12 + n_mem, 2))
        signal = np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])
        if bernoulli:
            lik, y = BernoulliLogit(), np.where(signal + 0.3 * rng.standard_normal(len(x)) > 0, 1.0, -1.0)
        else:
            lik, y = Gaussian(rng.uniform(0.05, 0.5)), signal + 0.1 * rng.standard_normal(len(x))
        noise = (0.7 if bernoulli else lik.noise_variance) if kernel_noise else None
        lengthscales = rng.uniform(0.5, 1.5, 2 if ard else 1)
        spec = KernelSpec("matern52", Hyperparams(1.3, lengthscales, constant_variance=constant, noise_variance=noise))
        state = ngd_step(make_state(spec, x[:6]), lik, x, y, rho=rng.uniform(0.3, 1.0))
        marginals = cross_gram(state, x).marginals(state)
        x_batch, y_batch, memory = x[:12], y[:12], _memory_of(x[12:], y[12:])
        config = SequentialConfig(num_inducing=6, hyper_steps=hyper_steps, hyper_lr=0.05)
        expected = hyper_objective(state, lik, x_batch, y_batch, memory.inputs, memory.labels, 9, state.kernel.hyper)[0]
        trace = optimize_hypers(state, lik, config, x_batch, y_batch, memory, 9, marginals)[2]
        assert len(trace) == hyper_steps + 1
        assert trace[0] == expected

    def test_bernoulli_theta_has_no_noise_and_kernel_noise_passes_through(self, rng, monkeypatch):
        x = rng.uniform(-2, 2, (10, 1))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        lik = BernoulliLogit()
        state, _, _ = iterate_ngd(make_state(_spec(noise=0.7), x), lik, x, y, rho=0.7, tol=1e-10)
        evals = []
        original = dualgp.sequential.hyper_objective

        def counted(*args):
            evals.append(args[-1])
            return original(*args)

        monkeypatch.setattr(dualgp.sequential, "hyper_objective", counted)
        config = SequentialConfig(num_inducing=10, hyper_steps=3, hyper_lr=0.05)
        new_state, _, _, _ = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, predict(state, x))
        # two components (variance, lengthscale): 3 * (2 * 2 + 1) evaluations
        assert len(evals) == 15
        assert all(h.noise_variance == 0.7 for h in evals)
        assert new_state.kernel.hyper.noise_variance == 0.7

    def test_trace_never_drops_beyond_guard(self, rng):
        x = np.sort(rng.uniform(-3, 3, 30))[:, None]
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(30)
        spec = _spec(ls=2.0, noise=0.5)
        lik = Gaussian(0.5)
        state = ngd_step(make_state(spec, x[::3]), lik, x, y, rho=1.0)
        config = SequentialConfig(num_inducing=10, hyper_steps=10, hyper_lr=0.05)
        _, _, trace, _ = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, predict(state, x))
        diffs = np.diff(np.asarray(trace))
        assert diffs.min() > -1e-6

    def test_improves_misspecified_start(self, rng):
        x = np.sort(rng.uniform(-3, 3, 30))[:, None]
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(30)
        spec = _spec(ls=2.0, noise=0.5)
        lik = Gaussian(0.5)
        state = ngd_step(make_state(spec, x[::3]), lik, x, y, rho=1.0)
        config = SequentialConfig(num_inducing=10, hyper_steps=15, hyper_lr=0.08)
        new_state, new_lik, trace, _ = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, predict(state, x))
        assert trace[-1] > trace[0]
        assert new_state.kernel.hyper.lengthscales[0] != 2.0
        assert new_lik.noise_variance != 0.5

    def test_one_eigh_per_call(self, rng, monkeypatch):
        """Five Adam steps over three parameters evaluate 35 times and decompose nothing."""
        state, lik, x, y = _fitted_gaussian(rng)
        calls = _count_eigh(monkeypatch)
        config = SequentialConfig(num_inducing=6, hyper_steps=5, hyper_lr=0.05)
        _, _, trace, _ = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, predict(state, x))
        assert len(trace) == 6
        assert calls == []

    def test_ascent_does_not_depend_on_the_units_of_y(self, rng):
        """Lengthscales agree, and variance and noise scale by ``c**2``, for ``y * c``."""
        x = np.sort(rng.uniform(-3, 3, 30))[:, None]
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(30)
        config = SequentialConfig(num_inducing=10, hyper_steps=10, hyper_lr=0.05)
        fitted = []
        for c in (1.0, 10.0):
            lik = Gaussian(0.5 * c**2)
            spec = KernelSpec("matern52", Hyperparams(c**2, np.array([2.0]), noise_variance=0.5 * c**2))
            state = ngd_step(make_state(spec, x[::3]), lik, x, c * y, rho=1.0)
            memory = _memory_of(x[:8], c * y[:8])
            marginals = predict(state, np.vstack([x[8:], x[:8]]))
            new_state, new_lik, _, _ = optimize_hypers(state, lik, config, x[8:], c * y[8:], memory, 20, marginals)
            fitted.append((new_state.kernel.hyper, new_lik.noise_variance))
        (one, noise_one), (ten, noise_ten) = fitted
        assert one.lengthscales[0] != 2.0
        np.testing.assert_allclose(ten.lengthscales, one.lengthscales, rtol=1e-7)
        assert ten.variance == pytest.approx(100.0 * one.variance, rel=1e-7)
        assert noise_ten == pytest.approx(100.0 * noise_one, rel=1e-7)

    def test_returns_the_marginals_of_the_state_it_returns(self, rng):
        """An accepted ascent's marginals are its state's over the batch then the memory, bit for bit."""
        state, lik, x, y = _fitted_gaussian(rng)
        x_fit = np.vstack([x[3:], x[:3]])
        config = SequentialConfig(num_inducing=6, hyper_steps=3, hyper_lr=0.05)
        new_state, _, _, (mean, var) = optimize_hypers(
            state, lik, config, x[3:], y[3:], _memory_of(x[:3], y[:3]), 3, predict(state, x_fit)
        )
        assert new_state.kernel.hyper.variance != state.kernel.hyper.variance
        fresh_mean, fresh_var = cross_gram(new_state, x_fit).marginals(new_state)
        assert np.array_equal(mean, fresh_mean) and np.array_equal(var, fresh_var)

    def test_dual_parameters_frozen_through_ascent(self, rng):
        state, lik, x, y = _fitted_gaussian(rng)
        config = SequentialConfig(num_inducing=6, hyper_steps=5, hyper_lr=0.05)
        new_state, _, _, _ = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, predict(state, x))
        np.testing.assert_array_equal(new_state.alpha_u, state.alpha_u)
        np.testing.assert_array_equal(new_state.b_u, state.b_u)

    def test_unfactorable_candidate_is_a_rejected_step(self, monkeypatch):
        """A candidate whose factorization fails is a rejected step, and the run goes on.

        Every other candidate's ``K_zz`` fails to factor.  A candidate moves
        ``log theta`` by about the learning rate in each entry; a gradient's
        evaluation moves at most one entry, by ``FD_STEP``.
        """
        failed, candidates, failing, traces = [], [], [], []
        objective, factorize, ascent = hyper_objective, dualgp.dual.stable_cholesky, optimize_hypers

        def failing_factorization(matrix):
            if failing:
                raise FactorizationFailed("an unfactorable candidate")
            return factorize(matrix)

        def recording(state, lik, *args):
            hyper, held = args[-1], state.kernel.hyper
            moved = np.log([hyper.variance, *hyper.lengthscales, hyper.noise_variance])
            moved -= np.log([held.variance, *held.lengthscales, lik.noise_variance])
            if np.max(np.abs(moved)) > 2.0 * dualgp.sequential.FD_STEP:
                candidates.append(hyper)
                if len(candidates) % 2:  # the first, third, ... candidate
                    failing.append(hyper)
            try:
                return objective(state, lik, *args)
            except FactorizationFailed:
                failed.append(hyper)
                raise
            finally:
                failing.clear()

        def tracing(*args):
            result = ascent(*args)
            traces.append(result[2])
            return result

        monkeypatch.setattr(dualgp.dual, "stable_cholesky", failing_factorization)
        monkeypatch.setattr(dualgp.sequential, "hyper_objective", recording)
        monkeypatch.setattr(dualgp.sequential, "optimize_hypers", tracing)
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, 120)
        y = np.sin(25.0 * x) + 0.05 * rng.standard_normal(120)
        kernel = KernelSpec("matern52", Hyperparams(1.0, np.array([3.0])))
        config = SequentialConfig(num_inducing=20, memory_capacity=20, hyper_steps=5, hyper_lr=0.05)
        result = run_stream(make_stream(x, y, 4), kernel, Gaussian(0.1), config)
        steps = [later != earlier for trace in traces for earlier, later in zip(trace, trace[1:])]
        assert failed and len(failed) == (len(candidates) + 1) // 2
        assert steps.count(False) >= len(failed) and any(steps)
        theta = result.records[-1]["theta"]
        assert np.isfinite([theta["variance"], *theta["lengthscales"], theta["noise_variance"]]).all()

    def test_no_accepted_step_returns_the_inputs(self):
        """Every step of ``hyper_lr = 50`` is rejected, and theta keeps its bits."""
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(-3, 3, 30))[:, None]
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(30)
        lik = Gaussian(0.1)
        state = ngd_step(make_state(_spec(ls=1.0, noise=0.1), x[::3]), lik, x, y, rho=1.0)
        config = SequentialConfig(num_inducing=10, hyper_steps=5, hyper_lr=50)
        marginals = predict(state, x)
        new_state, new_lik, trace, kept = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, marginals)
        assert trace == [trace[0]] * 6
        assert new_state is state and new_lik is lik and kept is marginals
        assert new_lik.noise_variance == 0.1

    def test_bernoulli_keeps_likelihood_object(self, rng):
        x = rng.uniform(-2, 2, (10, 1))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        lik = BernoulliLogit()
        state, _, _ = iterate_ngd(make_state(_spec(), x), lik, x, y, rho=0.7, tol=1e-10)
        config = SequentialConfig(num_inducing=10, hyper_steps=3, hyper_lr=0.05)
        _, new_lik, trace, _ = optimize_hypers(state, lik, config, x, y, empty_memory(1), 0, predict(state, x))
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

    @pytest.mark.parametrize("labels", [29, 31])
    def test_batch_of_unequal_lengths_is_named(self, rng, labels):
        batches = self._batches(rng)
        xs, ys = batches[2]
        batches[2] = (xs, np.resize(ys, labels))
        config = SequentialConfig(num_inducing=10, memory_capacity=5)
        with pytest.raises(ValueError, match=f"batch 2 has 30 inputs but {labels} labels"):
            run_stream(batches, _spec(), Gaussian(0.3), config)

    @pytest.mark.parametrize(
        "where, bad, hyper_steps",
        [("label", np.nan, 0), ("label", np.nan, 2), ("input", np.inf, 0)],
        ids=["nan_label", "nan_label_hyper", "inf_input"],
    )
    def test_non_finite_batch_is_named(self, rng, where, bad, hyper_steps):
        batches = self._batches(rng)
        xs, ys = (a.copy() for a in batches[1])
        (ys if where == "label" else xs[:, 0])[4] = bad
        batches[1] = (xs, ys)
        config = SequentialConfig(num_inducing=10, memory_capacity=5, hyper_steps=hyper_steps)
        with pytest.raises(ValueError, match="batch 1 has a non-finite input or label"):
            run_stream(batches, _spec(), Gaussian(0.3), config)

    def test_empty_first_batch_is_named(self, rng):
        batches = [(np.empty((0, 1)), np.empty(0)), *self._batches(rng)]
        config = SequentialConfig(num_inducing=10, memory_capacity=5)
        with pytest.raises(ValueError, match="batch 0 is empty"):
            run_stream(batches, _spec(), Gaussian(0.3), config)

    def test_empty_later_batch_runs(self, rng):
        batches = self._batches(rng)
        batches.insert(2, (np.empty((0, 1)), np.empty(0)))
        config = SequentialConfig(num_inducing=10, memory_capacity=5)
        result = run_stream(batches, _spec(), Gaussian(0.3), config)
        assert [r["n_seen"] for r in result.records] == [30, 60, 60, 90, 120]
        assert np.isfinite(result.state.alpha_u).all()

    def test_batch_of_another_dimension_is_named(self, rng):
        batches = self._batches(rng)
        xs, ys = batches[2]
        batches[2] = (np.column_stack([xs, xs]), ys)
        config = SequentialConfig(num_inducing=10, memory_capacity=5)
        with pytest.raises(ValueError, match="batch 2 has 2 input dimensions but the first batch has 1"):
            run_stream(batches, _spec(), Gaussian(0.3), config)

    @pytest.mark.parametrize("bad_batch", [0, 1])
    def test_bad_bernoulli_label_is_named(self, rng, bad_batch):
        x = rng.uniform(-2, 2, (40, 1))
        y = np.where(x[:, 0] > 0, 1.0, 0.0)
        batches = [(x[:20], y[:20].copy()), (x[20:], y[20:].copy())]
        batches[bad_batch][1][3] = 2.0
        message = f"batch {bad_batch}: Bernoulli labels must lie in {{0, 1}} or {{-1, +1}}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_stream(batches, _spec(), BernoulliLogit(), SequentialConfig(num_inducing=8))

    def test_inducing_budget_respected(self, rng):
        batches = self._batches(rng)
        config = SequentialConfig(num_inducing=8)
        result = run_stream(batches, _spec(), Gaussian(0.3), config)
        assert result.state.num_inducing <= 8


def _regression_sample(rng, n):
    """A smooth 4-d target on [-2, 2]^4 plus N(0, 0.5^2) noise."""
    x = rng.uniform(-2.0, 2.0, (n, 4))
    f = np.sin(1.2 * x[:, 0]) + 0.5 * np.cos(x[:, 1]) * x[:, 2] + 0.3 * x[:, 3]
    return x, f + 0.5 * rng.standard_normal(n)


class TestMemoryEffect:
    """Replaying the memory keeps what earlier batches taught, over passes of a sorted stream."""

    M = 20

    def _last_pass_nlpd(self, seed, memory_capacity):
        """Held-out nlpd after 3 passes of 8 sorted batches of 20, each pass a fresh sample."""
        batches = []
        for p in range(3):
            x, y = _regression_sample(np.random.default_rng([seed, p]), 8 * 20)
            batches += make_stream(x, y, 8, order="sorted")
        x_test, y_test = _regression_sample(np.random.default_rng([seed, 10**6]), 2000)
        spec = KernelSpec("matern52", Hyperparams(1.0, np.ones(4), noise_variance=0.2))
        config = SequentialConfig(self.M, ngd_rho=0.8, ngd_steps=2, memory_capacity=memory_capacity, hyper_steps=5)
        stream = run_stream(batches, spec, Gaussian(0.2), config, seed=seed)
        return evaluate_state(stream.state, stream.lik, x_test, y_test)["nlpd"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_memory_lowers_the_held_out_nlpd(self, seed):
        """Measured on seeds 1-20 (numpy 2.4, OpenBLAS, one thread): with a memory of M
        the nlpd read 0.884-1.012, with none 1.026-1.095, and the gap 0.066-0.173
        (0.066 on seed 3), the memory ahead on all 20."""
        with_memory, without = self._last_pass_nlpd(seed, self.M), self._last_pass_nlpd(seed, 0)
        assert without - with_memory > 0.05

    @staticmethod
    def _last_kernel_variance(seed, memory_capacity):
        """The kernel variance after 4 passes of 8 sorted banana batches of 30, M = 30, 3 hyper steps a batch."""
        batches = []
        for p in range(4):
            batches += make_stream(*banana(8 * 30, seed=[seed, p]), 8, order="sorted")
        spec = KernelSpec("matern52", Hyperparams(1.0, np.ones(2)))
        config = SequentialConfig(30, ngd_rho=0.8, ngd_steps=2, memory_capacity=memory_capacity, hyper_steps=3)
        return run_stream(batches, spec, BernoulliLogit(), config, seed=seed).state.kernel.hyper.variance

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_memory_holds_back_the_bernoulli_variance_drift(self, seed):
        """Measured on seeds 1-20 (numpy 2.4, OpenBLAS, one thread): with a memory of 30
        the variance read 2.13-2.48, with none 2.610-2.611 (e^0.96: each of the 96 hyper
        steps raised it by Adam's first step, hyper_lr 0.01), and the ratio of control to
        memory 1.054-1.225 (1.054 on seed 10), the memory lower on all 20."""
        with_memory, without = self._last_kernel_variance(seed, 30), self._last_kernel_variance(seed, 0)
        assert without / with_memory > 1.03


class TestBlockCounts:
    """The kernel blocks a batch and a hyperparameter evaluation build, counted."""

    def test_step_builds_each_block_once(self, monkeypatch):
        """Refresh, removal and NGD; the final state's marginals read NGD's block.

        With no hyperparameter step the final state keeps NGD's ``K_zz``
        factor, so its marginals need no block of their own.  The fit set of
        800 rows is more than one 655-row ``predict`` block at M = 50, so
        ``predict`` would build two Gram blocks for it.
        """
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, (800, 2))
        y = np.where(np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1]) > 0, 1.0, -1.0)
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.7])))
        config = SequentialConfig(num_inducing=50, memory_capacity=400)
        stream = run_stream([(x[:400], y[:400])], spec, BernoulliLogit(), config)
        assert len(stream.memory) == 400
        grams = _count_calls(monkeypatch, dualgp.kernels, "gram")
        predicts = _count_calls(monkeypatch, dualgp.dual, "predict")
        step(stream, x[400:], y[400:])
        assert (len(grams), len(predicts)) == (5, 0)

    @pytest.mark.parametrize("hyper_steps", [0, 3])
    def test_no_fit_set_block_outside_ngd_and_hyper_objective(self, monkeypatch, hyper_steps):
        """NGD builds one fit-set block and each hyperparameter evaluation one more.

        The final marginals read NGD's block, or the last accepted
        evaluation's, which was built with the ``K_zz`` factor the batch ends
        with; nothing builds a block over the fit set after the ascent.
        """
        rng = np.random.default_rng(7)
        x = rng.uniform(-3, 3, (60, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(60)
        config = SequentialConfig(num_inducing=10, memory_capacity=10, hyper_steps=hyper_steps, hyper_lr=0.05)
        stream = run_stream([(x[:30], y[:30])], _spec(noise=None), Gaussian(0.1), config)
        built = []
        original = dualgp.dual.cross_gram

        def building(state, x):
            built.append((state.kzz, len(x)))
            return original(state, x)

        for module in (dualgp.dual, dualgp.sequential):
            monkeypatch.setattr(module, "cross_gram", building)
        evals = _count_calls(monkeypatch, dualgp.sequential, "hyper_objective")
        out = step(stream, x[30:], y[30:])
        fit_blocks = [kzz for kzz, rows in built if rows == 40]
        assert len(evals) == hyper_steps * (2 * 3 + 1)
        assert len(fit_blocks) == 1 + len(evals)
        assert [kzz is out.state.kzz for kzz in fit_blocks].count(True) == 1
        # NGD's block is the first over the fit set; accepted hyper steps leave its K_zz behind
        assert (fit_blocks[0] is out.state.kzz) == (hyper_steps == 0)

    def test_accepted_hyper_steps_factor_no_state_twice(self, monkeypatch):
        """``make_state`` runs for the refresh and for each hyperparameter evaluation, and no more.

        The last accepted candidate's state, as its evaluation built it, ends
        the batch; the ascent does not rebuild it at the accepted theta.
        """
        rng = np.random.default_rng(7)
        x = rng.uniform(-3, 3, (60, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(60)
        config = SequentialConfig(num_inducing=10, memory_capacity=10, hyper_steps=3, hyper_lr=0.05)
        stream = run_stream([(x[:30], y[:30])], _spec(noise=None), Gaussian(0.1), config)
        states = _count_calls(monkeypatch, dualgp.dual, "make_state")
        evals = _count_calls(monkeypatch, dualgp.sequential, "hyper_objective")
        out = step(stream, x[30:], y[30:])
        assert out.records[-1]["theta"] != stream.records[-1]["theta"]
        assert len(evals) == 3 * (2 * 3 + 1)
        assert len(states) == 1 + len(evals)

    def test_process_batch_returns_no_block(self, monkeypatch):
        """Removal's block and NGD's are both freed by the time ``process_batch`` returns."""
        rng = np.random.default_rng(7)
        x = rng.uniform(-3, 3, (60, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(60)
        config = SequentialConfig(num_inducing=10, memory_capacity=10)
        stream = run_stream([(x[:30], y[:30])], _spec(noise=None), Gaussian(0.1), config)
        assert len(stream.memory) == 10
        blocks = []
        original = dualgp.sequential.cross_gram

        def spying(state, x):
            block = original(state, x)
            blocks.append(weakref.ref(block))
            return block

        monkeypatch.setattr(dualgp.sequential, "cross_gram", spying)
        out = process_batch(stream.state, stream.lik, config, x[30:], y[30:], stream.memory)
        assert len(blocks) == 2 and len(out) == 3
        assert [block() is None for block in blocks] == [True, True]

    def test_hyper_objective_builds_one_cross_gram(self, monkeypatch):
        """``K_zz`` of the rebuilt state and one block over the batch and the memory."""
        case = _hyper_case("with_memory", np.random.default_rng(6))
        assert len(case[4]) > 0
        grams = _count_calls(monkeypatch, dualgp.kernels, "gram")
        hyper_objective(*case)
        assert len(grams) == 2


class TestWorkingSet:
    """What a Bernoulli stream holds live, at M = 200 with batches and memory of 200.

    Peaks are traced bytes above the start of the call, in M x M arrays of
    float64, measured on CPython 3.11.  The run's peak is at the first NGD
    step's marginals and site precision: the input state, the adjusted
    prior's precision and the two M x (batch + memory) arrays of the
    cross-Gram and of its scaled copy or half-solve.  Each stage is called
    the way ``step`` calls it, with the state it replaces handed over.
    A state kept bound while its successor is built adds its own M x M
    arrays on top.
    """

    M = 200

    @pytest.fixture
    def stream(self):
        """``(spec, config, batches)``, traced from here on."""
        m = self.M
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, (4 * m, 2))
        f = np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])
        y = np.where(f + 0.3 * rng.standard_normal(4 * m) > 0, 1.0, -1.0)
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.7])))
        config = SequentialConfig(num_inducing=m, memory_capacity=m)
        batches = make_stream(x, y, 4)
        run_stream(batches[:1], spec, BernoulliLogit(), config)
        tracemalloc.start()
        try:
            yield spec, config, batches
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def third_batch(self, stream):
        """``([state], memory, config, (x, y))`` entering the third batch, built traced."""
        spec, config, batches = stream
        result = run_stream(batches[:2], spec, BernoulliLogit(), config)
        return [result.state], result.memory, config, batches[2]

    def _peak(self, call):
        """The traced peak of ``call()`` above its start, in M x M arrays."""
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / (self.M * self.M * 8)

    def test_run_stream_peak(self, stream):
        """12.92 M^2 with states kept bound, 9.14 handed over."""
        spec, config, batches = stream
        peak = self._peak(lambda: run_stream(batches, spec, BernoulliLogit(), config))
        assert peak <= 10.5

    def test_step_peak(self, stream):
        """9.1 M^2 with the caller keeping the stream, 5.08 handed over."""
        spec, config, batches = stream
        held = [run_stream(batches[:2], spec, BernoulliLogit(), config)]
        x, y = batches[2]
        peak = self._peak(lambda: step(held.pop(), x, y))
        assert peak <= 6.0

    def test_refresh_peak(self, third_batch):
        """5.80 M^2 with the old state bound through ``make_state``, 4.08 without."""
        held, _, config, (x, _) = third_batch
        peak = self._peak(lambda: refresh_representation(held.pop(), x, config.num_inducing))
        assert peak <= 5.0

    def test_remove_memory_peak(self, third_batch):
        """5.78 M^2 with the memory cross-Gram under the ``eigh``, 4.78 without,
        4.03 with the eigenpairs also dropped before the factorization."""
        held, memory, config, (x, _) = third_batch
        state = refresh_representation(held.pop(), x, config.num_inducing)
        peak = self._peak(lambda: remove_memory(state, BernoulliLogit(), memory))
        assert peak <= 4.5

    def test_process_batch_peak(self, third_batch):
        """6.84 M^2 with each step's input bound, 5.08 handed over."""
        held, memory, config, (x, y) = third_batch
        held.append(refresh_representation(held.pop(), x, config.num_inducing))
        peak = self._peak(lambda: process_batch(held.pop(), BernoulliLogit(), config, x, y, memory))
        assert peak <= 6.0

    def test_gaussian_step_with_accepted_hyper_steps_peak(self):
        """10.09 M^2 with the accepted theta's state and fit-set block rebuilt after
        the ascent, 9.13 with the last accepted evaluation's kept, 8.13 with the
        adjusted prior no longer holding the pre-ascent K_zz.

        A Gaussian stream on the same inputs with two hyperparameter steps per
        batch, traced through its third batch, whose steps move theta.
        """
        m = self.M
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, (4 * m, 2))
        y = np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1]) + 0.1 * rng.standard_normal(4 * m)
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.7])))
        config = SequentialConfig(num_inducing=m, memory_capacity=m, hyper_steps=2, hyper_lr=0.05)
        batches = make_stream(x, y, 4)
        run_stream(batches[:1], spec, Gaussian(0.1), config)
        tracemalloc.start()
        try:
            held = [run_stream(batches[:2], spec, Gaussian(0.1), config)]
            theta, (x, y), out = held[0].records[-1]["theta"], batches[2], []
            peak = self._peak(lambda: out.append(step(held.pop(), x, y)))
        finally:
            tracemalloc.stop()
        assert out[0].records[-1]["theta"] != theta
        assert peak <= 8.6


def _state_arrays(state):
    """Every array and number a state holds, by name."""
    out = {name: getattr(state, name) for name in ("z", "alpha_u", "b_u", "keff", "kinv_alpha")}
    for name in ("kzz", "kq"):
        factor = getattr(state, name)
        out.update({f"{name}.inv": factor.inv, f"{name}.logdet": factor.logdet, f"{name}.jitter": factor.jitter_used})
    hyper = state.kernel.hyper
    out["theta"] = np.array([hyper.variance, *hyper.lengthscales, hyper.constant_variance])
    return out


def _assert_same_arrays(got, expected):
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        assert np.array_equal(got[name], value), name


@st.composite
def _small_streams(draw):
    """Short 2-d streams of either likelihood, memory on or off, hyper steps on or off."""
    bernoulli = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(8, 30))
    x = rng.uniform(-2, 2, (n, 2))
    f = np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])
    y = np.where(f + 0.3 * rng.standard_normal(n) > 0, 1.0, -1.0) if bernoulli else f + 0.1 * rng.standard_normal(n)
    config = SequentialConfig(
        num_inducing=draw(st.integers(2, 8)),
        ngd_steps=draw(st.integers(1, 3)),
        memory_capacity=draw(st.sampled_from([0, 5])),
        hyper_steps=draw(st.sampled_from([0, 2])),
        hyper_lr=0.05,
    )
    spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.7, 0.9])))
    lik = BernoulliLogit() if bernoulli else Gaussian(0.1)
    return make_stream(x, y, draw(st.integers(2, 4)), order="sorted"), spec, lik, config


class TestHandOver:
    """Handing a state to the stage that replaces it changes lifetimes only."""

    @given(stream=_small_streams())
    @settings(max_examples=40, deadline=None)
    def test_run_stream_equals_a_loop_that_keeps_every_state(self, stream):
        batches, spec, lik, config = stream

        def evaluate(state, lik):
            return {"mean": tuple(predict(state, batches[0][0])[0])}

        try:
            result = run_stream(batches, spec, lik, config, seed=3, evaluate=evaluate)
        except FactorizationFailed:
            with pytest.raises(FactorizationFailed):
                run_stream_keeping_states(batches, spec, lik, config, seed=3, evaluate=evaluate)
            return
        kept, states = run_stream_keeping_states(batches, spec, lik, config, seed=3, evaluate=evaluate)
        assert len(states) == len(batches) * (1 + config.ngd_steps + (config.hyper_steps > 0))
        for record, expected in zip(result.records, kept.records, strict=True):
            record.pop("wall_ms"), expected.pop("wall_ms")
            assert record == expected
        _assert_same_arrays(_state_arrays(result.state), _state_arrays(kept.state))
        assert type(result.lik) is type(kept.lik) and vars(result.lik) == vars(kept.lik)
        for name in ("inputs", "labels", "scores"):
            assert np.array_equal(getattr(result.memory, name), getattr(kept.memory, name))

    @pytest.mark.parametrize("bernoulli", [False, True], ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("stage", ["ngd_step", "process_batch", "project_duals", "remove_memory"])
    def test_stages_leave_their_input_state_unchanged(self, rng, stage, bernoulli):
        x = rng.uniform(-2, 2, (24, 2))
        f = np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])
        y = np.where(f > 0, 1.0, -1.0) if bernoulli else f
        lik = BernoulliLogit() if bernoulli else Gaussian(0.1)
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.7, 0.9])))
        config = SequentialConfig(num_inducing=8, memory_capacity=6)
        batches = make_stream(x, y, 3, order="sorted")
        result = run_stream(batches[:2], spec, lik, config)
        state, memory = result.state, result.memory
        x_b, y_b = batches[2]
        before = {name: np.copy(value) for name, value in _state_arrays(state).items()}
        prior = remove_memory(state, lik, memory)
        x_fit, y_fit = np.vstack([x_b, memory.inputs]), np.concatenate([y_b, memory.labels])
        calls = {
            "ngd_step": lambda: ngd_step(state, lik, x_fit, y_fit, 0.6, prior.alpha, prior.b),
            "process_batch": lambda: process_batch(state, lik, config, x_b, y_b, memory),
            "project_duals": lambda: project_duals(state, x_b[:5]),
            "remove_memory": lambda: remove_memory(state, lik, memory),
        }
        calls[stage]()
        _assert_same_arrays(_state_arrays(state), before)


def _symmetric_precisions(batches, spec, lik, config):
    """Step through ``batches``, asserting that every state's ``b_u`` and every
    adjusted prior's ``b`` equal their transposes exactly; returns the priors."""
    priors = []

    def spy(*args):
        priors.append(remove_memory(*args))
        assert np.array_equal(priors[-1].b, priors[-1].b.T)
        return priors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dualgp.sequential, "remove_memory", spy)
        stream = Stream.start(spec, lik, config, batches[0][0].shape[1])
        for x, y in batches:
            try:
                stream = step(stream, x, y)
            except FactorizationFailed:
                break
            assert np.array_equal(stream.state.b_u, stream.state.b_u.T)
    return priors


class TestSymmetricPrecisions:
    """Every dual precision is a sum of exactly symmetric terms, so none is repaired."""

    @given(stream=_small_streams())
    @settings(max_examples=40, deadline=None)
    def test_every_state_and_prior_of_a_stream(self, stream):
        _symmetric_precisions(*stream)

    def test_a_prior_whose_removal_clips(self):
        """The PSD repair of an indefinite subtraction is symmetric too."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, (60, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.2 * rng.standard_normal(60)
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.5]), noise_variance=0.1))
        config = SequentialConfig(num_inducing=10, memory_capacity=10)
        priors = _symmetric_precisions(make_stream(x, y, 5, order="sorted"), spec, Gaussian(0.1), config)
        assert sum(prior.clip_magnitude > 0.0 for prior in priors) >= 2


class TestStep:
    """A stream is a value, and ``run_stream`` is a fold of ``step``."""

    @given(stream=_small_streams())
    @settings(max_examples=40, deadline=None)
    def test_stepping_from_outside_equals_run_stream(self, stream):
        batches, spec, lik, config = stream

        def stepped():
            out = Stream.start(spec, lik, config, batches[0][0].shape[1], seed=3)
            for x, y in batches:
                out = step(out, x, y)
            return out

        try:
            result = run_stream(batches, spec, lik, config, seed=3)
        except FactorizationFailed:
            with pytest.raises(FactorizationFailed):
                stepped()
            return
        out = stepped()
        for record, expected in zip(out.records, result.records, strict=True):
            record.pop("wall_ms"), expected.pop("wall_ms")
            assert record == expected
        _assert_same_arrays(_state_arrays(out.state), _state_arrays(result.state))
        assert type(out.lik) is type(result.lik) and vars(out.lik) == vars(result.lik)
        for name in ("inputs", "labels", "scores"):
            assert np.array_equal(getattr(out.memory, name), getattr(result.memory, name))
        assert (out.n_old, out.clip_count, out.clip_max) == (result.n_old, result.clip_count, result.clip_max)

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.linspace(-1, 1, 6)[:, None], np.ones((6, 1))),
            (np.linspace(-1, 1, 6)[:, None, None], np.ones(6)),
            (np.linspace(-1, 1, 6)[:, None], np.float64(1.0)),
            (np.float64(0.5), np.ones(1)),
        ],
        ids=["column_labels", "3d_inputs", "scalar_label", "scalar_input"],
    )
    @pytest.mark.parametrize("via", ["step", "run_stream_first", "run_stream_later"])
    def test_mis_shaped_batch_is_named(self, x, y, via):
        """Inputs must be ``(n, d)`` or ``(n,)`` and labels ``(n,)``, in ``step`` and before ``Stream.start``."""
        config = SequentialConfig(num_inducing=5)
        good = (np.linspace(-1, 1, 6)[:, None], np.zeros(6))
        index = 1 if via == "run_stream_later" else 0
        message = f"batch {index} has inputs of shape {np.shape(x)} and labels of shape {np.shape(y)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            if via == "step":
                step(Stream.start(_spec(), Gaussian(0.3), config, 1), x, y)
            else:
                run_stream([good, (x, y)] if index else [(x, y)], _spec(), Gaussian(0.3), config)

    @staticmethod
    def _label_batches(rng):
        """Two 20-point batches of one-dimensional inputs with {0, 1} labels."""
        x = rng.uniform(-2, 2, (40, 1))
        y = np.where(x[:, 0] > 0, 1.0, 0.0)
        return [(x[:20], y[:20]), (x[20:], y[20:])]

    @pytest.mark.parametrize("via", ["step", "run_stream"])
    def test_a_batch_that_mixes_label_conventions_is_named(self, rng, via):
        """{-1, 0, 1} is three classes, not two: it used to run with 0 read as -1."""
        (x, y), later = self._label_batches(rng)
        y = y.copy()
        y[:3] = -1.0
        config = SequentialConfig(num_inducing=8)
        with pytest.raises(ValueError, match=re.escape("batch 0: Bernoulli labels mix 0 and -1")):
            if via == "step":
                step(Stream.start(_spec(), BernoulliLogit(), config, 1), x, y)
            else:
                run_stream([(x, y), later], _spec(), BernoulliLogit(), config)

    def test_a_convention_switch_against_the_memory_is_named(self, rng):
        """A {-1, +1} batch after a {0, 1} one is refused while the memory holds 0 labels, and
        without memory the switched stream is the {-1, +1} stream, bit for bit."""
        batches = self._label_batches(rng)
        switched = [batches[0], (batches[1][0], 2.0 * batches[1][1] - 1.0)]
        with pytest.raises(ValueError, match=re.escape("batch 1: Bernoulli labels mix 0 and -1")):
            run_stream(switched, _spec(), BernoulliLogit(), SequentialConfig(num_inducing=8, memory_capacity=50))
        signed = [(x, 2.0 * y - 1.0) for x, y in batches]
        runs = [run_stream(b, _spec(), BernoulliLogit(), SequentialConfig(num_inducing=8)) for b in (switched, signed)]
        for record, expected in zip(runs[0].records, runs[1].records, strict=True):
            record.pop("wall_ms"), expected.pop("wall_ms")
            assert record == expected
        _assert_same_arrays(_state_arrays(runs[0].state), _state_arrays(runs[1].state))

    def test_a_stream_starts_on_no_inducing_points(self):
        start = Stream.start(_spec(), Gaussian(0.3), SequentialConfig(num_inducing=5), 3)
        assert start.state.z.shape == (0, 3) and start.memory.inputs.shape == (0, 3)
        assert (start.n_old, start.records, start.clip_count) == (0, (), 0)

    def test_the_start_predicts_the_kernel_prior(self, rng):
        """With no inducing points the mean is 0 and the variance ``k(x, x)``, and the
        held-out metrics are those of ``N(0, k(x, x) + noise)``."""
        spec = KernelSpec("matern52", Hyperparams(1.3, np.array([0.7, 0.9]), constant_variance=0.2))
        start = Stream.start(spec, Gaussian(0.3), SequentialConfig(num_inducing=5), 2)
        x = rng.uniform(-2, 2, (7, 2))
        y = np.sin(x[:, 0]) * np.cos(x[:, 1])
        mean, var = predict(start.state, x)
        assert np.array_equal(mean, np.zeros(7)) and np.array_equal(var, gram_diag(spec, x))
        total = var + 0.3
        metrics = evaluate_state(start.state, start.lik, x, y)
        assert metrics["nlpd"] == pytest.approx(float(np.mean(0.5 * np.log(2 * np.pi * total) + y**2 / (2 * total))))
        assert metrics["rmse_or_error"] == pytest.approx(float(np.sqrt(np.mean(y**2))))

    @pytest.mark.parametrize(
        "value, name, new",
        [
            (lambda: SequentialConfig(num_inducing=5), "ngd_steps", 0),
            (lambda: empty_memory(1), "inputs", np.zeros((1, 1))),
            (lambda: Stream.start(_spec(), Gaussian(0.3), SequentialConfig(num_inducing=5), 1), "n_old", 7),
        ],
        ids=["config", "memory", "stream"],
    )
    def test_fields_cannot_be_assigned(self, value, name, new):
        """A value checked when it was built stays as it was checked."""
        with pytest.raises(FrozenInstanceError):
            setattr(value(), name, new)


class TestNoiseOwnership:
    """A Gaussian likelihood owns the noise; a different kernel noise is rejected."""

    def _batches(self, rng, consumed):
        x = np.sort(rng.uniform(-3, 3, 40))[:, None]
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(40)
        for xs, ys in zip(np.array_split(x, 4), np.array_split(y, 4)):
            consumed.append(len(ys))
            yield xs, ys

    @pytest.mark.parametrize("hyper_steps", [0, 1])
    def test_mismatch_raises_before_the_first_batch(self, rng, hyper_steps):
        consumed = []
        config = SequentialConfig(num_inducing=8, memory_capacity=5, hyper_steps=hyper_steps)
        with pytest.raises(ValueError, match="noise_variance 0.5 differs .* 0.1"):
            run_stream(self._batches(rng, consumed), _spec(noise=0.5), Gaussian(0.1), config)
        assert consumed == []

    def test_stream_start_raises_for_a_caller_that_steps_itself(self):
        with pytest.raises(ValueError, match="noise_variance 0.5 differs .* 0.1"):
            Stream.start(_spec(noise=0.5), Gaussian(0.1), SequentialConfig(num_inducing=8), 1)

    @pytest.mark.parametrize("noise", [0.1, None], ids=["equal", "unset"])
    @pytest.mark.parametrize("hyper_steps", [0, 1])
    def test_equal_or_unset_kernel_noise_runs(self, rng, noise, hyper_steps):
        config = SequentialConfig(num_inducing=8, memory_capacity=5, hyper_steps=hyper_steps)
        result = run_stream(self._batches(rng, []), _spec(noise=noise), Gaussian(0.1), config)
        noises = [r["theta"]["noise_variance"] for r in result.records]
        assert len(noises) == 4
        if hyper_steps == 0:
            assert noises == [0.1] * 4
        else:
            assert noises[0] != 0.1
            assert result.state.kernel.hyper.noise_variance == result.lik.noise_variance


class TestClipTelemetry:
    """Clips go to the records and to one warning at the end of the run."""

    def _run(self, memory_capacity=10):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, (60, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.2 * rng.standard_normal(60)
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.5]), noise_variance=0.1))
        config = SequentialConfig(num_inducing=10, memory_capacity=memory_capacity)
        batches = make_stream(x, y, 5, order="sorted")
        return run_stream(batches, spec, Gaussian(0.1), config)

    def test_records_carry_the_removal_clip(self, monkeypatch):
        priors = []

        def spy(*args):
            priors.append(remove_memory(*args))
            return priors[-1]

        monkeypatch.setattr(dualgp.sequential, "remove_memory", spy)
        result = self._run()
        clips = [r["clip_magnitude"] for r in result.records]
        assert clips == [prior.clip_magnitude for prior in priors]
        assert sum(clip > 1e-6 for clip in clips) >= 2

    def test_one_warning_per_run(self, caplog):
        with caplog.at_level("WARNING", logger="dualgp.sequential"):
            result = self._run()
        warnings = [r for r in caplog.records if r.name == "dualgp.sequential"]
        assert len(warnings) == 1
        clips = [r["clip_magnitude"] for r in result.records]
        clipped = sum(clip > 0.0 for clip in clips)
        assert clipped >= 2
        message = warnings[0].getMessage()
        assert f"on {clipped} of {len(clips)} batches" in message
        assert f"{max(clips):.3e}" in message

    def test_removal_does_not_log(self, rng, caplog):
        x = rng.uniform(-2, 2, (8, 1))
        y = np.sin(x[:, 0])
        lik = Gaussian(0.3)
        state = make_state(_spec(), x[:5])
        for _ in range(2):
            state = ngd_step(state, lik, x, y, rho=0.6)
        with caplog.at_level("DEBUG", logger="dualgp"):
            prior = remove_memory(state, lik, _memory_of(x[:4], y[:4]))
        assert prior.clip_magnitude > 1e-6
        assert not caplog.records

    def test_no_warning_without_clips(self, caplog):
        with caplog.at_level("WARNING", logger="dualgp.sequential"):
            result = self._run(memory_capacity=0)
        assert all(r["clip_magnitude"] == 0.0 for r in result.records)
        assert not caplog.records


@st.composite
def _awkward_streams(draw):
    """Small streams with the inputs that stress factorizations."""
    bernoulli = draw(st.booleans())
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, (n, dim))
    if draw(st.booleans()):
        x[n // 2:] = x[: n - n // 2]
    if dim == 2 and draw(st.booleans()):
        x[:, 1] = 0.5
    f = np.sin(2.0 * x[:, 0])
    y = np.where(f + 0.3 * rng.standard_normal(n) > 0, 1.0, -1.0) if bernoulli else f
    lengthscale = draw(st.sampled_from([1e-4, 1.0, 1e4]))
    num_batches = draw(st.integers(1, n))
    if draw(st.booleans()):
        num_batches = n  # one point per batch
    config = SequentialConfig(
        num_inducing=draw(st.integers(1, 8)),
        ngd_rho=draw(st.sampled_from([0.5, 0.8, 1.0])),
        ngd_steps=draw(st.integers(1, 3)),
        memory_capacity=draw(st.integers(0, 6)),
        hyper_steps=draw(st.integers(0, 1)),
    )
    noise = None if bernoulli else 0.1
    spec = KernelSpec("matern52", Hyperparams(1.0, np.full(dim, lengthscale), noise_variance=noise))
    lik = BernoulliLogit() if bernoulli else Gaussian(0.1)
    return make_stream(x, y, num_batches), spec, lik, config


class TestRunStreamProperties:
    @given(stream=_awkward_streams())
    @settings(max_examples=30, deadline=None)
    def test_finite_and_psd_or_typed_error(self, stream):
        batches, spec, lik, config = stream
        try:
            result = run_stream(batches, spec, lik, config)
        except FactorizationFailed:
            return
        state = result.state
        assert np.all(np.isfinite(state.alpha_u))
        assert np.all(np.isfinite(state.b_u))
        w = np.linalg.eigvalsh(state.b_u)
        assert w.min() >= -1e-8 * max(1.0, float(np.abs(w).max()))
        for record in result.records:
            assert np.isfinite(record["elbo_like_objective"])
            assert np.isfinite(record["clip_magnitude"])
            assert np.all(np.isfinite(record["theta"]["lengthscales"]))
        assert np.all(np.isfinite(predict(state, batches[0][0])))


@st.composite
def _symmetry_cases(draw):
    """``(x, f, noise, x_test, num_batches, config, seed)``: a short 2-d stream whose memory samples."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(16, 40))
    x = rng.uniform(-2, 2, (n, 2))
    config = SequentialConfig(
        num_inducing=draw(st.integers(3, 8)), memory_capacity=draw(st.sampled_from([4, 8])),
        hyper_steps=2, hyper_lr=0.05,
    )
    f = np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])
    return x, f, rng.standard_normal(n), rng.uniform(-2, 2, (20, 2)), draw(st.integers(2, 4)), config, seed


def _symmetry_run(batches, bernoulli, lengthscales, config, seed):
    """``run_stream`` of ``batches`` with the Matern kernel at ``lengthscales``."""
    spec = KernelSpec("matern52", Hyperparams(1.0, np.asarray(lengthscales), constant_variance=0.3))
    return run_stream(batches, spec, BernoulliLogit() if bernoulli else Gaussian(0.1), config, seed=seed)


def _symmetry_gaps(runs, x_tests, ls_scale=1.0):
    """Largest differences of two runs: predictive mean, variance, and theta relative to the first run's.

    The second run predicts at ``x_tests[1]``, and its lengthscales are divided by ``ls_scale`` first.
    """
    (mean, var), (mean_b, var_b) = (predict(run.state, x) for run, x in zip(runs, x_tests, strict=True))

    def theta(run, scale):
        h = run.state.kernel.hyper
        noise = [run.lik.noise_variance] if isinstance(run.lik, Gaussian) else []
        return np.array([h.variance, *(h.lengthscales / scale), h.constant_variance, *noise])

    first, second = theta(runs[0], 1.0), theta(runs[1], np.asarray(ls_scale))
    gaps = (np.abs(mean_b - mean), np.abs(var_b - var), np.abs(second - first) / first)
    return np.array([np.max(gap) for gap in gaps])


def _rows_in(points, x):
    """The index in ``x`` of each row of ``points``, whose rows are rows of ``x``."""
    index = {row.tobytes(): i for i, row in enumerate(x)}
    return [index[row.tobytes()] for row in points]


class TestSymmetries:
    """Whole runs with memory, against the runs a symmetry of the model maps them to."""

    @given(case=_symmetry_cases())
    @settings(max_examples=20, deadline=None)
    def test_flipped_labels_flip_the_mean(self, case):
        """The logit likelihood is odd in ``y f``: flipping every label negates ``f``."""
        x, f, noise, x_test, num_batches, config, seed = case
        y = np.where(f + 0.3 * noise > 0, 1.0, -1.0)
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.7, 0.9])))
        config = replace(config, hyper_steps=0)
        runs = [
            run_stream(make_stream(x, labels, num_batches, order="sorted"), spec, BernoulliLogit(), config, seed=seed)
            for labels in (y, -y)
        ]
        (mean, var), (mean_flip, var_flip) = (predict(run.state, x_test) for run in runs)
        # The sites at (-y, -mean) are the sites at (y, mean), alpha negated,
        # bit for bit, and every later step is linear in alpha or reads b_u.
        assert np.array_equal(mean_flip, -mean)
        assert np.array_equal(var_flip, var)
        assert np.array_equal(runs[1].state.alpha_u, -runs[0].state.alpha_u)
        assert np.array_equal(runs[1].state.b_u, runs[0].state.b_u)
        assert np.array_equal(runs[1].memory.inputs, runs[0].memory.inputs)

    @given(case=_symmetry_cases(), scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_scaled_labels_scale_the_posterior(self, case, scale):
        """``y`` times ``a``, with the variances and the noise times ``a**2``, hyper steps on."""
        x, f, noise, x_test, num_batches, config, seed = case
        y = f + 0.1 * noise
        runs = []
        for a in (1.0, scale):
            spec = KernelSpec("matern52", Hyperparams(a**2, np.array([0.7, 0.9]), constant_variance=0.3 * a**2))
            batches = make_stream(x, a * y, num_batches, order="sorted")
            runs.append(run_stream(batches, spec, Gaussian(0.1 * a**2), config, seed=seed))
        (mean, var), (mean_a, var_a) = (predict(run.state, x_test) for run in runs)
        # measured: 2.0e-10, 2.0e-10 and, for theta, 5.4e-10 at most over 300 examples
        np.testing.assert_allclose(mean_a / scale, mean, rtol=0, atol=2e-9)
        np.testing.assert_allclose(var_a / scale**2, var, rtol=0, atol=2e-9)

        def theta(run, c):
            h = run.state.kernel.hyper
            return np.array([h.variance / c, *h.lengthscales, h.constant_variance / c, run.lik.noise_variance / c])

        np.testing.assert_allclose(theta(runs[1], scale**2), theta(runs[0], 1.0), rtol=5.4e-9)
        assert np.array_equal(runs[1].memory.inputs, runs[0].memory.inputs)

    @given(case=_symmetry_cases(), bernoulli=st.booleans(), shift=st.tuples(*[st.floats(-1e4, 1e4)] * 2))
    @settings(max_examples=20, deadline=None)
    def test_translated_inputs_leave_the_run_unchanged(self, case, bernoulli, shift):
        """A stationary kernel reads differences of inputs: every input, train and test, moved by ``shift``."""
        x, f, noise, x_test, num_batches, config, seed = case
        y = np.where(f + 0.3 * noise > 0, 1.0, -1.0) if bernoulli else f + 0.1 * noise
        x_moved = x + np.asarray(shift)
        runs = [
            _symmetry_run(make_stream(inputs, y, num_batches, order="sorted"), bernoulli, [0.7, 0.9], config, seed)
            for inputs in (x, x_moved)
        ]
        gaps = _symmetry_gaps(runs, (x_test, x_test + np.asarray(shift)))
        # measured: 1.8e-10 (mean and variance) and 1.0e-9 (theta) at most over 1000 examples
        assert np.all(gaps <= np.array([1.8e-9, 1.8e-9, 1e-8])), gaps
        assert _rows_in(runs[1].memory.inputs, x_moved) == _rows_in(runs[0].memory.inputs, x)

    @given(case=_symmetry_cases(), bernoulli=st.booleans(), scale=st.tuples(*[st.floats(0.1, 10.0)] * 2))
    @settings(max_examples=20, deadline=None)
    def test_scaled_inputs_and_lengthscales_leave_the_run_unchanged(self, case, bernoulli, scale):
        """Every input, train and test, and every lengthscale times ``scale`` (one factor per dimension)."""
        x, f, noise, x_test, num_batches, config, seed = case
        y = np.where(f + 0.3 * noise > 0, 1.0, -1.0) if bernoulli else f + 0.1 * noise
        scale = np.asarray(scale)
        x_scaled = x * scale
        runs = [
            _symmetry_run(make_stream(inputs, y, num_batches, order="sorted"), bernoulli, ls, config, seed)
            for inputs, ls in ((x, np.array([0.7, 0.9])), (x_scaled, np.array([0.7, 0.9]) * scale))
        ]
        gaps = _symmetry_gaps(runs, (x_test, x_test * scale), ls_scale=scale)
        # measured: 1.6e-10 (mean and variance) and 3.5e-10 (theta) at most over 1000 examples
        assert np.all(gaps <= np.array([1.6e-9, 1.6e-9, 3.5e-9])), gaps
        assert _rows_in(runs[1].memory.inputs, x_scaled) == _rows_in(runs[0].memory.inputs, x)

    @given(case=_symmetry_cases(), bernoulli=st.booleans(), order_seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permuted_rows_leave_the_run_unchanged(self, case, bernoulli, order_seed):
        """Rows permuted within each batch, with a memory that holds every point, so curation keeps the pool.

        Every prior variance is equal, so a refresh's first pivot is a tie
        broken by candidate order, which on the first batch is its row order:
        each batch keeps its first row in place.
        """
        x, f, noise, x_test, num_batches, config, seed = case
        y = np.where(f + 0.3 * noise > 0, 1.0, -1.0) if bernoulli else f + 0.1 * noise
        config = replace(config, memory_capacity=len(y))
        batches = make_stream(x, y, num_batches, order="sorted")
        rng = np.random.default_rng(order_seed)
        permuted = []
        for xb, yb in batches:
            rows = np.concatenate([[0], 1 + rng.permutation(len(yb) - 1)])
            permuted.append((xb[rows], yb[rows]))
        runs = [_symmetry_run(b, bernoulli, [0.7, 0.9], config, seed) for b in (batches, permuted)]
        gaps = _symmetry_gaps(runs, (x_test, x_test))
        # measured: 7.1e-11 (mean and variance) and 6.1e-10 (theta) at most over 1000 examples
        assert np.all(gaps <= np.array([7.1e-10, 7.1e-10, 6.1e-9])), gaps
        assert sorted(_rows_in(runs[1].memory.inputs, x)) == sorted(_rows_in(runs[0].memory.inputs, x))
        assert len(runs[0].memory) == len(y)


class TestOneDimensionalInputs:
    """A 1-D input array is n points in one dimension at every entry point."""

    def test_make_state(self):
        z = np.array([0.0, 1.0, 2.0])
        flat, column = make_state(_spec(), z), make_state(_spec(), z[:, None])
        assert flat.z.shape == (3, 1)
        for name in ("z", "alpha_u", "b_u"):
            assert np.array_equal(getattr(flat, name), getattr(column, name))
        assert np.array_equal(flat.kzz.inv, column.kzz.inv)

    def test_pivoted_cholesky_select(self, rng):
        x = rng.uniform(-3, 3, 20)
        flat = pivoted_cholesky_select(_spec(), x, 6)
        column = pivoted_cholesky_select(_spec(), x[:, None], 6)
        assert len(flat.indices) == 6
        assert np.array_equal(flat.indices, column.indices)

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
        result = fit_offline(_spec(), Gaussian(0.3), config, x, y, budget_batches=3)
        assert len(result.records) == 1
        assert result.records[0]["n_seen"] == 60
        assert len(result.memory) == 0

    def test_matches_manual_equivalent_stream(self, rng):
        x = rng.uniform(-3, 3, (40, 1))
        y = np.sin(x[:, 0])
        config = SequentialConfig(num_inducing=8, ngd_steps=2)
        offline = fit_offline(_spec(), Gaussian(0.3), config, x, y, budget_batches=2)
        manual_config = SequentialConfig(num_inducing=8, ngd_steps=4)
        manual = run_stream([(x, y)], _spec(), Gaussian(0.3), manual_config)
        np.testing.assert_allclose(offline.state.alpha_u, manual.state.alpha_u, atol=1e-12)
