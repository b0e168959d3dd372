"""Dual-parameterized posterior: updates, bounds, and recovered quantities.

The single-point conjugate model (unit prior variance, unit noise, one
observation y = 1 at the inducing input) has every quantity available by
hand, so its numbers are frozen here at full precision:

    posterior        N(0.5, 0.5)
    dual pair        alpha = 0.5, B = 1.0
    pseudo data      y_tilde = 1.0, sigma_tilde = 1.0
    bound at opt     log N(1 | 0, 2) = -1.5155121234846454
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    expected_log_factor,
    fit_exact,
    log_marginal,
    predict_exact,
    predict_moments_route,
    pseudo_data,
    site_reconstruction_check,
)

from dualgp.dual import (
    compute_sites,
    cross_gram,
    dual_factor,
    elbo,
    iterate_ngd,
    make_state,
    ngd_step,
    predict,
    recover_moments,
    weighted_gram,
)
import dualgp.dual
import dualgp.sequential
from dualgp.acquisition import ExpectedImprovement, fantasize_batch
from dualgp.harness import load_checkpoint, make_stream, save_checkpoint
from dualgp.kernels import BLOCK_ENTRIES, CholeskyFactor, Hyperparams, KernelSpec, gram, stable_cholesky
from dualgp.likelihoods import BernoulliLogit, Gaussian
from dualgp.representation import project_duals, refresh_representation
from dualgp.sequential import SequentialConfig, hyper_objective, run_stream

ONE_POINT_ELBO = -1.5155121234846454  # log N(1 | 0, 2)


def _spec(variance=1.0, ls=0.8):
    return KernelSpec("matern52", Hyperparams(variance, np.array([ls])))


def _one_point_state():
    state = make_state(_spec(variance=1.0), np.array([[0.0]]))
    lik = Gaussian(noise_variance=1.0)
    return ngd_step(state, lik, np.array([[0.0]]), np.array([1.0]), rho=1.0), lik


def _random_state(rng, m=4, scale=0.8):
    z = rng.uniform(-2, 2, (m, 1))
    a = rng.standard_normal((m, m)) * scale
    return make_state(_spec(), z, alpha_u=rng.standard_normal(m), b_u=a @ a.T)


def _wide_state(rng, m, d=2):
    z = rng.uniform(-2, 2, (m, d))
    a = rng.standard_normal((m, m)) * 0.1
    return make_state(
        KernelSpec("matern52", Hyperparams(1.0, np.array([0.5]))),
        z, alpha_u=rng.standard_normal(m), b_u=a @ a.T,
    )


def _traced(build):
    """``(result, bytes the result holds, transient peak)`` of ``build()`` under tracemalloc.

    ``build`` runs once untraced first, so first-call imports and caches are not counted.
    """
    build()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - before, peak - before


def _assert_blocked_marginals(state, x, block):
    """``predict`` gives, bit for bit, ``CrossGram.marginals`` of each ``block`` rows of ``x``."""
    parts = [cross_gram(state, x[lo : lo + block]).marginals(state) for lo in range(0, len(x), block)]
    mean, var = predict(state, x)
    assert mean.shape == var.shape == (len(x),)
    if parts:
        assert np.array_equal(mean, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(var, np.concatenate([p[1] for p in parts]))


class TestConstruction:
    def test_defaults_to_prior(self):
        state = make_state(_spec(), np.array([[0.0], [1.0]]))
        assert state.num_inducing == 2
        np.testing.assert_array_equal(state.alpha_u, 0.0)
        np.testing.assert_array_equal(state.b_u, 0.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes"):
            make_state(_spec(), np.array([[0.0], [1.0]]), alpha_u=np.zeros(3))

    def test_asymmetric_b_u_raises(self):
        """A ``b_u`` that differs from its transpose in one tiny entry is refused, not repaired."""
        b_u = np.eye(2)
        b_u[0, 1] = 1e-300
        with pytest.raises(ValueError, match="b_u is not symmetric"):
            make_state(_spec(), np.array([[0.0], [1.0]]), np.zeros(2), b_u)

    def test_state_is_frozen(self):
        state = make_state(_spec(), np.array([[0.0]]))
        with pytest.raises(AttributeError):
            state.alpha_u = np.ones(1)


class TestWeightedGram:
    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(0, 40),
        n=st.integers(0, 60),
        zero_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @example(seed=0, m=0, n=5, zero_share=0.0)
    @example(seed=0, m=4, n=0, zero_share=0.0)
    @example(seed=0, m=4, n=6, zero_share=1.0)
    @settings(max_examples=60, deadline=None)
    def test_is_c_diag_w_ct_and_exactly_symmetric(self, seed, m, n, zero_share):
        """Within 1e-12 of ``(C * w) @ C.T``, relative to ``|C| w |C|^T``, the
        scale of the rounding of either product, so cancelled entries count too."""
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
        w = rng.uniform(0.0, 3.0, n) * (rng.uniform(size=n) >= zero_share)
        got = weighted_gram(c, w)
        assert got.shape == (m, m)
        assert np.array_equal(got, got.T)
        scale = (np.abs(c) * w) @ np.abs(c).T
        assert np.all(np.abs(got - (c * w) @ c.T) <= 1e-12 * scale)


class TestOnePointConjugate:
    def test_dual_pair(self):
        state, _ = _one_point_state()
        assert state.alpha_u[0] == pytest.approx(0.5, rel=1e-12)
        assert state.b_u[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_posterior_moments(self):
        state, _ = _one_point_state()
        mean, cov = recover_moments(state)
        assert mean[0] == pytest.approx(0.5, rel=1e-12)
        assert cov[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_elbo_is_log_evidence(self):
        """For a conjugate model at the optimum the bound is tight."""
        state, lik = _one_point_state()
        val = elbo(state, lik, np.array([1.0]), *predict(state, np.array([[0.0]])))
        assert val == pytest.approx(ONE_POINT_ELBO, rel=1e-12)

    def test_pseudo_data(self):
        state, _ = _one_point_state()
        pseudo = pseudo_data(state)
        assert pseudo.y_tilde[0] == pytest.approx(1.0, rel=1e-12)
        assert pseudo.sigma_tilde[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert pseudo.rank == 1
        assert not pseudo.degenerate

    def test_full_step_is_idempotent(self):
        """A second full conjugate step from the optimum stays put."""
        state, lik = _one_point_state()
        again = ngd_step(state, lik, np.array([[0.0]]), np.array([1.0]), rho=1.0)
        np.testing.assert_allclose(again.alpha_u, state.alpha_u, atol=1e-14)
        np.testing.assert_allclose(again.b_u, state.b_u, atol=1e-14)


class TestNgdStep:
    def test_rho_zero_is_identity(self, rng):
        state = _random_state(rng)
        lik = Gaussian(noise_variance=0.5)
        x = rng.uniform(-2, 2, (3, 1))
        y = rng.standard_normal(3)
        stepped = ngd_step(state, lik, x, y, rho=0.0)
        np.testing.assert_allclose(stepped.alpha_u, state.alpha_u, atol=1e-12)
        np.testing.assert_allclose(stepped.b_u, state.b_u, atol=1e-12)

    def test_rho_out_of_range_raises(self, rng):
        state = _random_state(rng)
        with pytest.raises(ValueError, match="rho"):
            ngd_step(state, Gaussian(1.0), np.zeros((1, 1)), np.zeros(1), rho=1.2)

    def test_half_prior_pair_raises(self, rng):
        state = _random_state(rng)
        with pytest.raises(ValueError, match="both"):
            ngd_step(
                state,
                Gaussian(1.0),
                np.zeros((1, 1)),
                np.zeros(1),
                rho=0.5,
                prior_alpha=np.zeros(4),
            )

    def test_full_gaussian_step_matches_exact_inference(self, rng):
        """Inducing points on the data make rho = 1 exact conditioning."""
        x = np.sort(rng.uniform(-2, 2, 8))[:, None]
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(8)
        noise = 0.05
        state = make_state(_spec(), x)
        state = ngd_step(state, Gaussian(noise), x, y, rho=1.0)
        x_test = np.linspace(-2.5, 2.5, 25)[:, None]
        mean, var = predict(state, x_test)
        ref = fit_exact(_spec(), x, y, noise_variance=noise)
        mean_ref, var_ref = predict_exact(ref, x_test)
        np.testing.assert_allclose(mean, mean_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(var, var_ref, rtol=1e-9, atol=1e-11)

    def test_partial_steps_reach_the_same_fixed_point(self, rng):
        """Damped iteration converges to the one-shot conjugate answer."""
        x = rng.uniform(-1, 1, (5, 1))
        y = rng.standard_normal(5)
        lik = Gaussian(noise_variance=0.3)
        state = make_state(_spec(), x)
        target = ngd_step(state, lik, x, y, rho=1.0)
        damped, steps, converged = iterate_ngd(state, lik, x, y, rho=0.6, tol=1e-12)
        assert converged
        assert steps > 1
        np.testing.assert_allclose(damped.alpha_u, target.alpha_u, atol=1e-9)
        np.testing.assert_allclose(damped.b_u, target.b_u, atol=1e-9)

    def test_iterate_reports_nonconvergence(self, rng):
        x = rng.uniform(-1, 1, (5, 1))
        y = rng.standard_normal(5)
        state = make_state(_spec(), x)
        _, steps, converged = iterate_ngd(state, Gaussian(0.3), x, y, rho=0.5, max_steps=2)
        assert steps == 2
        assert not converged

    def test_bernoulli_converges_and_reconstructs(self, rng):
        """At the non-conjugate fixed point the state is exactly its own sites."""
        x = rng.uniform(-2, 2, (6, 1))
        y = np.where(rng.standard_normal(6) > 0, 1.0, -1.0)
        lik = BernoulliLogit()
        state = make_state(_spec(), x)
        state, _, converged = iterate_ngd(state, lik, x, y, rho=0.7, tol=1e-12)
        assert converged
        sites = compute_sites(state, lik, x, y)
        assert site_reconstruction_check(state, sites, x) < 1e-9

    def test_reconstruction_check_detects_unconverged_state(self, rng):
        x = rng.uniform(-2, 2, (6, 1))
        y = np.where(rng.standard_normal(6) > 0, 1.0, -1.0)
        lik = BernoulliLogit()
        state = ngd_step(make_state(_spec(), x), lik, x, y, rho=0.3)
        sites = compute_sites(state, lik, x, y)
        assert site_reconstruction_check(state, sites, x) > 1e-3


class TestPredict:
    def test_two_routes_agree(self, rng):
        state = _random_state(rng, m=5)
        x_test = rng.uniform(-3, 3, (12, 1))
        mean_a, var_a = predict(state, x_test)
        mean_b, var_b = predict_moments_route(state, x_test)
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-10)
        np.testing.assert_allclose(var_a, var_b, atol=1e-10)

    def test_variance_bounded_by_prior(self, rng):
        state = _random_state(rng, m=5)
        _, var = predict(state, rng.uniform(-3, 3, (20, 1)))
        assert np.all(var <= 1.0 + 1e-10)
        assert np.all(var >= -1e-12)

    def test_mean_recovery_is_bitwise(self, rng):
        state = _random_state(rng)
        mean, _ = recover_moments(state)
        np.testing.assert_array_equal(mean, state.alpha_u)
        assert mean is not state.alpha_u

    @pytest.mark.parametrize("flat", [False, True])
    def test_blocked_rows_match_moment_route(self, rng, flat):
        state = _random_state(rng, m=6)
        n = 2 * (BLOCK_ENTRIES // 6) + 1
        x_test = rng.uniform(-3, 3, n if flat else (n, 1))
        mean_a, var_a = predict(state, x_test)
        mean_b, var_b = predict_moments_route(state, x_test)
        assert mean_a.shape == var_a.shape == (n,)
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-10)
        np.testing.assert_allclose(var_a, var_b, atol=1e-10)

    def test_empty_query(self, rng):
        mean, var = predict(_random_state(rng), np.empty((0, 1)))
        assert mean.shape == var.shape == (0,)

    @pytest.mark.parametrize("m", [50, 300])
    def test_peak_memory_within_three_blocks(self, rng, m):
        """The scratch is bounded by the entry budget, not by M or the rows."""
        state = _wide_state(rng, m)
        x = rng.uniform(-2, 2, (10_000, 2))
        peak = _traced(lambda: predict(state, x))[2]
        assert peak <= 3 * BLOCK_ENTRIES * 8

    @pytest.mark.parametrize("m", [50, 100, 300])
    def test_blocks_tile_the_rows(self, rng, m, monkeypatch):
        """Consecutive blocks of ``BLOCK_ENTRIES // M`` rows, then the rest: [655, 655, 655, 83] at M = 50."""
        state, blocks = _wide_state(rng, m), []
        monkeypatch.setattr(dualgp.dual, "gram", lambda *args: blocks.append(len(args[2])) or gram(*args))
        predict(state, rng.uniform(-2, 2, (2048, 2)))
        full, rest = divmod(2048, BLOCK_ENTRIES // m)
        assert blocks == [BLOCK_ENTRIES // m] * full + [rest] * (rest > 0)
        assert max(blocks) * m <= BLOCK_ENTRIES

    @pytest.mark.parametrize("m", [50, 300])
    def test_is_cross_gram_marginals_per_block(self, rng, m):
        """One row, one full block and one row past it: the marginals of each block's cross-Gram."""
        state = _wide_state(rng, m)
        block = BLOCK_ENTRIES // m
        for n in (1, block, block + 1):
            x = rng.uniform(-2, 2, (n, 2))
            _assert_blocked_marginals(state, x, block)

    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(1, 59),
        d=st.integers(1, 4),
        rows=st.sampled_from(["none", "one", "block", "past_block", "any"]),
        family=st.sampled_from(["matern52", "squared_exponential"]),
        constant=st.sampled_from([0.0, 0.3]),
        flat=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_is_cross_gram_marginals_on_drawn_states(self, seed, m, d, rows, family, constant, flat):
        rng = np.random.default_rng(seed)
        block = BLOCK_ENTRIES // m
        n = {"none": 0, "one": 1, "block": block, "past_block": block + 1}.get(rows)
        n = int(rng.integers(0, 3000)) if n is None else n
        hyper = Hyperparams(rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.0, d), constant_variance=constant)
        a = rng.standard_normal((m, m)) * rng.uniform(0.1, 2.0)
        z = rng.uniform(-2, 2, (m, d))
        state = make_state(KernelSpec(family, hyper), z, rng.standard_normal(m), a @ a.T)
        x = rng.uniform(-3, 3, (n, d))
        _assert_blocked_marginals(state, x[:, 0] if flat and d == 1 else x, block)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_routes_agree_property(self, seed):
        rng = np.random.default_rng(seed)
        state = _random_state(rng, m=3, scale=rng.uniform(0.1, 2.0))
        x_test = rng.uniform(-3, 3, (5, 1))
        mean_a, var_a = predict(state, x_test)
        mean_b, var_b = predict_moments_route(state, x_test)
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-9)
        np.testing.assert_allclose(var_a, var_b, atol=1e-9)


class TestElbo:
    def test_zero_at_prior_with_no_data(self):
        state = make_state(_spec(), np.array([[0.0], [1.0]]))
        assert elbo(
            state, Gaussian(1.0), np.empty(0), *predict(state, np.empty((0, 1)))
        ) == pytest.approx(0.0, abs=1e-12)

    def test_kl_to_self_is_zero(self, rng):
        state = _random_state(rng)
        val = elbo(
            state,
            Gaussian(1.0),
            np.empty(0),
            *predict(state, np.empty((0, 1))),
            prior_alpha=state.alpha_u,
            prior_b=state.b_u,
        )
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_bound_below_exact_evidence(self, rng):
        """With fewer inducing points than data the bound stays strictly under."""
        x = rng.uniform(-2, 2, (12, 1))
        y = np.sin(1.5 * x[:, 0]) + 0.2 * rng.standard_normal(12)
        noise = 0.2
        lik = Gaussian(noise)
        z = x[:4]
        state, _, _ = iterate_ngd(make_state(_spec(), z), lik, x, y, rho=0.8, tol=1e-12)
        exact = log_marginal(fit_exact(_spec(), x, y, noise_variance=noise))
        assert elbo(state, lik, y, *predict(state, x)) < exact

    def test_bound_tight_when_inducing_cover_data(self, rng):
        x = np.sort(rng.uniform(-2, 2, 7))[:, None]
        y = rng.standard_normal(7)
        noise = 0.3
        lik = Gaussian(noise)
        state = ngd_step(make_state(_spec(), x), lik, x, y, rho=1.0)
        exact = log_marginal(fit_exact(_spec(), x, y, noise_variance=noise))
        assert elbo(state, lik, y, *predict(state, x)) == pytest.approx(exact, rel=1e-8)

    def test_given_prior_logdet_gives_the_same_bits(self, rng):
        state = _random_state(rng)
        x = rng.uniform(-2, 2, (5, 1))
        a = rng.standard_normal((4, 4)) * 0.5
        args = (state, BernoulliLogit(), np.sign(x[:, 0]), *predict(state, x), rng.standard_normal(4), a @ a.T)
        logdet = stable_cholesky(state.keff + a @ a.T).logdet
        assert elbo(*args, prior_logdet=logdet) == elbo(*args)

    def test_half_prior_pair_raises(self, rng):
        state = _random_state(rng)
        with pytest.raises(ValueError, match="both"):
            elbo(state, Gaussian(1.0), np.empty(0), *predict(state, np.empty((0, 1))), prior_b=state.b_u)


class TestPseudoData:
    def test_full_rank_round_trip(self, rng):
        """Conditioning the prior on the pseudo data rebuilds the dual pair."""
        x = rng.uniform(-2, 2, (6, 1))
        y = rng.standard_normal(6)
        state = ngd_step(make_state(_spec(), x), Gaussian(0.4), x, y, rho=1.0)
        pseudo = pseudo_data(state)
        assert not pseudo.degenerate
        keff = state.keff
        b_back = keff @ np.linalg.solve(pseudo.sigma_tilde, keff)
        alpha_back = keff @ np.linalg.solve(keff + pseudo.sigma_tilde, pseudo.y_tilde)
        np.testing.assert_allclose(b_back, state.b_u, atol=1e-8)
        np.testing.assert_allclose(alpha_back, state.alpha_u, atol=1e-8)

    def test_rank_deficiency_is_reported(self, rng):
        z = rng.uniform(-2, 2, (3, 1))
        state = make_state(_spec(), z)
        x = np.array([[0.3]])
        state = ngd_step(state, Gaussian(0.5), x, np.array([1.0]), rho=1.0)
        pseudo = pseudo_data(state)
        assert pseudo.rank == 1
        assert pseudo.degenerate


class TestFactors:
    def test_zero_rank_contributes_nothing(self):
        state = make_state(_spec(), np.array([[0.0], [1.0]]))
        factor = dual_factor(state.kzz, np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        assert factor.rank == 0
        assert expected_log_factor(factor, np.ones(2), np.eye(2)) == 0.0

    def test_one_point_expected_log_factor(self):
        """Frozen by hand: E[log N(u | 1, 1)] under N(0.5, 0.5)."""
        state, _ = _one_point_state()
        mean, cov = recover_moments(state)
        factor = dual_factor(state.kzz, state.alpha_u, state.b_u, mean_ref=mean)
        assert factor.rank == 1
        val = expected_log_factor(factor, mean, cov)
        assert val == pytest.approx(-1.2939385332046727, rel=1e-12)

    def test_matches_direct_gaussian_expectation(self, rng):
        """Full-rank factor expectation against a brute-force formula."""
        state = _random_state(rng, m=3)
        mean, cov = recover_moments(state)
        factor = dual_factor(state.kzz, state.alpha_u, state.b_u, mean_ref=mean)
        if factor.rank < 3:
            pytest.skip("random draw was rank deficient")
        prec = factor.precision
        mu_f = np.linalg.solve(prec, factor.linear)
        _, logdet_prec = np.linalg.slogdet(prec)
        direct = -0.5 * (
            np.trace(prec @ cov)
            + (mean - mu_f) @ prec @ (mean - mu_f)
            + 3 * np.log(2 * np.pi)
            - logdet_prec
        )
        assert expected_log_factor(factor, mean, cov) == pytest.approx(float(direct), rel=1e-10)


def _hyper_rebuild(state, x, y):
    """The state ``hyper_objective`` rebuilds at moved hyperparameters."""
    rebuilt = []

    def capture(*args):
        rebuilt.append(make_state(*args))
        return rebuilt[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dualgp.sequential, "make_state", capture)
        moved = Hyperparams(1.3, np.array([0.6]), noise_variance=0.4)
        hyper_objective(state, Gaussian(0.4), x, y, np.empty((0, 1)), np.empty(0), 0, moved)
    (only,) = rebuilt
    return only


def _states_by_construction(rng, tmp_path):
    """States built by each route that sets ``b_u``, one with a jittered K_zz."""
    state = _random_state(rng, m=5)
    save_checkpoint(str(tmp_path / "checkpoint.json"), state, Gaussian(0.4))
    x = rng.uniform(-2, 2, (6, 1))
    duplicated = make_state(_spec(), np.array([[0.0], [0.0], [1.0]]))
    fitted = ngd_step(duplicated, Gaussian(0.4), x, np.cos(x[:, 0]), rho=1.0)
    return {
        "make_state": state,
        "make_state_jittered": duplicated,
        "ngd_step": ngd_step(state, Gaussian(0.4), x, np.sin(x[:, 0]), rho=0.6),
        "ngd_step_jittered": fitted,
        "project_duals": project_duals(state, rng.uniform(-2, 2, (4, 1))),
        "load_checkpoint": load_checkpoint(str(tmp_path / "checkpoint.json"))[0],
        "hyper_objective": _hyper_rebuild(state, x, np.sin(x[:, 0])),
        "hyper_objective_jittered": _hyper_rebuild(fitted, x, np.cos(x[:, 0])),
    }


class TestFactorOnce:
    """Each state carries what is derived from it; readers never rebuild it."""

    def test_readers_do_not_factorize(self, rng, factorizations):
        state = _random_state(rng, m=5)
        x = rng.uniform(-2, 2, (7, 1))
        factorizations.clear()
        predict(state, x)
        recover_moments(state)
        elbo(state, Gaussian(0.5), rng.standard_normal(7), *predict(state, x))
        elbo(state, BernoulliLogit(), np.sign(rng.standard_normal(7)), *predict(state, x))
        assert factorizations == []

    def test_passed_cross_gram_gives_the_same_bits(self, rng):
        state = _random_state(rng, m=5)
        x = rng.uniform(-2, 2, (7, 1))
        y = np.sign(x[:, 0])
        cross = cross_gram(state, x)
        for lik in (Gaussian(0.5), BernoulliLogit()):
            own = ngd_step(state, lik, x, y, 0.6)
            shared = ngd_step(state, lik, x, y, 0.6, cross=cross)
            again = ngd_step(shared, lik, x, y, 0.6, cross=cross)
            assert np.array_equal(own.alpha_u, shared.alpha_u)
            assert np.array_equal(own.b_u, shared.b_u)
            assert np.array_equal(again.b_u, ngd_step(shared, lik, x, y, 0.6).b_u)

    def test_step_with_cross_gram_builds_no_kernel_block(self, rng, monkeypatch):
        state = _random_state(rng, m=5)
        x = rng.uniform(-2, 2, (7, 1))
        cross = cross_gram(state, x)
        built = []
        original = dualgp.dual.gram

        def counting(*args):
            k = original(*args)
            built.append(k.shape)
            return k

        monkeypatch.setattr(dualgp.dual, "gram", counting)
        ngd_step(state, BernoulliLogit(), x, np.sign(x[:, 0]), 0.6, cross=cross)
        assert built == []
        ngd_step(state, BernoulliLogit(), x, np.sign(x[:, 0]), 0.6)
        assert built == [(5, 7)]

    @pytest.mark.parametrize("lik", [Gaussian(0.5), BernoulliLogit()], ids=["gaussian", "bernoulli"])
    def test_iterate_ngd_shares_one_cross_gram(self, rng, monkeypatch, lik):
        """The steps give the bits of chained plain steps and build one ``M x n`` block in all."""
        state = _random_state(rng, m=5)
        x = rng.uniform(-2, 2, (7, 1))
        y = np.sign(x[:, 0])
        chained = state
        for _ in range(4):
            chained = ngd_step(chained, lik, x, y, 0.6)
        built = []
        original = dualgp.dual.gram

        def counting(*args):
            k = original(*args)
            built.append(k.shape)
            return k

        monkeypatch.setattr(dualgp.dual, "gram", counting)
        iterated, steps, _ = iterate_ngd(state, lik, x, y, 0.6, max_steps=4, tol=0.0)
        assert steps == 4
        assert np.array_equal(iterated.alpha_u, chained.alpha_u)
        assert np.array_equal(iterated.b_u, chained.b_u)
        assert built == [(5, 7)]

    def test_cross_gram_of_another_state_is_rejected(self, rng):
        state = _random_state(rng, m=5)
        x = rng.uniform(-2, 2, (7, 1))
        other = make_state(state.kernel, state.z + 0.1)
        with pytest.raises(ValueError, match="cross-Gram"):
            ngd_step(state, Gaussian(0.5), x, np.zeros(7), 0.6, cross=cross_gram(other, x))

    def test_ngd_step_factorizes_once(self, rng, factorizations):
        state = _random_state(rng, m=5)
        x = rng.uniform(-2, 2, (7, 1))
        factorizations.clear()
        ngd_step(state, Gaussian(0.5), x, rng.standard_normal(7), rho=0.6)
        assert factorizations == [(5, 5)]

    def test_stored_factor_is_the_fresh_factor(self, rng, tmp_path):
        states = _states_by_construction(rng, tmp_path)
        assert states["make_state_jittered"].kzz.jitter_used > 0.0
        for name, state in states.items():
            fresh = stable_cholesky(state.keff + state.b_u)
            assert np.array_equal(state.kq.inv, fresh.inv), name
            assert state.kq.logdet == fresh.logdet, name
            assert state.kq.jitter_used == fresh.jitter_used, name

    def test_stored_gram_and_weights_are_fresh(self, rng, tmp_path):
        """``keff`` is ``K_zz + jitter I``, ``kinv_alpha`` is ``keff^{-1} alpha_u``, bit for bit."""
        states = _states_by_construction(rng, tmp_path)
        for name in ("make_state", "ngd_step", "hyper_objective"):
            assert states[name].kzz.jitter_used == 0.0, name
            assert states[f"{name}_jittered"].kzz.jitter_used > 0.0, name
        for name, state in states.items():
            kzz = stable_cholesky(gram(state.kernel, state.z))
            assert np.array_equal(state.kzz.inv, kzz.inv), name
            fresh = gram(state.kernel, state.z) + kzz.jitter_used * np.eye(state.num_inducing)
            assert np.array_equal(state.keff, fresh), name
            assert np.array_equal(state.kinv_alpha, kzz.solve(state.alpha_u)), name

    def test_one_row_predict_solves_nothing_for_the_mean(self, rng, monkeypatch):
        solves = []
        original = CholeskyFactor.solve

        def counting(self, rhs):
            solves.append(np.shape(rhs))
            return original(self, rhs)

        monkeypatch.setattr(CholeskyFactor, "solve", counting)
        state = _random_state(rng, m=5)
        solves.clear()
        predict(state, rng.uniform(-2, 2, (1, 1)))
        assert solves == []

    def test_state_keeps_only_the_triangular_factor(self, rng):
        """Each factor holds its inverse triangle, built when it is factored, and no ``chol``."""
        state = _random_state(rng, m=5)
        for factor in (state.kzz, state.kq):
            assert set(vars(factor)) == {"inv", "logdet", "jitter_used"}
            assert not np.any(np.triu(factor.inv, 1))
        jittered = state.keff + state.b_u + state.kq.jitter_used * np.eye(5)
        np.testing.assert_allclose(state.kq.inv @ jittered @ state.kq.inv.T, np.eye(5), atol=1e-12)


def _assert_is_make_state(state, label):
    """``state`` is ``make_state`` of its own kernel, inducing inputs and dual pair, bit for bit."""
    rebuilt = make_state(state.kernel, state.z, state.alpha_u, state.b_u)
    assert np.array_equal(state.keff, rebuilt.keff), label
    assert np.array_equal(state.kzz.inv, rebuilt.kzz.inv), label
    assert np.array_equal(state.kq.inv, rebuilt.kq.inv), label
    assert np.array_equal(state.kinv_alpha, rebuilt.kinv_alpha), label


def _stream_states(rng, lik, hyper_steps):
    """Every batch's state of a 6-batch stream on 2-d inputs, with memory."""
    x = rng.uniform(-2, 2, (90, 2))
    f = np.sin(2.0 * x[:, 0]) + 0.5 * np.cos(3.0 * x[:, 1])
    y = (f > 0).astype(float) if isinstance(lik, BernoulliLogit) else f + 0.1 * rng.standard_normal(90)
    kernel = KernelSpec("matern52", Hyperparams(1.0, np.array([0.7, 0.9])))
    config = SequentialConfig(num_inducing=12, memory_capacity=10, hyper_steps=hyper_steps, hyper_lr=0.05)
    states = []

    def capture(state, lik):
        states.append(state)
        return {}

    result = run_stream(make_stream(x, y, 6, order="sorted"), kernel, lik, config, evaluate=capture)
    assert states[-1] is result.state
    return states


class TestEveryStateIsMakeState:
    """Whatever route built a state, it is ``make_state`` of its kernel, ``z`` and dual pair.

    A checkpoint keeps only those four, so this is what makes a reloaded
    state predict exactly what the saved one did.
    """

    @pytest.mark.parametrize(
        "lik, hyper_steps",
        [(Gaussian(0.1), 0), (Gaussian(0.1), 3), (BernoulliLogit(), 0)],
        ids=["gaussian", "gaussian_hyper", "bernoulli"],
    )
    def test_every_batch_of_a_stream(self, rng, lik, hyper_steps):
        for batch, state in enumerate(_stream_states(rng, lik, hyper_steps)):
            _assert_is_make_state(state, f"batch {batch}")

    def test_every_step_of_a_bo_loop(self, rng):
        """The steps of ``dualgp bo``: fit, then fantasize, refresh and condition."""
        bounds = np.array([[-3.0, 3.0], [-2.0, 2.0]])
        lik = Gaussian(0.01)
        x = rng.uniform(bounds[:, 0], bounds[:, 1], (6, 2))
        y = np.sin(x[:, 0]) * np.cos(x[:, 1])
        kernel = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8, 0.8])))
        state, _, _ = iterate_ngd(make_state(kernel, x), lik, x, y, rho=1.0, max_steps=5)
        _assert_is_make_state(state, "iterate_ngd")
        for step in range(4):
            acq = ExpectedImprovement(best=float(y.max()), bounds=bounds)
            points, fantasy = fantasize_batch(state, lik, acq, k=3, search_budget=64, seed=step, refine_steps=2)
            _assert_is_make_state(fantasy, f"fantasize_batch {step}")
            values = np.sin(points[:, 0]) * np.cos(points[:, 1])
            y = np.concatenate([y, values])
            state = refresh_representation(state, points, 10)
            _assert_is_make_state(state, f"refresh_representation {step}")
            state = ngd_step(state, lik, points, values, 1.0, state.alpha_u, state.b_u)
            _assert_is_make_state(state, f"ngd_step {step}")

    def test_checkpoint_of_a_refreshed_stream_predicts_the_same_bits(self, rng, tmp_path):
        """The last state of a stream without hyper steps got its ``K_zz`` from a refresh."""
        state = _stream_states(rng, Gaussian(0.1), 0)[-1]
        path = str(tmp_path / "checkpoint.json")
        save_checkpoint(path, state, Gaussian(0.1))
        back = load_checkpoint(path)[0]
        x_test = rng.uniform(-2, 2, (25, 2))
        mean, var = predict(state, x_test)
        back_mean, back_var = predict(back, x_test)
        assert np.array_equal(back_mean, mean)
        assert np.array_equal(back_var, var)


class TestMemory:
    """What a state holds and what an NGD step allocates, at the benchmark's M = 300."""

    M = 300

    @pytest.mark.parametrize("route", ["make_state", "ngd_step"])
    def test_state_holds_four_square_arrays(self, rng, route):
        m, d = self.M, 2
        z = rng.uniform(-2, 2, (m, d))
        alpha = rng.standard_normal(m)
        a = rng.standard_normal((m, m)) * 0.1
        x = rng.uniform(-2, 2, (2 * m, d))
        y = np.sign(x[:, 0])

        def build():
            state = make_state(_spec(ls=0.5), z, alpha, a @ a.T)
            if route == "ngd_step":
                state = ngd_step(state, BernoulliLogit(), x, y, 0.6, state.alpha_u, state.b_u)
            return state

        state, held, _ = _traced(build)
        assert state.num_inducing == m
        assert held <= 4 * m * m * 8 + 64 * m * d * 8

    def test_ngd_step_peak(self, rng):
        state = _wide_state(rng, self.M)
        x = rng.uniform(-2, 2, (600, 2))
        y = np.sign(x[:, 0])
        _, _, peak = _traced(lambda: ngd_step(state, BernoulliLogit(), x, y, 0.6, state.alpha_u, state.b_u))
        assert peak <= 4.5e6

    @pytest.mark.parametrize("rho", [0.3, 0.6, 1.0])
    def test_in_place_b_equals_the_formula_bit_for_bit(self, rng, rho):
        state = _random_state(rng, m=6)
        x = rng.uniform(-2, 2, (9, 1))
        y = np.sign(x[:, 0])
        a = rng.standard_normal((6, 6)) * 0.3
        prior_alpha, prior_b = rng.standard_normal(6), a @ a.T
        lik = BernoulliLogit()
        new = ngd_step(state, lik, x, y, rho, prior_alpha, prior_b)
        _, beta_hat = compute_sites(state, lik, x, y)
        kzx = gram(state.kernel, state.z, x)
        s = kzx * np.sqrt(beta_hat)
        site_b = s @ s.T
        expected = (1.0 - rho) * state.b_u + rho * (prior_b + site_b)
        assert np.array_equal(new.b_u, expected)
