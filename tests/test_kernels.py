"""Covariance functions, hyperparameter containers, and stable factorization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gram_einsum

from dualgp.kernels import (
    FAMILIES,
    JITTER_LADDER,
    FactorizationFailed,
    GramFactor,
    Hyperparams,
    KernelSpec,
    gram,
    gram_diag,
    spec_from_dict,
    spec_to_dict,
    stable_cholesky,
)


def _spec(family="matern52", variance=1.3, lengthscales=(0.7,), constant=0.0, noise=None):
    return KernelSpec(
        family,
        Hyperparams(
            variance=variance,
            lengthscales=np.asarray(lengthscales),
            constant_variance=constant,
            noise_variance=noise,
        ),
    )


class TestHyperparams:
    def test_scalar_lengthscale_promoted_to_array(self):
        h = Hyperparams(variance=1.0, lengthscales=0.5)
        assert h.lengthscales.shape == (1,)
        assert h.lengthscales.dtype == np.float64

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="variance"):
            Hyperparams(variance=0.0, lengthscales=np.array([1.0]))

    def test_rejects_nonpositive_lengthscale(self):
        with pytest.raises(ValueError, match="lengthscales"):
            Hyperparams(variance=1.0, lengthscales=np.array([1.0, -0.1]))

    def test_rejects_negative_constant_variance(self):
        with pytest.raises(ValueError, match="constant_variance"):
            Hyperparams(variance=1.0, lengthscales=np.array([1.0]), constant_variance=-1e-3)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="noise_variance"):
            Hyperparams(variance=1.0, lengthscales=np.array([1.0]), noise_variance=0.0)

    def test_copy_is_independent(self):
        h = Hyperparams(variance=1.0, lengthscales=np.array([1.0, 2.0]))
        c = h.copy()
        c.lengthscales[0] = 9.0
        assert h.lengthscales[0] == 1.0


class TestKernelSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            _spec(family="cubic")

    def test_with_hyper_keeps_family(self):
        spec = _spec()
        new = spec.with_hyper(Hyperparams(2.0, np.array([1.0])))
        assert new.family == spec.family
        assert new.hyper.variance == 2.0


class TestGram:
    def test_diagonal_equals_variance_plus_constant(self):
        spec = _spec(variance=1.7, constant=0.25)
        x = np.linspace(-2, 2, 9)
        K = gram(spec, x)
        np.testing.assert_allclose(np.diag(K), 1.95, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gram_diag(spec, x), 1.95)

    def test_symmetry(self, rng):
        x = rng.standard_normal((12, 3))
        for family in FAMILIES:
            K = gram(_spec(family=family, lengthscales=(0.5, 1.0, 2.0)), x)
            np.testing.assert_allclose(K, K.T, atol=1e-15)

    def test_cross_gram_shape_and_transpose(self, rng):
        xa = rng.standard_normal((5, 2))
        xb = rng.standard_normal((8, 2))
        spec = _spec(lengthscales=(0.9,))
        Kab = gram(spec, xa, xb)
        assert Kab.shape == (5, 8)
        np.testing.assert_allclose(Kab, gram(spec, xb, xa).T, atol=1e-15)

    def test_one_dimensional_inputs_accepted(self):
        spec = _spec()
        K = gram(spec, np.array([0.0, 1.0, 2.0]))
        assert K.shape == (3, 3)

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="dimensions disagree"):
            gram(_spec(), rng.standard_normal((3, 2)), rng.standard_normal((3, 4)))

    def test_ard_lengthscale_count_mismatch_raises(self, rng):
        spec = _spec(lengthscales=(0.5, 1.0, 2.0))
        with pytest.raises(ValueError, match="lengthscales have"):
            gram(spec, rng.standard_normal((4, 2)))

    def test_squared_exponential_closed_form(self):
        """One pair of points checked against the textbook expression."""
        spec = _spec(family="squared_exponential", variance=2.0, lengthscales=(0.5, 2.0))
        x = np.array([0.3, -1.0])
        y = np.array([1.1, 0.4])
        r2 = ((x - y) / np.array([0.5, 2.0])) ** 2
        expected = 2.0 * np.exp(-0.5 * r2.sum())
        assert gram(spec, x[None, :], y[None, :])[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_matern52_closed_form(self):
        spec = _spec(family="matern52", variance=1.5, lengthscales=(0.8,))
        x, y = np.array([0.2]), np.array([1.4])
        r = np.sqrt(5.0) * abs(0.2 - 1.4) / 0.8
        expected = 1.5 * (1.0 + r + r * r / 3.0) * np.exp(-r)
        assert gram(spec, x[None, :], y[None, :])[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_shared_lengthscale_matches_explicit_ard(self, rng):
        x = rng.standard_normal((6, 3))
        shared = gram(_spec(lengthscales=(0.7,)), x)
        explicit = gram(_spec(lengthscales=(0.7, 0.7, 0.7)), x)
        np.testing.assert_allclose(shared, explicit, atol=1e-15)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        family=st.sampled_from(FAMILIES),
    )
    @settings(max_examples=40, deadline=None)
    def test_gram_is_positive_semidefinite(self, seed, n, family):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, (n, 2))
        K = gram(_spec(family=family, lengthscales=(0.6, 1.4)), x)
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-9 * max(w.max(), 1.0)

    @given(shift=st.floats(-5, 5), scale=st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_stationarity_under_translation(self, shift, scale):
        spec = _spec(variance=scale)
        x = np.array([0.0])
        y = np.array([1.3])
        base = gram(spec, x[None, :], y[None, :])[0, 0]
        moved = gram(spec, (x + shift)[None, :], (y + shift)[None, :])[0, 0]
        assert moved == pytest.approx(base, rel=1e-12)


class TestGramAgainstOracle:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", [1, 2, 8])
    @pytest.mark.parametrize("per_dim", [False, True])
    def test_matches_einsum_oracle(self, rng, family, dim, per_dim):
        ls = rng.uniform(0.3, 2.0, dim) if per_dim else np.array([0.6])
        spec = _spec(family=family, variance=1.7, lengthscales=ls, constant=0.4)
        xa = rng.uniform(-3, 3, (40, dim))
        xb = rng.uniform(-3, 3, (60, dim))
        np.testing.assert_allclose(gram(spec, xa, xb), gram_einsum(spec, xa, xb), rtol=0, atol=1e-13)
        np.testing.assert_allclose(gram(spec, xa), gram_einsum(spec, xa), rtol=0, atol=1e-13)

    def test_far_from_origin_matches_oracle(self, rng):
        spec = _spec(lengthscales=(0.1, 0.3))
        xa = 100.0 + rng.uniform(0, 1, (30, 2))
        xb = 100.0 + rng.uniform(0, 1, (50, 2))
        np.testing.assert_allclose(gram(spec, xa, xb), gram_einsum(spec, xa, xb), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_self_gram_diagonal_is_exact(self, rng, family):
        spec = _spec(family=family, variance=1.3, lengthscales=(0.2, 0.7, 1.9), constant=0.35)
        x = rng.uniform(-5, 5, (50, 3))
        K = gram(spec, x)
        np.testing.assert_array_equal(np.diag(K), spec.hyper.variance + spec.hyper.constant_variance)
        np.testing.assert_array_equal(K, K.T)

    def test_peak_memory_within_three_outputs(self, rng):
        spec = _spec(lengthscales=(0.5, 1.0))
        z = rng.uniform(-2, 2, (300, 2))
        x = rng.uniform(-2, 2, (4000, 2))
        gram(spec, z, x)
        tracemalloc.start()
        try:
            K = gram(spec, z, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * K.nbytes


class TestStableCholesky:
    def test_no_jitter_for_well_conditioned(self):
        K = gram(_spec(), np.linspace(0, 3, 5))
        factor = stable_cholesky(K + 0.1 * np.eye(5))
        assert factor.jitter_used == 0.0
        np.testing.assert_allclose(factor.chol @ factor.chol.T, factor.regularized, atol=1e-12)

    def test_ladder_escalates_for_rank_deficient(self):
        x = np.array([0.0, 0.0, 1.0])  # duplicate point forces singularity
        K = gram(_spec(), x)
        factor = stable_cholesky(K)
        assert factor.jitter_used in JITTER_LADDER
        assert factor.jitter_used > 0.0
        np.testing.assert_allclose(factor.chol @ factor.chol.T, factor.regularized, atol=1e-10)

    def test_solve_matches_numpy(self, rng):
        K = gram(_spec(), rng.standard_normal((7, 1))) + 0.3 * np.eye(7)
        factor = stable_cholesky(K)
        rhs = rng.standard_normal(7)
        np.testing.assert_allclose(factor.solve(rhs), np.linalg.solve(K, rhs), atol=1e-10)

    def test_logdet_matches_slogdet(self, rng):
        K = gram(_spec(), rng.standard_normal((6, 2))) + 0.5 * np.eye(6)
        factor = stable_cholesky(K)
        sign, ref = np.linalg.slogdet(K)
        assert sign == 1.0
        assert factor.logdet() == pytest.approx(ref, rel=1e-12)

    def test_half_solve_composes_to_solve(self, rng):
        K = gram(_spec(), rng.standard_normal((5, 1))) + 0.2 * np.eye(5)
        factor = stable_cholesky(K)
        rhs = rng.standard_normal(5)
        half = factor.half_solve(rhs)
        assert half.T @ half == pytest.approx(rhs @ factor.solve(rhs), rel=1e-12)

    def test_nonfinite_matrix_raises(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(FactorizationFailed, match="non-finite"):
            stable_cholesky(bad)

    def test_hopeless_matrix_raises(self):
        with pytest.raises(FactorizationFailed, match="every jitter level"):
            stable_cholesky(np.array([[-5.0, 0.0], [0.0, -5.0]]))

    def test_regularized_identity_when_no_jitter(self):
        K = np.eye(3) * 2.0
        factor = stable_cholesky(K)
        assert factor.regularized is factor.matrix


class TestSerialization:
    def test_round_trip(self):
        spec = _spec(
            family="squared_exponential",
            variance=0.9,
            lengthscales=(0.4, 1.1),
            constant=0.05,
            noise=0.01,
        )
        back = spec_from_dict(spec_to_dict(spec))
        assert back.family == spec.family
        assert back.hyper.variance == spec.hyper.variance
        np.testing.assert_array_equal(back.hyper.lengthscales, spec.hyper.lengthscales)
        assert back.hyper.constant_variance == spec.hyper.constant_variance
        assert back.hyper.noise_variance == spec.hyper.noise_variance

    def test_none_noise_survives(self):
        back = spec_from_dict(spec_to_dict(_spec(noise=None)))
        assert back.hyper.noise_variance is None

    def test_gram_factor_jittered_regularized(self):
        factor = GramFactor(matrix=np.eye(2), chol=np.linalg.cholesky(np.eye(2) * 1.5), jitter_used=0.5)
        np.testing.assert_allclose(factor.regularized, np.eye(2) * 1.5)
