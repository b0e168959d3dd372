"""Covariance functions, hyperparameter containers, and stable factorization."""

import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    gram_einsum,
    half_solve_by_substitution,
    lower_inverse_out_of_place,
    solve_by_substitution,
)

from dualgp.kernels import (
    FAMILIES,
    INV_LEAF,
    JITTER_LADDER,
    FactorizationFailed,
    Hyperparams,
    KernelSpec,
    as_count,
    gram,
    gram_diag,
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

    @pytest.mark.parametrize(
        "lengthscales, shape", [([[1.0, 1.0]], (1, 2)), (np.ones((2, 1)), (2, 1)), ([], (0,))],
        ids=["nested", "column", "empty"],
    )
    def test_rejects_lengthscales_other_than_a_non_empty_flat_list(self, lengthscales, shape):
        """A nested or column list used to build and fail later, in the ascent or in ``gram``."""
        message = f"lengthscales must be a number or a non-empty flat list, not of shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Hyperparams(1.0, lengthscales)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name", ["variance", "lengthscales", "constant_variance", "noise_variance"]
    )
    def test_rejects_non_finite(self, name, bad):
        values = {"variance": 1.0, "lengthscales": np.array([1.0, 0.5]), "noise_variance": 0.1}
        values[name] = np.array([1.0, bad]) if name == "lengthscales" else bad
        with pytest.raises(ValueError, match=f"^{name} must be .* and finite"):
            Hyperparams(**values)


class TestFrozen:
    """A value checked at construction cannot be changed after it."""

    @pytest.mark.parametrize(
        "name, value",
        [("variance", True), ("lengthscales", np.array([-1.0])), ("constant_variance", -1.0), ("noise_variance", 0.0)],
    )
    def test_hyperparams_fields_cannot_be_assigned(self, name, value):
        hyper = Hyperparams(1.0, [0.5], noise_variance=0.1)
        with pytest.raises(FrozenInstanceError):
            setattr(hyper, name, value)
        assert hyper.entry() == {"variance": 1.0, "lengthscales": [0.5], "constant_variance": 0.0,
                                 "noise_variance": 0.1}

    def test_lengthscales_are_a_read_only_array_of_their_own(self):
        given = np.array([0.5, 2.0])
        hyper = Hyperparams(1.0, given)
        with pytest.raises(ValueError, match="read-only"):
            hyper.lengthscales[0] = -1.0
        given[0] = 3.0
        np.testing.assert_array_equal(hyper.lengthscales, [0.5, 2.0])

    @pytest.mark.parametrize("name, value", [("family", "cubic"), ("hyper", Hyperparams(2.0, [0.5]))])
    def test_kernel_spec_fields_cannot_be_assigned(self, name, value):
        spec = _spec()
        hyper = spec.hyper
        with pytest.raises(FrozenInstanceError):
            setattr(spec, name, value)
        assert (spec.family, spec.hyper) == ("matern52", hyper)


class TestAsCount:
    @pytest.mark.parametrize("value", [3, 7, np.int64(3), np.int32(7), np.uint8(3)], ids=repr)
    def test_python_and_numpy_integers_pass_as_int(self, value):
        count = as_count("n", value, 3)
        assert count == value and type(count) is int

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 3.0, np.float64(3.0), 2.5, "3", None], ids=repr)
    def test_bools_and_non_integers_are_refused(self, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'n must be an integer, not {value!r}')}$"):
            as_count("n", value, 0)

    @pytest.mark.parametrize("value, least", [(2, 3), (-1, 0), (np.int64(0), 1)])
    def test_a_smaller_value_is_refused(self, value, least):
        with pytest.raises(ValueError, match=f"^n must be at least {least}$"):
            as_count("n", value, least)


_positive = st.floats(1e-6, 1e6)


@st.composite
def _hyperparams(draw):
    """One shared or per-dimension lengthscales, a zero or positive constant and an unset or set noise,
    the scalars as Python or numpy floats."""
    scalar = draw(st.sampled_from([float, np.float64]))
    lengthscales = draw(st.lists(_positive, min_size=1, max_size=4))
    constant = draw(st.one_of(st.just(0.0), _positive))
    noise = draw(st.one_of(st.none(), _positive))
    return Hyperparams(
        scalar(draw(_positive)), np.array(lengthscales), scalar(constant), None if noise is None else scalar(noise)
    )


class TestEntry:
    """``Hyperparams.entry`` and ``from_entry``, the one writer and reader of the fields."""

    @given(hyper=_hyperparams())
    @settings(max_examples=60, deadline=None)
    def test_from_entry_inverts_entry(self, hyper):
        back = Hyperparams.from_entry(hyper.entry())
        assert back.variance == hyper.variance
        np.testing.assert_array_equal(back.lengthscales, hyper.lengthscales)
        assert back.lengthscales.dtype == np.float64
        assert back.constant_variance == hyper.constant_variance
        assert back.noise_variance == hyper.noise_variance

    @given(hyper=_hyperparams())
    @settings(max_examples=60, deadline=None)
    def test_entry_is_plain_json_in_field_order(self, hyper):
        entry = hyper.entry()
        assert list(json.loads(json.dumps(entry, allow_nan=False))) == [
            "variance", "lengthscales", "constant_variance", "noise_variance"
        ]
        assert type(entry["variance"]) is float and type(entry["constant_variance"]) is float
        assert type(entry["lengthscales"]) is list and all(type(v) is float for v in entry["lengthscales"])
        assert entry["noise_variance"] is None or type(entry["noise_variance"]) is float

    def test_absent_constant_and_noise_read_as_zero_and_none(self):
        hyper = Hyperparams.from_entry({"variance": 1.5, "lengthscales": [0.5, 2.0], "other": "ignored"})
        assert (hyper.constant_variance, hyper.noise_variance) == (0.0, None)


class TestKernelSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            _spec(family="cubic")


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
        """A lengthscale count other than 1 or d raises, for a self-Gram and a cross-Gram."""
        spec = _spec(lengthscales=(0.5, 1.0, 2.0))
        for xb in (None, rng.standard_normal((3, 2))):
            with pytest.raises(ValueError, match="^lengthscales have 3 entries for 2-dimensional inputs$"):
                gram(spec, rng.standard_normal((4, 2)), xb)

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
        """One shared lengthscale broadcasts: the same bits as ``d`` equal entries."""
        for dim in (2, 3):
            x, xb = rng.standard_normal((6, dim)), rng.standard_normal((4, dim))
            shared, explicit = _spec(lengthscales=(0.7,)), _spec(lengthscales=(0.7,) * dim)
            assert np.array_equal(gram(shared, x), gram(explicit, x))
            assert np.array_equal(gram(shared, x, xb), gram(explicit, x, xb))

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
        whitened = factor.inv @ (K + 0.1 * np.eye(5)) @ factor.inv.T
        np.testing.assert_allclose(whitened, np.eye(5), atol=1e-12)

    def test_ladder_escalates_for_rank_deficient(self):
        """The jitter is a ladder step times the mean diagonal, here the variance 1.3."""
        x = np.array([0.0, 0.0, 1.0])  # duplicate point forces singularity
        K = gram(_spec(), x)
        factor = stable_cholesky(K)
        assert factor.jitter_used in [step * (np.trace(K) / 3) for step in JITTER_LADDER]
        assert factor.jitter_used > 0.0
        jittered = K + factor.jitter_used * np.eye(3)
        np.testing.assert_allclose(factor.inv @ jittered @ factor.inv.T, np.eye(3), atol=1e-10)

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
        assert factor.logdet == pytest.approx(ref, rel=1e-12)

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


@st.composite
def _spd_systems(draw):
    """An SPD matrix on either side of the inversion leaf, and a 1-D or 2-D right-hand side.

    ``graded`` spreads the spectrum over up to twelve decades and factorizes
    without jitter; ``repeated`` repeats half of the inputs of a Gram matrix,
    which is singular, so the ladder adds jitter.
    """
    m = draw(st.sampled_from([1, INV_LEAF - 1, INV_LEAF, INV_LEAF + 1, 65, 130]))
    kind = draw(st.sampled_from(["wishart", "graded", "repeated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "wishart":
        a = rng.standard_normal((m, m + 2))
        matrix = a @ a.T / m
    elif kind == "graded":
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        matrix = (q * np.logspace(0, -draw(st.integers(0, 12)), m)) @ q.T
    else:
        x = rng.uniform(-3, 3, (m, 2))
        x[m // 2 :] = x[: m - m // 2]
        matrix = gram(_spec(lengthscales=(draw(st.sampled_from([0.3, 1.0, 3.0])),)), x)
    shape = (m,) if draw(st.booleans()) else (m, draw(st.integers(1, 5)))
    return kind, matrix, rng.standard_normal(shape)


class TestCachedInverse:
    """Solves through the inverse factor, against LAPACK substitution."""

    @settings(max_examples=60, deadline=None)
    @given(_spd_systems())
    def test_solves_match_substitution(self, system):
        kind, matrix, rhs = system
        factor = stable_cholesky(matrix)
        if kind == "repeated" and len(matrix) > 1:
            assert factor.jitter_used > 0.0
        for got, ref in (
            (factor.solve(rhs), solve_by_substitution(matrix, factor.jitter_used, rhs)),
            (factor.half_solve(rhs), half_solve_by_substitution(matrix, factor.jitter_used, rhs)),
        ):
            assert got.shape == rhs.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("m", [INV_LEAF, INV_LEAF + 1, 100])
    def test_inverse_is_lower_triangular(self, rng, m):
        a = rng.standard_normal((m, m))
        matrix = a @ a.T + m * np.eye(m)
        factor = stable_cholesky(matrix)
        assert not np.any(np.triu(factor.inv, 1))
        np.testing.assert_allclose(factor.inv @ matrix @ factor.inv.T, np.eye(m), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [1, INV_LEAF - 1, INV_LEAF, INV_LEAF + 1, 65, 130, 300])
    def test_in_place_inverse_matches_the_out_of_place_recursion(self, rng, m):
        a = rng.standard_normal((m, m + 2))
        matrix = a @ a.T / m + np.eye(m)
        factor = stable_cholesky(matrix)
        assert factor.jitter_used == 0.0
        assert np.array_equal(factor.inv, lower_inverse_out_of_place(np.linalg.cholesky(matrix)))

    def test_factorization_allocates_no_second_triangle(self, rng):
        """The triangle is inverted where it lies: one M x M array plus the block products.

        That peaks at 1.75 M x M arrays; a fresh array for the inverse takes it to 2.75.
        """
        m = 300
        a = rng.standard_normal((m, m + 2))
        matrix = a @ a.T / m + np.eye(m)
        stable_cholesky(matrix)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stable_cholesky(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * m * m * 8

    def test_inverse_is_built_at_factorization_and_kept(self, rng):
        matrix = gram(_spec(), rng.standard_normal((6, 1))) + 0.1 * np.eye(6)
        factor = stable_cholesky(matrix)
        assert set(vars(factor)) == {"inv", "logdet", "jitter_used"}
        inv = factor.inv
        np.testing.assert_allclose(inv @ matrix @ inv.T, np.eye(6), rtol=0, atol=1e-13)
        factor.half_solve(rng.standard_normal(6))
        factor.solve(rng.standard_normal((6, 2)))
        assert factor.inv is inv
