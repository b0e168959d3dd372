"""The package's values: every dataclass is frozen, the arrays they store are read-only, and values that
hold arrays compare by identity."""

import dataclasses
import inspect
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import dualgp
from dualgp.acquisition import ExpectedImprovement
from dualgp.dual import cross_gram, dual_factor, make_state, ngd_step, predict
from dualgp.harness import RunConfig, Standardizer
from dualgp.kernels import Hyperparams, KernelSpec, stable_cholesky
from dualgp.likelihoods import Gaussian
from dualgp.memory import MemorySet
from dualgp.representation import pivoted_cholesky_select
from dualgp.sequential import remove_memory

X = np.array([[0.0, 0.5], [1.0, -0.5], [-1.0, 1.0]])
Y = np.array([0.3, -0.2, 0.8])


def _spec():
    return KernelSpec("matern52", Hyperparams(1.0, [0.7, 1.3]))


def _state():
    """A Gaussian NGD step from the kernel prior on two inducing inputs: the same values at every call."""
    return ngd_step(make_state(_spec(), X[:2].copy()), Gaussian(0.1), X, Y, rho=1.0)


def _memory():
    return MemorySet(inputs=X[1:].copy(), labels=Y[1:].copy(), scores=np.ones(2))


# Each builds a new instance of one engine dataclass that holds an array, of
# the same values at every call.
VALUES = {
    "Hyperparams": lambda: Hyperparams(1.0, [0.5, 1.0]),
    "DualState": _state,
    "CholeskyFactor": lambda: stable_cholesky(np.array([[2.0, 0.5], [0.5, 1.0]])),
    "CrossGram": lambda: cross_gram(_state(), X),
    "GaussianFactor": lambda: dual_factor(_state().kzz, np.ones(2), np.eye(2), np.zeros(2)),
    "MemorySet": _memory,
    "AdjustedPrior": lambda: remove_memory(_state(), Gaussian(0.1), _memory()),
    "ExpectedImprovement": lambda: ExpectedImprovement(0.5, [[0.0, 1.0], [-1.0, 1.0]]),
    "Standardizer": lambda: Standardizer.fit(X),
    "PivotSelection": lambda: pivoted_cholesky_select(_spec(), X, 2),
}

# The arrays each value stores when it is built.
STORED = {
    "DualState": ("z", "alpha_u", "b_u", "keff", "kinv_alpha"),
    "CholeskyFactor": ("inv",),
    "CrossGram": ("kzx", "residual"),
    "GaussianFactor": ("precision", "linear", "_eigvals", "_eigvecs"),
    "MemorySet": ("inputs", "labels", "scores"),
    "Standardizer": ("mean", "scale"),
    "PivotSelection": ("indices",),
}


def _package_dataclasses():
    """Every dataclass defined in a module of the package."""
    modules = [getattr(dualgp, name) for name in dir(dualgp) if inspect.ismodule(getattr(dualgp, name))]
    return {
        cls.__name__: cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    }


class TestFrozen:
    def test_every_dataclass_of_the_package_is_frozen(self):
        classes = _package_dataclasses()
        assert {"RunConfig", "Standardizer", "GaussianFactor", "CholeskyFactor", "PivotSelection"} <= set(classes)
        assert [name for name, cls in classes.items() if not cls.__dataclass_params__.frozen] == []

    @pytest.mark.parametrize("build", [*VALUES.values(), RunConfig], ids=[*VALUES, "RunConfig"])
    def test_each_field_assignment_raises(self, build):
        value = build()
        for field in dataclasses.fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))

    def test_the_reported_writes_fail_at_the_assignment(self):
        """Setting kq's inverse to I and its logdet to 0 moved predict's variance at (0.5, 0.5) from 0.824
        to 1.131; a pivot index and a standardizer's scale could be overwritten, and a zeroed scale made
        transform return NaN."""
        state = make_state(_spec(), X[:2].copy(), np.zeros(2), 0.5 * np.eye(2))
        variance = predict(state, np.full((1, 2), 0.5))[1]
        with pytest.raises(FrozenInstanceError):
            state.kq.inv = np.eye(2)
        with pytest.raises(FrozenInstanceError):
            state.kq.logdet = 0.0
        np.testing.assert_array_equal(predict(state, np.full((1, 2), 0.5))[1], variance)
        with pytest.raises(ValueError, match="read-only"):
            pivoted_cholesky_select(_spec(), X, 2).indices[0] = 1
        std = Standardizer.fit(X)
        with pytest.raises(ValueError, match="read-only"):
            std.scale[0] = 0.0
        assert np.all(np.isfinite(std.transform(X)))


class TestStandardizerRefuses:
    @pytest.mark.parametrize("mean, scale, message", [
        ([[0.0, 1.0]], [[1.0, 1.0]], r"must be 1-D of equal length, not of shapes \(1, 2\) and \(1, 2\)"),
        ([0.0, 1.0], [1.0], r"must be 1-D of equal length, not of shapes \(2,\) and \(1,\)"),
        ([0.0, 1.0], [1.0, 0.0], "scale must be positive and finite"),
        ([0.0, 1.0], [1.0, -2.0], "scale must be positive and finite"),
        ([0.0, 1.0], [1.0, np.inf], "scale must be positive and finite"),
        ([0.0, 1.0], [1.0, np.nan], "scale must be positive and finite"),
        ([np.nan, 1.0], [1.0, 1.0], "mean must be finite"),
    ], ids=["two_d", "unequal", "zero_scale", "negative_scale", "infinite_scale", "nan_scale", "nan_mean"])
    def test_a_mean_and_scale_it_cannot_use(self, mean, scale, message):
        with pytest.raises(ValueError, match=message):
            Standardizer(np.array(mean), np.array(scale))

    def test_it_stores_read_only_float_arrays(self):
        std = Standardizer([0, 1], [1, 2])
        assert std.mean.dtype == std.scale.dtype == np.float64
        assert not (std.mean.flags.writeable or std.scale.flags.writeable)


class TestEquality:
    @pytest.mark.parametrize("build", VALUES.values(), ids=VALUES)
    def test_equal_values_compare_by_identity(self, build):
        """Two instances of equal values used to raise numpy's ambiguous-truth ValueError."""
        one, two = build(), build()
        assert one == one and one != two and not one == two
        assert len({one, two, one}) == 2

    def test_a_kernel_spec_compares_its_hyperparams_by_identity(self):
        hyper = Hyperparams(1.0, [0.5, 1.0])
        assert KernelSpec("matern52", hyper) == KernelSpec("matern52", hyper)
        assert KernelSpec("matern52", hyper) != KernelSpec("matern52", Hyperparams(1.0, [0.5, 1.0]))


class TestReadOnly:
    @pytest.mark.parametrize("name, field", [(name, field) for name, fields in STORED.items() for field in fields])
    def test_an_in_place_write_raises(self, name, field):
        array = getattr(VALUES[name](), field)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1

    def test_a_states_factors_are_read_only(self):
        state = _state()
        for factor in (state.kzz, state.kq):
            with pytest.raises(ValueError, match="read-only"):
                factor.inv[0, 0] = 1.0

    def test_arrays_handed_to_make_state_and_memory_set_are_frozen_in_place(self):
        """The stored arrays are not copied: the caller's own become read-only."""
        z, alpha_u, b_u = X[:2].copy(), np.array([0.1, -0.2]), np.eye(2)
        state = make_state(_spec(), z, alpha_u, b_u)
        assert state.z is z and state.alpha_u is alpha_u and state.b_u is b_u
        inputs, labels, scores = X.copy(), Y.copy(), np.ones(3)
        MemorySet(inputs, labels, scores)
        assert not any(array.flags.writeable for array in (z, alpha_u, b_u, inputs, labels, scores))

    def test_an_array_make_state_converts_stays_the_callers(self):
        """Inputs that are not float64 are stored as a converted copy, and the caller's array stays writable."""
        z = np.array([[0, 1], [1, 0]])
        state = make_state(_spec(), z)
        z[0, 0] = 5
        np.testing.assert_array_equal(state.z, [[0.0, 1.0], [1.0, 0.0]])
