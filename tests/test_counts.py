"""Every scalar the public API takes is checked: counts by as_count, reals by as_real.

A count is an integer, not a bool, of at least its minimum: each entry point
refuses 2.5, True and a value below the minimum with a ValueError naming the
count, and gives a numpy integer the result of the Python one.  A real is a
finite real number, not a bool, in its range: each entry point refuses True,
a string, NaN, inf and a value just outside the range with a ValueError
naming it, and gives np.float32, np.int64 and int the result of the Python
float, stored as a float.  The checkpoint ``seed`` and kernel fields are
covered in test_harness.py, the config fields in its config tables, and
``SequentialConfig``'s counts in test_sequential.py.
"""

import inspect
import math
import types
import typing

import numpy as np
import pytest

import dualgp
from dualgp.acquisition import ExpectedImprovement, fantasize_batch
from dualgp.dual import iterate_ngd, make_state, ngd_step
from dualgp.harness import NonNumericCell, make_stream
from dualgp.kernels import Hyperparams, KernelSpec
from dualgp.likelihoods import BernoulliLogit, Gaussian
from dualgp.representation import pivoted_cholesky_select, refresh_representation
from dualgp.sequential import SequentialConfig, Stream, hyper_objective, run_stream

SPEC = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
X = np.linspace(-2.0, 2.0, 8)[:, None]
Y = np.sin(X[:, 0])
CONFIG = SequentialConfig(3, memory_capacity=2)


def _state():
    return ngd_step(make_state(SPEC, X[::2]), Gaussian(0.1), X, Y, rho=1.0)


def _fantasize(**counts):
    acq = ExpectedImprovement(best=float(Y.max()), bounds=np.array([[-2.0, 2.0]]))
    counts = {"k": 2, "search_budget": 16, "refine_steps": 2, "seed": 1, **counts}
    return fantasize_batch(_state(), Gaussian(0.1), acq, **counts)[0]


def _iterate(max_steps=3, rho=0.5, tol=1e-8):
    state, steps, converged = iterate_ngd(
        make_state(SPEC, X[::2]), Gaussian(0.1), X, Y, rho=rho, max_steps=max_steps, tol=tol
    )
    return state.alpha_u, steps, converged


def _stream(seed):
    stream = run_stream(make_stream(X, Y, 2), SPEC, Gaussian(0.1), CONFIG, seed=seed)
    return stream.seed, stream.memory.inputs


def _hyper_objective(n_old):
    return hyper_objective(_state(), Gaussian(0.1), X, Y, X[:3], Y[:3], n_old, SPEC.hyper)[0]


# (id, the callable that takes the count, the count's name, its minimum, a
# valid value, a call that passes the count and returns what it made)
ENTRY_POINTS = [
    ("quad_points", BernoulliLogit, "quad_points", 2, 3, lambda n: BernoulliLogit(quad_points=n).quad_points),
    ("fantasize_batch_k", fantasize_batch, "k", 1, 2, lambda n: _fantasize(k=n)),
    ("fantasize_batch_search_budget", fantasize_batch, "search_budget", 1, 16, lambda n: _fantasize(search_budget=n)),
    ("fantasize_batch_refine_steps", fantasize_batch, "refine_steps", 0, 2, lambda n: _fantasize(refine_steps=n)),
    ("fantasize_batch_seed", fantasize_batch, "seed", 0, 3, lambda n: _fantasize(seed=n)),
    ("make_stream_num_batches", make_stream, "num_batches", 1, 3, lambda n: make_stream(X, Y, n)),
    (
        "make_stream_sort_dim", make_stream, "sort_dim", 0, 1,
        lambda n: make_stream(np.column_stack([X, -X, X]), Y, 2, order="sorted", sort_dim=n),
    ),
    ("make_stream_seed", make_stream, "seed", 0, 3, lambda n: make_stream(X, Y, 2, order="shuffled", seed=n)),
    ("pivoted_cholesky_select", pivoted_cholesky_select, "max_points", 0, 3,
     lambda n: pivoted_cholesky_select(SPEC, X, n).indices),
    ("refresh_representation", refresh_representation, "max_points", 0, 3,
     lambda n: refresh_representation(_state(), X + 0.1, n).z),
    ("iterate_ngd", iterate_ngd, "max_steps", 0, 3, _iterate),
    ("run_stream_seed", run_stream, "seed", 0, 3, _stream),
    ("hyper_objective_n_old", hyper_objective, "n_old", 0, 5, _hyper_objective),
    ("stream_start_dim", Stream.start, "dim", 0, 2, lambda n: Stream.start(SPEC, Gaussian(0.1), CONFIG, n).state.z),
    ("stream_start_seed", Stream.start, "seed", 0, 3, lambda n: Stream.start(SPEC, Gaussian(0.1), CONFIG, 1, n).seed),
]

# A string each of these counts has been handed in place of an integer.
COUNT_STRINGS = {"pivoted_cholesky_select": ["3"], "make_stream_sort_dim": ["0"]}


def _count_refusals():
    for entry, _, name, least, _, call in ENTRY_POINTS:
        for value in [2.5, True, least - 1, *COUNT_STRINGS.get(entry, ())]:
            yield pytest.param(name, call, value, id=f"{entry}={value!r}")


@pytest.mark.parametrize("name, call, value", _count_refusals())
def test_a_count_that_is_not_an_integer_of_its_minimum_is_refused(name, call, value):
    with pytest.raises(ValueError, match=name):
        call(value)


@pytest.mark.parametrize(
    "valid, call", [pytest.param(valid, call, id=entry) for entry, _, _, _, valid, call in ENTRY_POINTS]
)
def test_a_numpy_integer_counts_as_the_python_integer(valid, call):
    np.testing.assert_equal(call(np.int64(valid)), call(valid))


def test_no_ngd_steps_return_the_input_state():
    state = make_state(SPEC, X[::2])
    assert iterate_ngd(state, Gaussian(0.1), X, Y, rho=0.5, max_steps=0) == (state, 0, False)


TINY = math.nextafter(0.0, -1.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)

# (id, the callable that takes the real, the real's name, values just outside
# its range, a call that passes the real and returns what it stored or made).
# 1.0 lies in every range.
REALS = [
    ("hyperparams_variance", Hyperparams, "variance", [0.0], lambda v: Hyperparams(v, [1.0]).variance),
    ("hyperparams_lengthscales", Hyperparams, "lengthscales", [0.0], lambda v: Hyperparams(1.0, [v]).lengthscales),
    (
        "hyperparams_constant_variance", Hyperparams, "constant_variance", [TINY],
        lambda v: Hyperparams(1.0, [1.0], constant_variance=v).constant_variance,
    ),
    (
        "hyperparams_noise_variance", Hyperparams, "noise_variance", [0.0],
        lambda v: Hyperparams(1.0, [1.0], noise_variance=v).noise_variance,
    ),
    ("gaussian_noise_variance", Gaussian, "noise_variance", [0.0], lambda v: Gaussian(v).noise_variance),
    (
        "sequential_config_ngd_rho", SequentialConfig, "ngd_rho", [0.0, ABOVE_ONE],
        lambda v: SequentialConfig(3, ngd_rho=v).ngd_rho,
    ),
    (
        "sequential_config_hyper_lr", SequentialConfig, "hyper_lr", [0.0],
        lambda v: SequentialConfig(3, hyper_lr=v).hyper_lr,
    ),
    (
        "ngd_step_rho", ngd_step, "rho", [TINY, ABOVE_ONE],
        lambda v: ngd_step(_state(), Gaussian(0.1), X, Y, rho=v).alpha_u,
    ),
    ("iterate_ngd_rho", iterate_ngd, "rho", [TINY, ABOVE_ONE], lambda v: _iterate(rho=v)),
    ("iterate_ngd_tol", iterate_ngd, "tol", [TINY], lambda v: _iterate(tol=v)),
    (
        "expected_improvement_best", ExpectedImprovement, "best", [-math.inf],
        lambda v: ExpectedImprovement(best=v, bounds=np.array([[-2.0, 2.0]])).best,
    ),
]


def _real_refusals():
    for entry, _, name, outside, call in REALS:
        for value in [True, "0.5", math.nan, math.inf, *outside]:
            yield pytest.param(name, call, value, id=f"{entry}={value!r}")


@pytest.mark.parametrize("name, call, value", _real_refusals())
def test_a_real_that_is_not_a_finite_number_in_its_range_is_refused(name, call, value):
    with pytest.raises(ValueError, match=name):
        call(value)


@pytest.mark.parametrize("rho", [True, "a", math.nan, math.inf, TINY, ABOVE_ONE])
def test_iterate_ngd_checks_rho_before_its_first_step(rho):
    """``rho`` is refused also when ``max_steps=0`` lets no ``ngd_step`` check it."""
    with pytest.raises(ValueError, match="rho"):
        iterate_ngd(make_state(SPEC, X[::2]), Gaussian(0.1), X, Y, rho=rho, max_steps=0)


@pytest.mark.parametrize("value", [np.float32(1.0), np.int64(1), 1], ids=["float32", "int64", "int"])
@pytest.mark.parametrize("call", [pytest.param(call, id=entry) for entry, _, _, _, call in REALS])
def test_a_real_of_another_type_counts_as_the_python_float(call, value):
    want, got = call(1.0), call(value)
    np.testing.assert_equal(got, want)
    assert type(got) is type(want)
    if isinstance(want, float | np.ndarray):
        assert np.asarray(got).dtype == np.float64


# Scalar parameters of the public API that neither table takes, each with why.
EXEMPT = {
    **{
        (SequentialConfig, name): "a count, refused as these are in test_sequential.py::TestSequentialConfig"
        for name in ("num_inducing", "ngd_steps", "memory_capacity", "hyper_steps")
    },
    (fantasize_batch, "fantasy_sample"): "a flag: any truth value picks sampled over mean fantasies",
    (Stream, "seed"): "Stream's fields are built by Stream.start, which checks the seed, and by step",
    (Stream, "n_old"): "counted by step from the batches it took",
    (Stream, "clip_count"): "counted by step",
    (Stream, "clip_max"): "measured by step",
    (NonNumericCell, "row"): "an error's report of the data row that load_matrix could not parse",
}


def _public_callables():
    """The functions of ``dualgp.__all__``, and its classes with their public methods."""
    for name in dualgp.__all__:
        obj = getattr(dualgp, name)
        if inspect.isclass(obj):
            yield obj, obj.__init__
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and isinstance(member, types.FunctionType | classmethod | staticmethod):
                    yield getattr(obj, attr), getattr(obj, attr)
        elif callable(obj):
            yield obj, obj


def _scalar_parameters():
    """Every (callable, parameter) of :func:`_public_callables` annotated int, float or bool, optionally with None."""
    scalars = {int, float, bool}
    for obj, function in _public_callables():
        for parameter, hint in typing.get_type_hints(function).items():
            if isinstance(hint, types.UnionType):
                hint, *more = set(typing.get_args(hint)) - {type(None)}
                if more:
                    continue
            if parameter != "return" and hint in scalars:
                yield obj, parameter


def test_every_scalar_parameter_of_the_public_api_is_checked_or_exempt():
    found = set(_scalar_parameters())
    checked = {(owner, name) for _, owner, name, *_ in ENTRY_POINTS + REALS}
    unchecked = sorted(f"{owner.__qualname__}.{name}" for owner, name in found - checked - EXEMPT.keys())
    assert not unchecked, f"add these to ENTRY_POINTS, REALS or EXEMPT: {unchecked}"
    assert EXEMPT.keys() <= found - checked
