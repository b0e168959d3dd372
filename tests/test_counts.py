"""Every count an entry point takes is an integer, not a bool, of at least its minimum.

Each entry point refuses 2.5, True and a value below the minimum with a
ValueError naming the count, and gives a numpy integer the result of the
Python one.  ``SequentialConfig``'s counts are covered in test_sequential.py
and the checkpoint ``seed`` in test_harness.py.
"""

import numpy as np
import pytest

from dualgp.acquisition import ExpectedImprovement, fantasize_batch
from dualgp.dual import iterate_ngd, make_state, ngd_step
from dualgp.harness import make_stream
from dualgp.kernels import Hyperparams, KernelSpec
from dualgp.likelihoods import BernoulliLogit, Gaussian
from dualgp.representation import pivoted_cholesky_select, refresh_representation

SPEC = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
X = np.linspace(-2.0, 2.0, 8)[:, None]
Y = np.sin(X[:, 0])


def _state():
    return ngd_step(make_state(SPEC, X[::2]), Gaussian(0.1), X, Y, rho=1.0)


def _fantasize(**counts):
    acq = ExpectedImprovement(best=float(Y.max()), bounds=np.array([[-2.0, 2.0]]))
    counts = {"k": 2, "search_budget": 16, "refine_steps": 2, **counts}
    return fantasize_batch(_state(), Gaussian(0.1), acq, seed=1, **counts)[0]


def _iterate(max_steps):
    state, steps, converged = iterate_ngd(make_state(SPEC, X[::2]), Gaussian(0.1), X, Y, rho=0.5, max_steps=max_steps)
    return state.alpha_u, steps, converged


# (id, the count's name, its minimum, a valid value, a call that passes the
# count and returns what it made)
ENTRY_POINTS = [
    ("quad_points", "quad_points", 2, 3, lambda n: BernoulliLogit(quad_points=n).quad_points),
    ("fantasize_batch_k", "k", 1, 2, lambda n: _fantasize(k=n)),
    ("fantasize_batch_search_budget", "search_budget", 1, 16, lambda n: _fantasize(search_budget=n)),
    ("fantasize_batch_refine_steps", "refine_steps", 0, 2, lambda n: _fantasize(refine_steps=n)),
    ("make_stream_num_batches", "num_batches", 1, 3, lambda n: make_stream(X, Y, n)),
    (
        "make_stream_sort_dim", "sort_dim", 0, 1,
        lambda n: make_stream(np.column_stack([X, -X, X]), Y, 2, order="sorted", sort_dim=n),
    ),
    ("pivoted_cholesky_select", "max_points", 0, 3, lambda n: pivoted_cholesky_select(SPEC, X, n).indices),
    ("refresh_representation", "max_points", 0, 3, lambda n: refresh_representation(_state(), X + 0.1, n).z),
    ("iterate_ngd", "max_steps", 0, 3, _iterate),
]


def _refusals():
    for entry, name, least, _, call in ENTRY_POINTS:
        bad = [2.5, True, least - 1] + (["3"] if entry == "pivoted_cholesky_select" else [])
        for value in bad:
            yield pytest.param(name, call, value, id=f"{entry}={value!r}")


@pytest.mark.parametrize("name, call, value", _refusals())
def test_a_count_that_is_not_an_integer_of_its_minimum_is_refused(name, call, value):
    with pytest.raises(ValueError, match=name):
        call(value)


@pytest.mark.parametrize(
    "valid, call", [pytest.param(valid, call, id=entry) for entry, _, _, valid, call in ENTRY_POINTS]
)
def test_a_numpy_integer_counts_as_the_python_integer(valid, call):
    np.testing.assert_equal(call(np.int64(valid)), call(valid))


def test_no_ngd_steps_return_the_input_state():
    state = make_state(SPEC, X[::2])
    assert iterate_ngd(state, Gaussian(0.1), X, Y, rho=0.5, max_steps=0) == (state, 0, False)
