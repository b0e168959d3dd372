"""Streaming sparse Gaussian processes in the dual parameterization.

The package fits sparse variational GPs whose posterior is carried by dual
parameters (a vector and a PSD matrix over the inducing points), which makes
three things cheap: processing data as a stream of batches, subtracting the
contribution of remembered points to form an adjusted prior, and conditioning
on fantasized observations for batch Bayesian optimization.

Typical library use::

    from dualgp import (
        Hyperparams, KernelSpec, Gaussian, SequentialConfig, run_stream,
    )

    kernel = KernelSpec("matern52", Hyperparams(1.0, [0.5], noise_variance=0.1))
    config = SequentialConfig(num_inducing=30, memory_capacity=50, hyper_steps=20)
    result = run_stream(batches, kernel, Gaussian(0.1), config, seed=0)

The ``dualgp`` command-line tool (see ``dualgp --help``) wraps the same
engine for CSV data sets.
"""

from .kernels import FactorizationFailed, Hyperparams, KernelSpec, gram, stable_cholesky
from .likelihoods import BernoulliLogit, Gaussian
from .dual import DualState, iterate_ngd, make_state, ngd_step, predict
from .representation import pivoted_cholesky_select, refresh_representation
from .sequential import SequentialConfig, Stream, hyper_objective, run_stream
from .acquisition import ExpectedImprovement, fantasize_batch
from .harness import (
    ConfigError,
    DataError,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    evaluate_state,
    make_stream,
)

__version__ = "0.1.0"

# What the README and the benchmark reach as ``dualgp.<name>``, the result
# types they hold and the errors they catch; everything else is imported
# from its submodule.
__all__ = [
    "FactorizationFailed",
    "Hyperparams",
    "KernelSpec",
    "gram",
    "stable_cholesky",
    "BernoulliLogit",
    "Gaussian",
    "DualState",
    "iterate_ngd",
    "make_state",
    "ngd_step",
    "predict",
    "pivoted_cholesky_select",
    "refresh_representation",
    "SequentialConfig",
    "Stream",
    "hyper_objective",
    "run_stream",
    "ExpectedImprovement",
    "fantasize_batch",
    "ConfigError",
    "DataError",
    "EmptyFile",
    "MissingColumn",
    "NonNumericCell",
    "evaluate_state",
    "make_stream",
    "__version__",
]
