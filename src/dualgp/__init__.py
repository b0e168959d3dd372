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

from .kernels import (
    FactorizationFailed,
    Hyperparams,
    KernelSpec,
    gram,
    gram_diag,
    stable_cholesky,
)
from .likelihoods import BernoulliLogit, Gaussian, SiteValues
from .dual import (
    DualState,
    compute_sites,
    elbo,
    iterate_ngd,
    make_state,
    ngd_step,
    predict,
    recover_moments,
    state_from_dict,
    state_to_dict,
)
from .representation import (
    PivotSelection,
    pivoted_cholesky_select,
    project_duals,
    refresh_representation,
)
from .memory import MemorySet, bls, empty_memory, update_memory
from .sequential import (
    AdjustedPrior,
    SequentialConfig,
    StreamResult,
    fit_offline,
    hyper_objective,
    optimize_hypers,
    process_batch,
    remove_memory,
    run_stream,
    seq_objective,
)
from .acquisition import (
    ExpectedImprovement,
    ProbabilityOfValidity,
    ProductAcquisition,
    expected_improvement,
    fantasize_batch,
    probability_of_validity,
)
from .harness import (
    ConfigError,
    DataError,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    RunConfig,
    Standardizer,
    evaluate_state,
    load_csv,
    load_matrix,
    make_stream,
    nlpd,
    parse_config,
)

__version__ = "0.1.0"

__all__ = [
    "FactorizationFailed",
    "Hyperparams",
    "KernelSpec",
    "gram",
    "gram_diag",
    "stable_cholesky",
    "BernoulliLogit",
    "Gaussian",
    "SiteValues",
    "DualState",
    "compute_sites",
    "elbo",
    "iterate_ngd",
    "make_state",
    "ngd_step",
    "predict",
    "recover_moments",
    "state_from_dict",
    "state_to_dict",
    "PivotSelection",
    "pivoted_cholesky_select",
    "project_duals",
    "refresh_representation",
    "MemorySet",
    "bls",
    "empty_memory",
    "update_memory",
    "AdjustedPrior",
    "SequentialConfig",
    "StreamResult",
    "fit_offline",
    "hyper_objective",
    "optimize_hypers",
    "process_batch",
    "remove_memory",
    "run_stream",
    "seq_objective",
    "ExpectedImprovement",
    "ProbabilityOfValidity",
    "ProductAcquisition",
    "expected_improvement",
    "fantasize_batch",
    "probability_of_validity",
    "ConfigError",
    "DataError",
    "EmptyFile",
    "MissingColumn",
    "NonNumericCell",
    "RunConfig",
    "Standardizer",
    "evaluate_state",
    "load_csv",
    "load_matrix",
    "make_stream",
    "nlpd",
    "parse_config",
    "__version__",
]
