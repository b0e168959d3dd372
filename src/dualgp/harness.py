"""Experiment plumbing: CSV data, streams, metrics, configs, checkpoints.

Everything the CLI needs that is not model math lives here.  Data files are
plain RFC-4180 CSV with a header row; run configuration is an INI-style file
of ``key = value`` lines under sections, validated fail-fast against the
known keys; checkpoints are JSON (Python's float repr round-trips, so a
save/load cycle is lossless).
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .dual import DualState, predict, state_from_dict, state_to_dict
from .kernels import Hyperparams, KernelSpec, as_points
from .likelihoods import BernoulliLogit, Gaussian, Likelihood, likelihood_from_dict
from .memory import MemorySet, empty_memory
from .sequential import SequentialConfig

CHECKPOINT_FORMAT = "dualgp-checkpoint"
CHECKPOINT_VERSION = 1


class DataError(ValueError):
    """Base class for malformed input data."""


class EmptyFile(DataError):
    """The CSV has no header or no data rows."""


class MissingColumn(DataError):
    """A required column is absent from the header."""


class NonNumericCell(DataError):
    """A cell failed to parse as a finite float."""

    def __init__(self, row: int, column: str):
        self.row = row
        self.column = column
        super().__init__(f"non-numeric or non-finite value at data row {row}, column {column!r}")


class ConfigError(ValueError):
    """Unknown key/section or unparsable value in a config file."""


def load_matrix(path: str) -> tuple[np.ndarray, list[str]]:
    """Load a numeric CSV (header plus data rows) into a matrix.

    All cells must parse as finite floats; NaN and infinities are rejected
    with :class:`NonNumericCell` (0-based data row index).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise EmptyFile(f"{path} has no data rows")
    header = [name.strip() for name in rows[0]]

    parsed = np.empty((len(rows) - 1, len(header)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise NonNumericCell(i, f"<row has {len(row)} cells, expected {len(header)}>")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(i, header[j]) from None
            if not math.isfinite(value):
                raise NonNumericCell(i, header[j])
            parsed[i, j] = value
    return parsed, header


def load_csv(path: str, label_column: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Load a numeric CSV into features, labels, and feature column names."""
    parsed, header = load_matrix(path)
    if label_column not in header:
        raise MissingColumn(f"label column {label_column!r} not in header {header}")
    label_idx = header.index(label_column)
    feature_cols = [j for j in range(len(header)) if j != label_idx]
    feature_names = [header[j] for j in feature_cols]
    return parsed[:, feature_cols], parsed[:, label_idx], feature_names


def make_stream(
    x: np.ndarray,
    y: np.ndarray,
    num_batches: int,
    order: str = "as_is",
    sort_dim: int = 0,
    seed: int | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a data set into an ordered list of batches.

    ``order`` is one of ``as_is``, ``sorted`` (ascending by input dimension
    ``sort_dim``, stable), or ``shuffled`` (seeded permutation).  Sizes
    differ by at most one, with earlier batches taking the remainder
    (n=10 into 3 batches gives 4, 3, 3).
    """
    x = as_points(x)
    y = np.asarray(y, dtype=np.float64)
    if num_batches < 1:
        raise ValueError("num_batches must be at least 1")
    if num_batches > len(y):
        raise ValueError("more batches than data points")
    if order == "as_is":
        idx = np.arange(len(y))
    elif order == "sorted":
        idx = np.argsort(x[:, sort_dim], kind="stable")
    elif order == "shuffled":
        idx = np.random.default_rng(seed).permutation(len(y))
    else:
        raise ValueError(f"unknown order {order!r}; expected as_is, sorted, or shuffled")
    return [(x[part], y[part]) for part in np.array_split(idx, num_batches)]


def nlpd(lik: Likelihood, y: np.ndarray, mean: np.ndarray, var: np.ndarray) -> float:
    """Mean negative log predictive density."""
    return float(-np.mean(lik.log_predictive_density(y, mean, var)))


def evaluate_state(
    state: DualState, lik: Likelihood, x_test: np.ndarray, y_test: np.ndarray
) -> dict:
    """Held-out metrics: NLPD plus RMSE (regression) or error rate (classification)."""
    mean, var = predict(state, x_test)
    out = {"nlpd": nlpd(lik, y_test, mean, var)}
    if isinstance(lik, Gaussian):
        out["rmse_or_error"] = float(np.sqrt(np.mean((np.asarray(y_test) - mean) ** 2)))
    else:
        prob_pos = lik.predictive_density(np.ones_like(mean), mean, var)
        predicted = np.where(prob_pos >= 0.5, 1.0, -1.0)
        actual = BernoulliLogit.canon_labels(y_test)
        out["rmse_or_error"] = float(np.mean(predicted != actual))
    return out


@dataclass
class Standardizer:
    """Per-feature affine input scaling, frozen when first fit."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = as_points(x)
        scale = x.std(axis=0)
        scale[scale < 1e-12] = 1.0
        return cls(mean=x.mean(axis=0), scale=scale)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (as_points(x) - self.mean) / self.scale

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Standardizer":
        return cls(
            mean=np.asarray(data["mean"], dtype=np.float64),
            scale=np.asarray(data["scale"], dtype=np.float64),
        )


@dataclass
class RunConfig:
    """Flat bag of every run-time knob, fed from a config file plus CLI flags."""

    kernel_family: str = "matern52"
    variance: float = 1.0
    lengthscales: tuple = (1.0,)
    constant_variance: float = 0.0
    noise_variance: float = 0.1
    likelihood: str = "gaussian"
    quad_points: int = 20
    num_inducing: int = 50
    ngd_rho: float = 0.8
    ngd_steps: int = 2
    memory_capacity: int = 50
    hyper_steps: int = 20
    hyper_lr: float = 1e-2
    fd_step: float = 1e-4
    remove_memory_from_prior: bool = True
    replay_memory: bool = True
    pool_includes_memory: bool = True
    standardize_inputs: bool = True
    search_budget: int = 2048
    refine_steps: int = 20
    fantasy_sample: bool = False
    batch_size: int = 1
    init_points: int = 5


_CONFIG_SCHEMA = {
    "model": {
        "kernel": ("kernel_family", str),
        "variance": ("variance", float),
        "lengthscales": ("lengthscales", "floats"),
        "constant_variance": ("constant_variance", float),
        "noise_variance": ("noise_variance", float),
        "likelihood": ("likelihood", str),
        "quad_points": ("quad_points", int),
    },
    "stream": {
        "num_inducing": ("num_inducing", int),
        "ngd_rho": ("ngd_rho", float),
        "ngd_steps": ("ngd_steps", int),
        "memory_capacity": ("memory_capacity", int),
        "hyper_steps": ("hyper_steps", int),
        "hyper_lr": ("hyper_lr", float),
        "fd_step": ("fd_step", float),
        "remove_memory_from_prior": ("remove_memory_from_prior", "bool"),
        "replay_memory": ("replay_memory", "bool"),
        "pool_includes_memory": ("pool_includes_memory", "bool"),
    },
    "data": {
        "standardize_inputs": ("standardize_inputs", "bool"),
    },
    "bo": {
        "search_budget": ("search_budget", int),
        "refine_steps": ("refine_steps", int),
        "fantasy_sample": ("fantasy_sample", "bool"),
        "batch_size": ("batch_size", int),
        "init_points": ("init_points", int),
    },
}

LIKELIHOODS = (Gaussian.name, BernoulliLogit.name)

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def parse_config(path: str | None) -> RunConfig:
    """Read an INI-style config into a :class:`RunConfig`, failing fast.

    Unknown sections or keys raise :class:`ConfigError`, as do values that do
    not parse at the declared type and unknown likelihood names.  Inline
    comments start with ``;`` or ``#``.  ``path=None`` returns the defaults.
    """
    config = RunConfig()
    if path is None:
        return config
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    updates = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            attr, kind = _CONFIG_SCHEMA[section][key]
            try:
                if kind == "bool":
                    updates[attr] = _BOOL_VALUES[raw.strip().lower()]
                elif kind == "floats":
                    updates[attr] = tuple(float(part) for part in raw.split(","))
                else:
                    updates[attr] = kind(raw)
            except (ValueError, KeyError) as exc:
                raise ConfigError(
                    f"bad value {raw!r} for {key!r} in section [{section}]"
                ) from exc
    if updates.get("likelihood", config.likelihood) not in LIKELIHOODS:
        raise ConfigError(
            f"unknown likelihood {updates['likelihood']!r}; expected one of {LIKELIHOODS}"
        )
    return replace(config, **updates)


def make_kernel(config: RunConfig) -> KernelSpec:
    noise = config.noise_variance if config.likelihood == "gaussian" else None
    return KernelSpec(
        family=config.kernel_family,
        hyper=Hyperparams(
            variance=config.variance,
            lengthscales=np.asarray(config.lengthscales, dtype=np.float64),
            constant_variance=config.constant_variance,
            noise_variance=noise,
        ),
    )


def make_likelihood(config: RunConfig) -> Likelihood:
    if config.likelihood == "gaussian":
        return Gaussian(noise_variance=config.noise_variance)
    if config.likelihood == "bernoulli_logit":
        return BernoulliLogit(quad_points=config.quad_points)
    raise ConfigError(f"unknown likelihood {config.likelihood!r}")


def make_seq_config(config: RunConfig) -> SequentialConfig:
    return SequentialConfig(
        num_inducing=config.num_inducing,
        ngd_rho=config.ngd_rho,
        ngd_steps=config.ngd_steps,
        memory_capacity=config.memory_capacity,
        hyper_steps=config.hyper_steps,
        hyper_lr=config.hyper_lr,
        fd_step=config.fd_step,
        remove_memory_from_prior=config.remove_memory_from_prior,
        replay_memory=config.replay_memory,
        pool_includes_memory=config.pool_includes_memory,
    )


def save_checkpoint(
    path: str,
    state: DualState,
    lik: Likelihood,
    memory: MemorySet | None = None,
    seed: int = 0,
    standardizer: Standardizer | None = None,
) -> None:
    """Write the fitted model to a JSON checkpoint.

    It holds the state, the likelihood, the memory, the seed and the input
    standardizer; ``dualgp predict`` reads the state, likelihood and
    standardizer back to apply the model to new inputs.  It is not a
    resumable run snapshot: the data count that scales the memory term, the
    :class:`SequentialConfig` and the batch index are not saved.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "state": state_to_dict(state),
        "likelihood": lik.to_dict(),
        "seed": seed,
        "memory": None,
        "standardizer": None if standardizer is None else standardizer.to_dict(),
    }
    if memory is not None:
        payload["memory"] = {
            "inputs": memory.inputs.tolist(),
            "labels": memory.labels.tolist(),
            "scores": memory.scores.tolist(),
            "seed": memory.seed,
        }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def load_checkpoint(
    path: str,
) -> tuple[DualState, Likelihood, MemorySet | None, int, Standardizer | None]:
    """Inverse of :func:`save_checkpoint`."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    state = state_from_dict(payload["state"])
    lik = likelihood_from_dict(payload["likelihood"])
    memory = None
    if payload.get("memory") is not None:
        raw = payload["memory"]
        memory = MemorySet(
            inputs=as_points(raw["inputs"]),
            labels=np.asarray(raw["labels"], dtype=np.float64),
            scores=np.asarray(raw["scores"], dtype=np.float64),
            seed=raw.get("seed"),
        )
        if memory.inputs.size == 0:
            memory = empty_memory(state.z.shape[1])
    standardizer = None
    if payload.get("standardizer") is not None:
        standardizer = Standardizer.from_dict(payload["standardizer"])
    return state, lik, memory, int(payload.get("seed", 0)), standardizer


def write_jsonl(path: str, records: list[dict]) -> None:
    """One JSON object per line."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


__all__ = [
    "DataError",
    "EmptyFile",
    "MissingColumn",
    "NonNumericCell",
    "ConfigError",
    "RunConfig",
    "Standardizer",
    "load_csv",
    "load_matrix",
    "make_stream",
    "nlpd",
    "evaluate_state",
    "parse_config",
    "make_kernel",
    "make_likelihood",
    "make_seq_config",
    "save_checkpoint",
    "load_checkpoint",
    "write_jsonl",
]
