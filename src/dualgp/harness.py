"""Experiment plumbing: CSV data, streams, scores, configs, checkpoints.

Everything the CLI needs that is not model math lives here.  Data files are
plain RFC-4180 CSV in UTF-8 with a header row; run configuration is an
INI-style file with one ``key = value`` line per :class:`RunConfig` field,
validated fail-fast; checkpoints are JSON (Python's float repr round-trips,
so a save/load cycle is lossless).
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from .acquisition import DEFAULT_REFINE_STEPS, DEFAULT_SEARCH_BUDGET
from .dual import DualState, make_state, predict
from .kernels import FactorizationFailed, Hyperparams, KernelSpec, as_count, as_points
from .likelihoods import DEFAULT_QUAD_POINTS, BernoulliLogit, Gaussian, Likelihood
from .memory import MemorySet
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
    """Load a numeric CSV (a header of distinct names, then data rows) into a matrix.

    The file is read as UTF-8, and a leading byte-order mark is dropped; text
    in another encoding raises :class:`DataError` naming the file.  All cells
    must parse as finite floats; NaN and infinities are rejected with
    :class:`NonNumericCell` (0-based data row index).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = [row for row in csv.reader(handle) if row]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
    if len(rows) < 2:
        raise EmptyFile(f"{path} has no data rows")
    header = [name.strip() for name in rows[0]]
    if len(set(header)) < len(header):
        raise DataError(f"{path} repeats the column {next(n for n in header if header.count(n) > 1)!r}")

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
    ``sort_dim``, stable), or ``shuffled`` (a random permutation: a ``seed``
    reproduces it, while ``seed=None`` draws fresh entropy, so two calls
    give different orders).  Sizes differ by at most one, with earlier
    batches taking the remainder (n=10 into 3 batches gives 4, 3, 3).
    Inputs and labels of different lengths raise :class:`ValueError`, as do
    a ``num_batches`` outside 1 to ``len(y)``, a ``sort_dim`` that is not an
    input dimension and a ``seed`` other than None below 0; all three are
    counts (:func:`~dualgp.kernels.as_count`).
    """
    x = as_points(x)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"{len(x)} input rows but {len(y)} labels")
    if as_count("num_batches", num_batches, 1) > len(y):
        raise ValueError("more batches than data points")
    if seed is not None:
        seed = as_count("seed", seed, 0)
    if order == "as_is":
        idx = np.arange(len(y))
    elif order == "sorted":
        if not 0 <= as_count("sort_dim", sort_dim, -math.inf) < x.shape[1]:
            raise ValueError(f"sort_dim {sort_dim} is not an input dimension of {x.shape[1]}-dimensional data")
        idx = np.argsort(x[:, sort_dim], kind="stable")
    elif order == "shuffled":
        idx = np.random.default_rng(seed).permutation(len(y))
    else:
        raise ValueError(f"unknown order {order!r}; expected as_is, sorted, or shuffled")
    return [(x[part], y[part]) for part in np.array_split(idx, num_batches)]


def prediction_table(state: DualState, lik: Likelihood, x: np.ndarray) -> dict[str, np.ndarray]:
    """The columns ``dualgp predict`` writes for inputs ``x``, by name.

    ``mean`` and ``variance`` are the moments of ``f``, followed by
    ``predictive_variance`` (plus the noise) for a Gaussian or ``p_positive``
    (the positive class's probability) for a Bernoulli likelihood.
    """
    mean, var = predict(state, x)
    if isinstance(lik, Gaussian):
        return {"mean": mean, "variance": var, "predictive_variance": var + lik.noise_variance}
    return {"mean": mean, "variance": var, "p_positive": lik.predictive_density(np.ones_like(mean), mean, var)}


def _require(ok: np.ndarray, column: str, problem: str) -> None:
    """Raise :class:`DataError` at the first data row (0-based) where ``ok`` is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise DataError(f"{problem} at data row {bad[0]}, column {column!r}")


def score_table(table: dict[str, np.ndarray], y: np.ndarray) -> dict:
    """``nlpd`` and ``rmse_or_error`` of a :func:`prediction_table` against labels ``y``.

    With ``p_positive`` a point's NLPD is ``-log`` of its label's probability
    floored at 1e-300, so it saturates at 690.8 where ``p_positive`` rounds
    to 0 or 1 against the label; ``p_positive >= 0.5`` predicts the positive
    class.  Otherwise ``mean`` and ``predictive_variance`` give a Gaussian
    NLPD and the RMSE.  Bad or empty tables raise :class:`DataError`.
    """
    y = np.asarray(y, dtype=np.float64)
    rows = len(next(iter(table.values())))
    if rows != len(y):
        raise DataError(f"predictions have {rows} rows but data has {len(y)} labels")
    if not rows:
        raise DataError("no rows to score")
    if "p_positive" in table:
        prob_pos = table["p_positive"]
        _require((prob_pos >= 0.0) & (prob_pos <= 1.0), "p_positive", "probability outside [0, 1]")
        labels = BernoulliLogit.canon_labels(y)
        logp = np.log(np.clip(np.where(labels > 0, prob_pos, 1.0 - prob_pos), 1e-300, None))
        error = float(np.mean(np.where(prob_pos >= 0.5, 1.0, -1.0) != labels))
    elif "mean" in table and "predictive_variance" in table:
        mean, total_var = table["mean"], table["predictive_variance"]
        _require(total_var > 0.0, "predictive_variance", "nonpositive variance")
        logp = -0.5 * (np.log(2.0 * np.pi * total_var) + (y - mean) ** 2 / total_var)
        error = float(np.sqrt(np.mean((y - mean) ** 2)))
    else:
        raise DataError("predictions need 'mean' and 'predictive_variance' columns")
    return {"nlpd": float(-np.mean(logp)), "rmse_or_error": error}


def evaluate_state(state: DualState, lik: Likelihood, x_test: np.ndarray, y_test: np.ndarray) -> dict:
    """Held-out metrics: :func:`score_table` of the :func:`prediction_table` at ``x_test``.

    ``dualgp eval`` prints the same numbers, bit for bit, for the file
    ``dualgp predict`` writes from the same state and inputs.
    """
    return score_table(prediction_table(state, lik, x_test), y_test)


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
        x = as_points(x)
        if x.shape[1] != len(self.mean):
            raise DataError(f"{x.shape[1]} feature columns, but the standardizer was fit on {len(self.mean)}")
        return (x - self.mean) / self.scale


def _setting(section: str, default):
    """A :class:`RunConfig` field, read from key ``<field name>`` of ``[section]``."""
    return field(default=default, metadata={"section": section})


@dataclass
class RunConfig:
    """Every run-time setting, fed from a config file plus CLI flags.

    Each field is the config key of the same name in its :func:`_setting`
    section, parsed at the field's type; engine defaults come from the engine.
    """

    kernel: str = _setting("model", "matern52")
    variance: float = _setting("model", 1.0)
    lengthscales: tuple[float, ...] = _setting("model", (1.0,))
    constant_variance: float = _setting("model", 0.0)
    noise_variance: float = _setting("model", 0.1)
    likelihood: str = _setting("model", Gaussian.name)
    quad_points: int = _setting("model", DEFAULT_QUAD_POINTS)
    num_inducing: int = _setting("stream", 50)
    ngd_rho: float = _setting("stream", SequentialConfig.ngd_rho)
    ngd_steps: int = _setting("stream", SequentialConfig.ngd_steps)
    memory_capacity: int = _setting("stream", 50)
    hyper_steps: int = _setting("stream", 20)
    hyper_lr: float = _setting("stream", SequentialConfig.hyper_lr)
    standardize_inputs: bool = _setting("data", True)
    search_budget: int = _setting("bo", DEFAULT_SEARCH_BUDGET)
    refine_steps: int = _setting("bo", DEFAULT_REFINE_STEPS)
    fantasy_sample: bool = _setting("bo", False)
    init_points: int = _setting("bo", 5)


# Parsers for the field types that are not their own parser.
_PARSERS = {
    bool: lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
    tuple[float, ...]: lambda raw: tuple(float(part) for part in raw.split(",")),
}


def parse_config(path: str | None) -> RunConfig:
    """Read a UTF-8 INI-style config into a :class:`RunConfig`, failing fast.

    Unknown sections or keys raise :class:`ConfigError`, as do values that do
    not parse at the field's type, settings the run would reject (an unknown
    kernel or likelihood, or a value outside its range), a path that cannot
    be read and text that is not UTF-8; a leading byte-order mark is dropped.
    Inline comments start with ``;`` or ``#``.  ``path=None`` gives defaults.
    """
    config = RunConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle, source=path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason})") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    settings = {f.name: f.metadata["section"] for f in fields(RunConfig)}
    types = get_type_hints(RunConfig)
    updates = {}
    for section in parser.sections():
        if section not in settings.values():
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if settings.get(key) != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                updates[key] = _PARSERS.get(types[key], types[key])(raw)
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"bad value {raw!r} for {key!r} in section [{section}]") from exc
    config = replace(config, **updates)
    try:
        for name, least in (("search_budget", 1), ("init_points", 2), ("refine_steps", 0)):
            as_count(name, getattr(config, name), least)
        make_kernel(config), make_likelihood(config), make_seq_config(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def make_kernel(config: RunConfig) -> KernelSpec:
    """``config``'s kernel family, with :meth:`Hyperparams.from_entry` of its fields (the noise for a Gaussian only).

    A family or value that :class:`KernelSpec` or :class:`Hyperparams` rejects raises :class:`ValueError`.
    """
    noise = config.noise_variance if config.likelihood == Gaussian.name else None
    return KernelSpec(config.kernel, Hyperparams.from_entry({**vars(config), "noise_variance": noise}))


def _likelihood(name: str, settings: dict) -> Likelihood:
    """The likelihood called ``name``, set from a config's fields or a checkpoint entry."""
    if name == Gaussian.name:
        return Gaussian(noise_variance=settings["noise_variance"])
    if name == BernoulliLogit.name:
        return BernoulliLogit(quad_points=settings.get("quad_points", DEFAULT_QUAD_POINTS))
    raise ValueError(f"unknown likelihood {name!r}")


def make_likelihood(config: RunConfig) -> Likelihood:
    """The likelihood named by ``config``; its settings are the fields of the same name."""
    try:
        return _likelihood(config.likelihood, vars(config))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_seq_config(config: RunConfig) -> SequentialConfig:
    return SequentialConfig(**{f.name: getattr(config, f.name) for f in fields(SequentialConfig)})


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
    standardizer back to apply the model to new inputs.  It is not a resumable
    run snapshot: of a :class:`~dualgp.sequential.Stream` it leaves out
    ``config``, ``n_old`` (which scales the memory term), ``records`` (whose
    length is the next batch index), ``clip_count`` and ``clip_max``.  A
    non-finite number raises :class:`ValueError` and writes no file.  The keys
    of version 1, arrays as nested lists (a change needs a new version)::

        format ("dualgp-checkpoint"), version (1), seed
        state: kernel {family, variance, lengthscales, constant_variance,
               noise_variance or null}, z, alpha_u, b_u
        likelihood: name, then noise_variance (gaussian) or quad_points
        memory: null or {inputs, labels, scores}
        standardizer: null or {mean, scale}
    """
    setting = "noise_variance" if isinstance(lik, Gaussian) else "quad_points"
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "state": {
            "kernel": {"family": state.kernel.family, **state.kernel.hyper.entry()},
            "z": state.z.tolist(),
            "alpha_u": state.alpha_u.tolist(),
            "b_u": state.b_u.tolist(),
        },
        "likelihood": {"name": lik.name, setting: getattr(lik, setting)},
        "seed": seed,
        "memory": None if memory is None else {
            "inputs": memory.inputs.tolist(),
            "labels": memory.labels.tolist(),
            "scores": memory.scores.tolist(),
        },
        "standardizer": None if standardizer is None else {
            "mean": standardizer.mean.tolist(),
            "scale": standardizer.scale.tolist(),
        },
    }
    text = json.dumps(payload, allow_nan=False)
    with open(path, "w") as handle:
        handle.write(text)


class _Entry(dict):
    """A checkpoint object that names its file and key path when a key is missing."""

    def __init__(self, path: str, where: str, items: dict):
        super().__init__(items)
        self.path, self.where = path, where

    def __missing__(self, key):
        raise DataError(f"{self.path}: missing key {self.where}{key}")


def _entries(path: str, value, where: str = ""):
    """``value`` with every JSON object wrapped as an :class:`_Entry`; version 1 has none in a list."""
    if isinstance(value, dict):
        return _Entry(path, where, {k: _entries(path, v, f"{where}{k}.") for k, v in value.items()})
    return value


def load_checkpoint(
    path: str,
) -> tuple[DualState, Likelihood, MemorySet | None, int, Standardizer | None]:
    """Inverse of :func:`save_checkpoint`.

    The file is read as UTF-8; a leading byte-order mark is dropped.  The
    kernel entry is read by :meth:`~dualgp.kernels.Hyperparams.from_entry`,
    which holds the field list: absent ``constant_variance`` and
    ``noise_variance`` read as 0 and None.  A file that is not UTF-8 text or
    not valid JSON, lacks a key (named by its path), holds a value of the
    wrong type or shape, a number no float holds (``1e999``) or an asymmetric
    ``b_u`` raises :class:`DataError` naming the file.  So do memory
    ``inputs``, ``labels`` and ``scores`` other than ``(n, d)``, ``(n,)``
    and ``(n,)`` for the model's input dimension ``d``, a standardizer whose
    ``mean`` and ``scale`` are not both 1-D of the model's input dimension or
    whose ``scale`` is not positive, and a ``seed`` that is not a count of at
    least 0 (:func:`~dualgp.kernels.as_count`; ``true`` and ``1.5`` are not).
    """
    def finite(token: str):
        if not math.isfinite(float(token)):
            raise DataError(f"{path}: {token} is not a finite number")
        return int(token) if token.lstrip("-").isdigit() else float(token)
    with open(path, encoding="utf-8-sig") as handle:
        try:
            payload = _entries(path, json.load(handle, parse_constant=finite, parse_float=finite, parse_int=finite))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"{path} has checkpoint version {payload.get('version')!r}, not {CHECKPOINT_VERSION}")
    try:
        saved = payload["state"]
        kernel = KernelSpec(saved["kernel"]["family"], Hyperparams.from_entry(saved["kernel"]))
        state = make_state(kernel, saved["z"], saved["alpha_u"], saved["b_u"])
        lik = _likelihood(payload["likelihood"]["name"], payload["likelihood"])
        memory = standardizer = None
        dim = state.z.shape[1]
        if payload.get("memory") is not None:
            raw = payload["memory"]
            inputs, labels, scores = (np.asarray(raw[key], dtype=np.float64) for key in ("inputs", "labels", "scores"))
            if not inputs.size:
                inputs = inputs.reshape(0, dim)  # JSON writes an empty memory's inputs as []
            if not (labels.ndim == 1 and scores.shape == labels.shape and inputs.shape == (len(labels), dim)):
                raise ValueError(f"memory has inputs of shape {inputs.shape}, labels of shape {labels.shape} and "
                                 f"scores of shape {scores.shape}; the model needs (n, {dim}), (n,) and (n,)")
            memory = MemorySet(inputs, labels, scores)
        if payload.get("standardizer") is not None:
            raw = payload["standardizer"]
            standardizer = Standardizer(
                mean=np.asarray(raw["mean"], dtype=np.float64),
                scale=np.asarray(raw["scale"], dtype=np.float64),
            )
            if not standardizer.mean.shape == standardizer.scale.shape == (dim,):
                raise ValueError(f"standardizer mean and scale need {dim} entries each, one per input dimension")
            if not np.all(standardizer.scale > 0.0):
                raise ValueError("standardizer scale must be positive")
        seed = as_count("seed", payload.get("seed", 0), 0)
    except DataError:
        raise
    except (TypeError, ValueError, FactorizationFailed) as exc:
        raise DataError(f"{path}: {exc}") from exc
    return state, lik, memory, seed, standardizer


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
    "prediction_table",
    "score_table",
    "evaluate_state",
    "parse_config",
    "make_kernel",
    "make_likelihood",
    "make_seq_config",
    "save_checkpoint",
    "load_checkpoint",
    "write_jsonl",
]
