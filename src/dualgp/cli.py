"""Command-line harness.

Five subcommands: ``stream`` (sequential fit over an ordered batch stream),
``fit`` (``stream`` with the whole CSV as one batch), ``bo`` (batch Bayesian
optimization on a built-in synthetic objective), ``predict`` (apply a
checkpoint to new inputs), and ``eval`` (score a predictions file against
labels).

Exit codes: 0 on success, 1 on runtime failures (bad data files, numerical
errors), 2 on usage errors (bad flags, bad config).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .acquisition import ExpectedImprovement, fantasize_batch
from .dual import iterate_ngd, make_state, ngd_step
from .harness import (
    ConfigError,
    DataError,
    Standardizer,
    evaluate_state,
    load_csv,
    load_matrix,
    make_kernel,
    make_likelihood,
    make_seq_config,
    make_stream,
    parse_config,
    prediction_table,
    save_checkpoint,
    load_checkpoint,
    score_table,
    write_jsonl,
)
from .likelihoods import Gaussian
from .representation import pivoted_cholesky_select, refresh_representation
from .sequential import run_stream


def _sinebump(x: np.ndarray) -> np.ndarray:
    x0 = x[:, 0]
    return np.sin(3.0 * x0) * np.exp(-0.3 * x0 * x0)


def _neg_branin(x: np.ndarray) -> np.ndarray:
    x1, x2 = x[:, 0], x[:, 1]
    a, b, c = 1.0, 5.1 / (4.0 * np.pi**2), 5.0 / np.pi
    r, s, t = 6.0, 10.0, 1.0 / (8.0 * np.pi)
    value = a * (x2 - b * x1**2 + c * x1 - r) ** 2 + s * (1.0 - t) * np.cos(x1) + s
    return -value


OBJECTIVES = {
    "sinebump": (_sinebump, np.array([[-3.0, 3.0]])),
    "branin": (_neg_branin, np.array([[-5.0, 10.0], [0.0, 15.0]])),
}


def _check_features(path: str, x: np.ndarray, model_features: int) -> None:
    """Raise :class:`DataError` unless ``x``, read from ``path``, has the model's feature count."""
    if x.shape[1] != model_features:
        raise DataError(f"{path} has {x.shape[1]} feature columns but the model has {model_features}")


def _write_run(args, records, state, lik, **extras) -> None:
    """Write ``run_log.jsonl`` and ``checkpoint.json``, with ``extras``, into ``args.out``; print the last record."""
    os.makedirs(args.out, exist_ok=True)
    write_jsonl(os.path.join(args.out, "run_log.jsonl"), records)
    save_checkpoint(os.path.join(args.out, "checkpoint.json"), state, lik, seed=args.seed, **extras)
    print(json.dumps(records[-1]))


def _cmd_stream(args) -> int:
    """The body of ``fit`` and ``stream``.

    Parses the config, splits the training rows into ``args.batches``
    batches, standardizes the inputs on the first batch, runs the stream
    and ends with :func:`_write_run`.  A ``--test`` file must have the
    training file's feature names in the same order; otherwise
    :class:`DataError` names both files and both lists.
    """
    config = parse_config(args.config)
    x, y, names = load_csv(args.data, args.label)
    batches = make_stream(x, y, args.batches, order=args.order, sort_dim=args.sort_dim, seed=args.seed)
    standardizer = None
    if config.standardize_inputs:
        standardizer = Standardizer.fit(batches[0][0])
        batches = [(standardizer.transform(bx), by) for bx, by in batches]

    x_test = y_test = None
    if args.test:
        x_test, y_test, test_names = load_csv(args.test, args.label)
        _check_features(args.test, x_test, x.shape[1])
        if test_names != names:
            raise DataError(f"{args.test} has the feature columns {test_names} but {args.data} has {names}; "
                            "--test needs the same names in the same order")
        if standardizer is not None:
            x_test = standardizer.transform(x_test)

    def evaluate(state, lik):
        if x_test is None:
            return {"nlpd": None, "rmse_or_error": None}
        return evaluate_state(state, lik, x_test, y_test)

    kernel, lik = make_kernel(config), make_likelihood(config)
    result = run_stream(batches, kernel, lik, make_seq_config(config), seed=args.seed, evaluate=evaluate)
    _write_run(args, result.records, result.state, result.lik, memory=result.memory, standardizer=standardizer)
    return 0


def _cmd_bo(args) -> int:
    config = parse_config(args.config)
    objective, bounds = OBJECTIVES[args.objective]
    rng = np.random.default_rng(args.seed)
    lik = make_likelihood(config)
    if not isinstance(lik, Gaussian):
        raise ConfigError(f"dualgp bo needs likelihood = {Gaussian.name}, not {config.likelihood!r}")
    kernel = make_kernel(config)

    x_obs = rng.uniform(bounds[:, 0], bounds[:, 1], size=(config.init_points, len(bounds)))
    y_obs = objective(x_obs)
    selection = pivoted_cholesky_select(kernel, x_obs, config.num_inducing)
    state = make_state(kernel, x_obs[selection.indices])
    state, _, _ = iterate_ngd(state, lik, x_obs, y_obs, rho=1.0, max_steps=5)

    records = []
    for iteration in range(args.steps):
        start = time.perf_counter()
        acq = ExpectedImprovement(best=float(y_obs.max()), bounds=bounds)
        points, _ = fantasize_batch(
            state,
            lik,
            acq,
            k=args.batch_size,
            search_budget=config.search_budget,
            seed=int(rng.integers(2**31)),
            refine_steps=config.refine_steps,
            fantasy_sample=config.fantasy_sample,
        )
        values = objective(points)
        y_obs = np.concatenate([y_obs, values])
        state = refresh_representation(state, points, config.num_inducing)
        state = ngd_step(state, lik, points, values, 1.0, state.alpha_u, state.b_u)
        records.append(
            {
                "iteration": iteration,
                "proposed": points.tolist(),
                "observed": values.tolist(),
                "best_so_far": float(y_obs.max()),
                "wall_ms": 1000.0 * (time.perf_counter() - start),
                "seed": args.seed,
            }
        )

    _write_run(args, records, state, lik)
    return 0


def _cmd_predict(args) -> int:
    state, lik, _, _, standardizer = load_checkpoint(args.checkpoint)
    x, header = load_matrix(args.data)
    if args.label in header:
        x = np.delete(x, header.index(args.label), axis=1)
    _check_features(args.data, x, state.z.shape[1])
    if standardizer is not None:
        x = standardizer.transform(x)
    table = prediction_table(state, lik, x)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table)
        writer.writerows(zip(*(map(repr, column.tolist()) for column in table.values())))
    return 0


def _cmd_eval(args) -> int:
    preds, names = load_matrix(args.predictions)
    _, y, _ = load_csv(args.data, args.label)
    print(json.dumps(score_table(dict(zip(names, preds.T)), y)))
    return 0


def _int_at_least(low: int):
    """The argparse type of an integer of at least ``low``; argparse names it ``integer`` in its messages."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgp", description="Streaming sparse GP regression/classification harness"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", default=None, help="INI config file")
    run.add_argument("--seed", type=_int_at_least(0), default=0, help="random seed, an integer >= 0")
    run.add_argument("--out", required=True, help="output directory")

    data = argparse.ArgumentParser(add_help=False, parents=[run])
    data.add_argument("--data", required=True, help="training CSV with a header row")
    data.add_argument("--label", required=True, help="name of the label column")
    data.add_argument("--test", default=None, help="held-out CSV for metrics")

    fit = sub.add_parser("fit", parents=[data], help="offline fit on a CSV data set: a stream of one batch")
    fit.set_defaults(func=_cmd_stream, batches=1, order="as_is", sort_dim=0)

    stream = sub.add_parser("stream", parents=[data], help="sequential fit over a batch stream")
    stream.add_argument("--batches", type=_int_at_least(1), required=True)
    stream.add_argument("--order", choices=["as_is", "sorted", "shuffled"], default="as_is")
    stream.add_argument("--sort-dim", type=_int_at_least(0), default=0, dest="sort_dim")
    stream.set_defaults(func=_cmd_stream)

    bo = sub.add_parser("bo", parents=[run], help="batch Bayesian optimization on a synthetic objective")
    bo.add_argument("--objective", choices=sorted(OBJECTIVES), required=True)
    bo.add_argument("--steps", type=_int_at_least(1), default=10)
    bo.add_argument("--batch-size", type=_int_at_least(1), default=1, dest="batch_size")
    bo.set_defaults(func=_cmd_bo)

    pred = sub.add_parser("predict", help="apply a checkpoint to new inputs")
    pred.add_argument("--checkpoint", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--label", default=None, help="label column to drop, if present")
    pred.add_argument("--out", required=True, help="output predictions CSV")
    pred.set_defaults(func=_cmd_predict)

    ev = sub.add_parser("eval", help="score a predictions CSV against labels")
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--label", required=True)
    ev.set_defaults(func=_cmd_eval)

    return parser


def run_cli(argv=None) -> int:
    """Parse and dispatch; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
