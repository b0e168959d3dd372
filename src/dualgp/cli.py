"""Command-line harness.

Five subcommands: ``fit`` (offline fit on one CSV), ``stream`` (sequential
fit over an ordered batch stream), ``bo`` (batch Bayesian optimization on a
built-in synthetic objective), ``predict`` (apply a checkpoint to new
inputs), and ``eval`` (score a predictions file against labels).

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
from .dual import iterate_ngd, make_state, ngd_step, predict
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
    save_checkpoint,
    load_checkpoint,
    write_jsonl,
)
from .likelihoods import BernoulliLogit, Gaussian
from .representation import pivoted_cholesky_select, refresh_representation
from .sequential import fit_offline, run_stream


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


def _load_labeled(path: str, label: str, standardizer: Standardizer | None):
    x, y, _ = load_csv(path, label)
    if standardizer is not None:
        x = standardizer.transform(x)
    return x, y


def _make_evaluator(x_test, y_test):
    if x_test is None:
        return lambda state, lik: {"nlpd": None, "rmse_or_error": None}
    return lambda state, lik: evaluate_state(state, lik, x_test, y_test)


def _write_run_outputs(out_dir, result, seed, standardizer):
    os.makedirs(out_dir, exist_ok=True)
    write_jsonl(os.path.join(out_dir, "run_log.jsonl"), result.records)
    save_checkpoint(
        os.path.join(out_dir, "checkpoint.json"),
        result.state,
        result.lik,
        memory=result.memory,
        seed=seed,
        standardizer=standardizer,
    )


def _cmd_fit(args) -> int:
    config = parse_config(args.config)
    x, y, _ = load_csv(args.data, args.label)
    standardizer = Standardizer.fit(x) if config.standardize_inputs else None
    if standardizer is not None:
        x = standardizer.transform(x)
    x_test = y_test = None
    if args.test:
        x_test, y_test = _load_labeled(args.test, args.label, standardizer)
    result = fit_offline(
        make_kernel(config),
        make_likelihood(config),
        make_seq_config(config),
        x,
        y,
        seed=args.seed,
        evaluate=_make_evaluator(x_test, y_test),
    )
    _write_run_outputs(args.out, result, args.seed, standardizer)
    print(json.dumps(result.records[-1]))
    return 0


def _cmd_stream(args) -> int:
    config = parse_config(args.config)
    x, y, _ = load_csv(args.data, args.label)
    batches = make_stream(x, y, args.batches, order=args.order, sort_dim=args.sort_dim, seed=args.seed)
    standardizer = None
    if config.standardize_inputs:
        standardizer = Standardizer.fit(batches[0][0])
        batches = [(standardizer.transform(bx), by) for bx, by in batches]
    x_test = y_test = None
    if args.test:
        x_test, y_test = _load_labeled(args.test, args.label, standardizer)
    result = run_stream(
        batches,
        make_kernel(config),
        make_likelihood(config),
        make_seq_config(config),
        seed=args.seed,
        evaluate=_make_evaluator(x_test, y_test),
    )
    _write_run_outputs(args.out, result, args.seed, standardizer)
    print(json.dumps(result.records[-1]))
    return 0


def _cmd_bo(args) -> int:
    config = parse_config(args.config)
    objective, bounds = OBJECTIVES[args.objective]
    rng = np.random.default_rng(args.seed)
    lik = Gaussian(noise_variance=config.noise_variance)
    kernel = make_kernel(config)

    x_obs = rng.uniform(bounds[:, 0], bounds[:, 1], size=(max(config.init_points, 2), len(bounds)))
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
        x_obs = np.vstack([x_obs, points])
        y_obs = np.concatenate([y_obs, values])
        state = refresh_representation(state, points, config.num_inducing)
        state = ngd_step(state, lik, points, values, 1.0, state.alpha_u.copy(), state.b_u.copy())
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

    os.makedirs(args.out, exist_ok=True)
    write_jsonl(os.path.join(args.out, "run_log.jsonl"), records)
    save_checkpoint(os.path.join(args.out, "checkpoint.json"), state, lik, seed=args.seed)
    print(json.dumps(records[-1]))
    return 0


def _cmd_predict(args) -> int:
    state, lik, _, _, standardizer = load_checkpoint(args.checkpoint)
    if args.label:
        x, _, _ = load_csv(args.data, args.label)
    else:
        x, _ = load_matrix(args.data)
    if standardizer is not None:
        x = standardizer.transform(x)
    mean, var = predict(state, x)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        if isinstance(lik, Gaussian):
            writer.writerow(["mean", "variance", "predictive_variance"])
            for m, v in zip(mean, var):
                writer.writerow([repr(float(m)), repr(float(v)), repr(float(v + lik.noise_variance))])
        else:
            prob = lik.predictive_density(np.ones_like(mean), mean, var)
            writer.writerow(["mean", "variance", "p_positive"])
            for m, v, p in zip(mean, var, prob):
                writer.writerow([repr(float(m)), repr(float(v)), repr(float(p))])
    return 0


def _cmd_eval(args) -> int:
    preds, names = load_matrix(args.predictions)
    _, y, _ = load_csv(args.data, args.label)
    if len(preds) != len(y):
        raise DataError(
            f"predictions have {len(preds)} rows but data has {len(y)} labels"
        )
    columns = {name: preds[:, i] for i, name in enumerate(names)}
    if "p_positive" in columns:
        labels = BernoulliLogit.canon_labels(y)
        prob_pos = columns["p_positive"]
        prob_label = np.where(labels > 0, prob_pos, 1.0 - prob_pos)
        out = {
            "nlpd": float(-np.mean(np.log(np.clip(prob_label, 1e-300, None)))),
            "rmse_or_error": float(np.mean(np.where(prob_pos >= 0.5, 1.0, -1.0) != labels)),
        }
    else:
        if "mean" not in columns or "predictive_variance" not in columns:
            raise DataError("predictions need 'mean' and 'predictive_variance' columns")
        mean = columns["mean"]
        total_var = columns["predictive_variance"]
        logp = -0.5 * (np.log(2.0 * np.pi * total_var) + (y - mean) ** 2 / total_var)
        out = {
            "nlpd": float(-np.mean(logp)),
            "rmse_or_error": float(np.sqrt(np.mean((y - mean) ** 2))),
        }
    print(json.dumps(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgp", description="Streaming sparse GP regression/classification harness"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="offline fit on a CSV data set")
    fit.add_argument("--data", required=True, help="training CSV with a header row")
    fit.add_argument("--label", required=True, help="name of the label column")
    fit.add_argument("--config", default=None, help="INI config file")
    fit.add_argument("--test", default=None, help="held-out CSV for metrics")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", required=True, help="output directory")
    fit.set_defaults(func=_cmd_fit)

    stream = sub.add_parser("stream", help="sequential fit over a batch stream")
    stream.add_argument("--data", required=True)
    stream.add_argument("--label", required=True)
    stream.add_argument("--config", default=None)
    stream.add_argument("--test", default=None)
    stream.add_argument("--batches", type=int, required=True)
    stream.add_argument("--order", choices=["as_is", "sorted", "shuffled"], default="as_is")
    stream.add_argument("--sort-dim", type=int, default=0, dest="sort_dim")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--out", required=True)
    stream.set_defaults(func=_cmd_stream)

    bo = sub.add_parser("bo", help="batch Bayesian optimization on a synthetic objective")
    bo.add_argument("--objective", choices=sorted(OBJECTIVES), required=True)
    bo.add_argument("--steps", type=int, default=10)
    bo.add_argument("--batch-size", type=int, default=1, dest="batch_size")
    bo.add_argument("--config", default=None)
    bo.add_argument("--seed", type=int, default=0)
    bo.add_argument("--out", required=True)
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
