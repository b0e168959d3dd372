"""End-to-end runs of the command line interface, in process via run_cli."""

import csv
import json
import math
import os

import numpy as np
import pytest

from dualgp.cli import run_cli
from dualgp.dual import make_state
from dualgp.harness import save_checkpoint
from dualgp.kernels import Hyperparams, KernelSpec
from dualgp.likelihoods import BernoulliLogit
from test_harness import DAMAGED_CHECKPOINTS, REJECTED_CONFIGS


def _write_regression_csv(path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-3, 3, n))
    y = np.sin(2.0 * x) + 0.05 * rng.standard_normal(n)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y"])
        writer.writerows(zip(x, y))
    return str(path)


def _write_classification_csv(path, n=80, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, (n, 2))
    labels = np.where(x[:, 0] + 0.5 * x[:, 1] > 0, 1, 0)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x1", "x2", "y"])
        writer.writerows(np.column_stack([x, labels]).tolist())
    return str(path)


def _write_config(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def fast_config(tmp_path):
    return _write_config(
        tmp_path / "fast.ini",
        "[stream]\nnum_inducing = 15\nhyper_steps = 2\nngd_steps = 2\nmemory_capacity = 10\n",
    )


class TestFit:
    def test_writes_checkpoint_and_log(self, tmp_path, fast_config, capsys):
        data = _write_regression_csv(tmp_path / "train.csv")
        out = str(tmp_path / "run")
        code = run_cli([
            "fit", "--data", data, "--label", "y",
            "--config", fast_config, "--test", data, "--out", out,
        ])
        assert code == 0
        assert os.path.exists(os.path.join(out, "checkpoint.json"))
        record = json.loads(capsys.readouterr().out)
        assert record["n_seen"] == 60
        assert record["rmse_or_error"] < 0.5
        lines = open(os.path.join(out, "run_log.jsonl")).read().splitlines()
        assert json.loads(lines[-1]) == record


def _stream_predict_eval(tmp_path, capsys, data, config, batches):
    """``(stream --test record, predictions header, eval output)`` of one run on ``data``."""
    out = str(tmp_path / "run")
    assert run_cli([
        "stream", "--data", data, "--label", "y", "--batches", batches,
        "--order", "sorted", "--config", config, "--test", data,
        "--out", out,
    ]) == 0
    stream_eval = json.loads(capsys.readouterr().out)

    preds = str(tmp_path / "preds.csv")
    assert run_cli([
        "predict", "--checkpoint", os.path.join(out, "checkpoint.json"),
        "--data", data, "--label", "y", "--out", preds,
    ]) == 0
    with open(preds) as handle:
        header = next(csv.reader(handle))

    assert run_cli(["eval", "--predictions", preds, "--data", data, "--label", "y"]) == 0
    return stream_eval, header, json.loads(capsys.readouterr().out)


class TestStreamPredictEval:
    def test_metrics_agree_across_subcommands(self, tmp_path, fast_config, capsys):
        """eval on predict output reproduces the stream --test metrics, bit for bit.

        Without hyper steps the last state got its ``K_zz`` from a refresh,
        which the checkpoint must rebuild exactly.
        """
        data = _write_regression_csv(tmp_path / "train.csv")
        no_hyper = _write_config(
            tmp_path / "nohyper.ini",
            "[stream]\nnum_inducing = 15\nhyper_steps = 0\nngd_steps = 2\nmemory_capacity = 10\n",
        )
        for config, batches in ((fast_config, "3"), (no_hyper, "4")):
            stream_eval, header, scored = _stream_predict_eval(tmp_path, capsys, data, config, batches)
            assert header == ["mean", "variance", "predictive_variance"]
            assert scored == {key: stream_eval[key] for key in ("nlpd", "rmse_or_error")}, config

    def test_bernoulli_metrics_agree_across_subcommands(self, tmp_path, capsys):
        data = _write_classification_csv(tmp_path / "train.csv")
        config = _write_config(
            tmp_path / "clf.ini",
            "[model]\nlikelihood = bernoulli_logit\n\n"
            "[stream]\nnum_inducing = 20\nhyper_steps = 0\nngd_steps = 4\nmemory_capacity = 12\n",
        )
        stream_eval, header, scored = _stream_predict_eval(tmp_path, capsys, data, config, "4")
        assert header == ["mean", "variance", "p_positive"]
        assert scored == {key: stream_eval[key] for key in ("nlpd", "rmse_or_error")}

    def test_overshooting_hyper_lr_runs_to_finite_theta(self, tmp_path, capsys):
        """At ``hyper_lr = 1000`` a step overflows theta; it is rejected, not raised."""
        data = tmp_path / "train.csv"
        x = np.linspace(-3, 3, 40)
        np.savetxt(data, np.column_stack([x, np.sin(2 * x)]), delimiter=",", header="x,y", comments="")
        config = _write_config(tmp_path / "lr.ini", "[stream]\nhyper_lr = 1000\n")
        out = tmp_path / "run"
        argv = ["stream", "--batches", "4", "--data", str(data), "--label", "y", "--config", config]
        assert run_cli([*argv, "--out", str(out)]) == 0
        kernel = json.loads((out / "checkpoint.json").read_text())["state"]["kernel"]
        theta = [kernel["variance"], *kernel["lengthscales"], kernel["noise_variance"]]
        assert all(math.isfinite(v) and v > 0.0 for v in theta)

    def test_predict_label_flag_is_optional_in_the_data(self, tmp_path, fast_config, capsys):
        """``--label`` drops the column where it is present and reads every column where not."""
        data = _write_regression_csv(tmp_path / "train.csv")
        out = str(tmp_path / "run")
        assert run_cli(["fit", "--data", data, "--label", "y", "--config", fast_config, "--out", out]) == 0
        capsys.readouterr()
        inputs = tmp_path / "inputs.csv"
        with open(data) as src, open(inputs, "w", newline="") as dst:
            csv.writer(dst).writerows(row[:1] for row in csv.reader(src))
        checkpoint = os.path.join(out, "checkpoint.json")

        written = {}
        for name, argv in {
            "labelled": ["--data", data, "--label", "y"],
            "label_flag_without_column": ["--data", str(inputs), "--label", "y"],
            "no_label_flag": ["--data", str(inputs)],
        }.items():
            preds = tmp_path / f"{name}.csv"
            assert run_cli(["predict", "--checkpoint", checkpoint, *argv, "--out", str(preds)]) == 0
            written[name] = preds.read_text()
        assert written["label_flag_without_column"] == written["no_label_flag"]
        assert written["labelled"] == written["no_label_flag"]

    def test_classifier_round_trip(self, tmp_path, capsys):
        data = _write_classification_csv(tmp_path / "train.csv")
        config = _write_config(
            tmp_path / "clf.ini",
            "[model]\nlikelihood = bernoulli_logit\n\n"
            "[stream]\nnum_inducing = 20\nhyper_steps = 0\nngd_steps = 4\nmemory_capacity = 12\n",
        )
        out = str(tmp_path / "run")
        assert run_cli([
            "stream", "--data", data, "--label", "y", "--batches", "2",
            "--config", config, "--out", out,
        ]) == 0
        capsys.readouterr()

        preds = str(tmp_path / "preds.csv")
        assert run_cli([
            "predict", "--checkpoint", os.path.join(out, "checkpoint.json"),
            "--data", data, "--label", "y", "--out", preds,
        ]) == 0
        with open(preds) as handle:
            header = next(csv.reader(handle))
        assert header == ["mean", "variance", "p_positive"]

        assert run_cli(["eval", "--predictions", preds, "--data", data, "--label", "y"]) == 0
        scored = json.loads(capsys.readouterr().out)
        assert scored["rmse_or_error"] <= 0.2
        assert scored["nlpd"] < math.log(2.0)

    def test_confident_classifier_scores(self, tmp_path, capsys):
        """A quadrature sum a rounding step above 1 is written as probability 1, which eval accepts."""
        state = make_state(
            KernelSpec("matern52", Hyperparams(1.0, [1.0])), [[0.0]], alpha_u=[40.0], b_u=[[1e12]]
        )
        checkpoint = str(tmp_path / "checkpoint.json")
        save_checkpoint(checkpoint, state, BernoulliLogit())
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.0,1\n")
        preds = str(tmp_path / "preds.csv")
        assert run_cli(["predict", "--checkpoint", checkpoint, "--data", str(data), "--label", "y", "--out", preds]) == 0
        with open(preds) as handle:
            assert [row[2] for row in csv.reader(handle)] == ["p_positive", "1.0"]
        assert run_cli(["eval", "--predictions", preds, "--data", str(data), "--label", "y"]) == 0
        assert json.loads(capsys.readouterr().out)["nlpd"] >= 0.0


class TestBo:
    def test_iterations_logged_and_best_monotone(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "bo.ini",
            "[stream]\nnum_inducing = 16\n\n"
            "[bo]\nsearch_budget = 128\nrefine_steps = 3\ninit_points = 4\n",
        )
        out = str(tmp_path / "bo_run")
        code = run_cli([
            "bo", "--objective", "sinebump", "--steps", "3",
            "--batch-size", "2", "--config", config, "--seed", "7", "--out", out,
        ])
        assert code == 0
        capsys.readouterr()
        records = [json.loads(line) for line in open(os.path.join(out, "run_log.jsonl"))]
        assert [r["iteration"] for r in records] == [0, 1, 2]
        assert all(len(r["proposed"]) == 2 for r in records)
        best = [r["best_so_far"] for r in records]
        assert best == sorted(best)
        for record in records:
            for point in record["proposed"]:
                assert -3.0 <= point[0] <= 3.0


def _one_and_two_feature_files(tmp_path, standardize):
    """A 2-feature training CSV, a 1-feature CSV and a config setting ``standardize_inputs``."""
    train = _write_classification_csv(tmp_path / "two.csv", n=30)
    one = _write_regression_csv(tmp_path / "one.csv", n=10)
    config = _write_config(
        tmp_path / "c.ini",
        f"[stream]\nnum_inducing = 8\nhyper_steps = 0\n\n[data]\nstandardize_inputs = {standardize}\n",
    )
    return train, one, config


class TestExitCodes:
    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        code = run_cli([
            "fit", "--data", str(tmp_path / "nope.csv"), "--label", "y",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", DAMAGED_CHECKPOINTS)
    def test_damaged_checkpoint_names_file_and_key(self, tmp_path, fast_config, capsys, damage, message):
        data = _write_regression_csv(tmp_path / "train.csv", n=20)
        out = tmp_path / "fit"
        assert run_cli(["fit", "--data", data, "--label", "y", "--config", fast_config, "--out", str(out)]) == 0
        checkpoint = out / "checkpoint.json"
        checkpoint.write_text(damage(checkpoint.read_text()))
        capsys.readouterr()
        code = run_cli([
            "predict", "--checkpoint", str(checkpoint), "--data", data, "--label", "y",
            "--out", str(tmp_path / "preds.csv"),
        ])
        assert code == 1
        assert f"error: {checkpoint}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("standardize", ["true", "false"])
    def test_predict_on_another_feature_count_names_the_file(self, tmp_path, capsys, standardize):
        train, one, config = _one_and_two_feature_files(tmp_path, standardize)
        out = tmp_path / "fit"
        assert run_cli(["fit", "--data", train, "--label", "y", "--config", config, "--out", str(out)]) == 0
        capsys.readouterr()
        preds = tmp_path / "preds.csv"
        code = run_cli([
            "predict", "--checkpoint", str(out / "checkpoint.json"), "--data", one, "--label", "y",
            "--out", str(preds),
        ])
        assert code == 1
        assert f"error: {one} has 1 feature columns but the model has 2" in capsys.readouterr().err
        assert not preds.exists()

    @pytest.mark.parametrize("command", [["fit"], ["stream", "--batches", "2"]], ids=["fit", "stream"])
    @pytest.mark.parametrize("standardize", ["true", "false"])
    def test_test_file_of_another_feature_count_names_the_file(self, tmp_path, capsys, command, standardize):
        train, one, config = _one_and_two_feature_files(tmp_path, standardize)
        out = tmp_path / "run"
        code = run_cli([
            *command, "--data", train, "--label", "y", "--config", config, "--test", one, "--out", str(out),
        ])
        assert code == 1
        assert f"error: {one} has 1 feature columns but the model has 2" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        data = _write_regression_csv(tmp_path / "train.csv", n=10)
        config = _write_config(tmp_path / "bad.ini", "[model]\nbogus_key = 1\n")
        code = run_cli([
            "fit", "--data", data, "--label", "y", "--config", config,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", REJECTED_CONFIGS)
    def test_rejected_config_is_config_error(self, tmp_path, capsys, text, message):
        data = _write_regression_csv(tmp_path / "train.csv", n=10)
        config = _write_config(tmp_path / "bad.ini", text)
        code = run_cli([
            "fit", "--data", data, "--label", "y", "--config", config,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bo", "--objective", "sinebump", "--steps", "0"],
            ["bo", "--objective", "sinebump", "--batch-size", "0"],
            ["stream", "--data", "train.csv", "--label", "y", "--batches", "0"],
        ],
        ids=["steps", "batch_size", "batches"],
    )
    def test_count_flag_below_one_is_usage_error(self, tmp_path, capsys, argv):
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "train.csv", "--label", "y", "--seed", "-2"],
            ["stream", "--data", "train.csv", "--label", "y", "--batches", "2", "--seed", "-1"],
            ["bo", "--objective", "sinebump", "--seed", "-1"],
            ["stream", "--data", "train.csv", "--label", "y", "--batches", "2", "--sort-dim", "-1"],
        ],
        ids=["fit_seed", "stream_seed", "bo_seed", "sort_dim"],
    )
    def test_index_flag_below_zero_is_usage_error(self, tmp_path, capsys, argv):
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sort_dim_beyond_the_inputs_names_the_dimension(self, tmp_path, capsys):
        data = _write_regression_csv(tmp_path / "train.csv", n=10)
        code = run_cli([
            "stream", "--data", data, "--label", "y", "--batches", "2",
            "--order", "sorted", "--sort-dim", "5", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "sort_dim 5 is not an input dimension of 1-dimensional data" in capsys.readouterr().err

    def test_eval_length_mismatch(self, tmp_path, capsys):
        data = _write_regression_csv(tmp_path / "train.csv", n=10)
        preds = tmp_path / "preds.csv"
        preds.write_text("mean,predictive_variance\n0.0,1.0\n")
        code = run_cli(["eval", "--predictions", str(preds), "--data", data, "--label", "y"])
        assert code == 1
        assert "10 labels" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "write, text, column",
        [
            (_write_regression_csv, "mean,predictive_variance\n0.0,1.0\n0.5,0.0\n", "predictive_variance"),
            (_write_classification_csv, "mean,variance,p_positive\n0.0,1.0,0.5\n0.5,1.0,1.5\n", "p_positive"),
        ],
        ids=["nonpositive_variance", "probability_above_one"],
    )
    def test_eval_out_of_range_prediction_is_data_error(self, tmp_path, capsys, write, text, column):
        data = write(tmp_path / "train.csv", n=2)
        preds = tmp_path / "preds.csv"
        preds.write_text(text)
        code = run_cli(["eval", "--predictions", str(preds), "--data", data, "--label", "y"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"data row 1, column {column!r}" in captured.err

    def test_bo_rejects_a_non_gaussian_likelihood(self, tmp_path, capsys):
        config = _write_config(tmp_path / "clf.ini", "[model]\nlikelihood = bernoulli_logit\n")
        code = run_cli([
            "bo", "--objective", "sinebump", "--steps", "1", "--config", config,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "likelihood = gaussian" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["train"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr().out.startswith("dualgp ")
