"""End-to-end runs of the command line interface, in process via run_cli."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

from dualgp.cli import OBJECTIVES, run_cli
from dualgp.dual import make_state
from dualgp.harness import save_checkpoint
from dualgp.kernels import BLOCK_ENTRIES, Hyperparams, KernelSpec
from dualgp.likelihoods import DEFAULT_QUAD_POINTS, BernoulliLogit
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


def _write_sine_csv(path, n=40, scale=1.0):
    """``n`` evenly spaced ``x`` on [-3, 3] with ``y = scale * sin(2x)``, no noise."""
    x = np.linspace(-3, 3, n)
    np.savetxt(path, np.column_stack([x, scale * np.sin(2 * x)]), delimiter=",", header="x,y", comments="")
    return str(path)


def _write_config(path, text):
    path.write_text(text)
    return str(path)


def _strict_json(text):
    """``json.loads`` that fails on ``NaN``, ``Infinity`` and ``-Infinity``, which JSON does not have."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _run_log(out):
    """The records of ``out/run_log.jsonl``, each line strict JSON."""
    return [_strict_json(line) for line in (out / "run_log.jsonl").read_text().splitlines()]


def _without_wall_ms(records):
    return [{k: v for k, v in record.items() if k != "wall_ms"} for record in records]


@pytest.fixture
def fast_config(tmp_path):
    return _write_config(
        tmp_path / "fast.ini",
        "[stream]\nnum_inducing = 15\nhyper_steps = 2\nngd_steps = 2\nmemory_capacity = 10\n",
    )


def _round_trip(tmp_path, capsys, data, command):
    """``(last run-log record, predictions header, eval output)`` of ``command --test data`` on ``data``.

    The run log's every line and eval's output must be strict JSON.
    """
    out = tmp_path / "run"
    assert run_cli([*command, "--data", data, "--label", "y", "--test", data, "--out", str(out)]) == 0
    record = _run_log(out)[-1]

    preds = str(tmp_path / "preds.csv")
    assert run_cli([
        "predict", "--checkpoint", str(out / "checkpoint.json"),
        "--data", data, "--label", "y", "--out", preds,
    ]) == 0
    with open(preds) as handle:
        header = next(csv.reader(handle))

    capsys.readouterr()
    assert run_cli(["eval", "--predictions", preds, "--data", data, "--label", "y"]) == 0
    return record, header, _strict_json(capsys.readouterr().out)


def _stream_predict_eval(tmp_path, capsys, data, config, batches):
    """:func:`_round_trip` of a sorted ``stream`` of ``batches`` batches."""
    command = ["stream", "--batches", batches, "--order", "sorted", "--config", config]
    return _round_trip(tmp_path, capsys, data, command)


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

    @pytest.mark.parametrize("likelihood", ["gaussian", "bernoulli"])
    def test_fit_is_a_one_batch_stream(self, tmp_path, fast_config, likelihood):
        """``fit`` logs what ``stream --batches 1`` logs, ``wall_ms`` aside, and saves the same checkpoint."""
        if likelihood == "gaussian":
            data, config = _write_regression_csv(tmp_path / "train.csv"), fast_config
        else:
            data = _write_classification_csv(tmp_path / "train.csv")
            config = _write_config(
                tmp_path / "clf.ini",
                "[model]\nlikelihood = bernoulli_logit\n\n"
                "[stream]\nnum_inducing = 20\nhyper_steps = 2\nngd_steps = 2\nmemory_capacity = 12\n",
            )
        logs, checkpoints = [], []
        for command in (["fit"], ["stream", "--batches", "1"]):
            out = tmp_path / command[0]
            assert run_cli([*command, "--data", data, "--label", "y", "--config", config, "--test", data,
                            "--out", str(out)]) == 0
            logs.append(_without_wall_ms(_run_log(out)))
            checkpoints.append((out / "checkpoint.json").read_bytes())
        assert logs[0] == logs[1]
        assert checkpoints[0] == checkpoints[1]
        assert json.loads(checkpoints[0])["memory"]["labels"], "the checkpoint holds the curated memory"

    def test_byte_order_mark_headed_csv_fits_as_without(self, tmp_path, fast_config):
        """A "CSV UTF-8" spreadsheet export starts with a byte-order mark, here before the label's name."""
        plain = tmp_path / "plain.csv"
        x = np.linspace(-3, 3, 30)
        np.savetxt(plain, np.column_stack([np.sin(2 * x), x]), delimiter=",", header="y,x", comments="")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        checkpoints = []
        for data in (plain, marked):
            out = tmp_path / data.stem
            argv = ["fit", "--data", str(data), "--label", "y", "--config", fast_config]
            assert run_cli([*argv, "--out", str(out)]) == 0
            checkpoints.append((out / "checkpoint.json").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_predictions_over_several_blocks_agree(self, tmp_path, capsys):
        """2000 rows at the default M = 50 are four ``predict`` blocks, and still score as the run log says."""
        assert 2000 > 3 * (BLOCK_ENTRIES // 50)
        data = _write_sine_csv(tmp_path / "train.csv", n=2000)
        record, _, scored = _round_trip(tmp_path, capsys, data, ["fit"])
        assert scored == {key: record[key] for key in ("nlpd", "rmse_or_error")}
        assert scored["rmse_or_error"] < 0.05


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
        """The default rule and a 64-node one, far from it, are saved, read back and score as logged."""
        data = _write_classification_csv(tmp_path / "train.csv")
        scores = {}
        for nodes in (DEFAULT_QUAD_POINTS, 64):
            config = _write_config(
                tmp_path / f"clf{nodes}.ini",
                f"[model]\nlikelihood = bernoulli_logit\nquad_points = {nodes}\n\n"
                "[stream]\nnum_inducing = 20\nhyper_steps = 0\nngd_steps = 4\nmemory_capacity = 12\n",
            )
            stream_eval, header, scores[nodes] = _stream_predict_eval(tmp_path, capsys, data, config, "4")
            assert header == ["mean", "variance", "p_positive"]
            assert scores[nodes] == {key: stream_eval[key] for key in ("nlpd", "rmse_or_error")}
            saved = json.loads((tmp_path / "run" / "checkpoint.json").read_text())["likelihood"]
            assert saved == {"name": "bernoulli_logit", "quad_points": nodes}
        assert scores[64]["nlpd"] != scores[DEFAULT_QUAD_POINTS]["nlpd"], "the rule reaches the engine"

    def test_hyper_steps_do_not_depend_on_the_units_of_y(self, tmp_path, capsys):
        """y × 10 with ``variance`` and ``noise_variance`` × 100: the same lengthscales, 100× the variances."""
        kernels = []
        for scale, variance, noise in ((1, 1, 0.1), (10, 100, 10)):
            data = _write_sine_csv(tmp_path / f"train{scale}.csv", scale=scale)
            config = _write_config(
                tmp_path / f"units{scale}.ini", f"[model]\nvariance = {variance}\nnoise_variance = {noise}\n"
            )
            out = tmp_path / f"units{scale}"
            assert run_cli(["stream", "--batches", "2", "--data", data, "--label", "y", "--config", config,
                            "--out", str(out)]) == 0
            kernels.append(json.loads((out / "checkpoint.json").read_text())["state"]["kernel"])
        one, ten = kernels
        np.testing.assert_allclose(ten["lengthscales"], one["lengthscales"], rtol=1e-6)
        np.testing.assert_allclose(
            [ten["variance"], ten["noise_variance"]], [100 * one["variance"], 100 * one["noise_variance"]], rtol=1e-6
        )

    def test_overshooting_hyper_lr_runs_to_finite_theta(self, tmp_path, capsys):
        """At ``hyper_lr = 1000`` a step overflows theta; it is rejected, not raised."""
        data = _write_sine_csv(tmp_path / "train.csv")
        config = _write_config(tmp_path / "lr.ini", "[stream]\nhyper_lr = 1000\n")
        out = tmp_path / "run"
        argv = ["stream", "--batches", "4", "--data", data, "--label", "y", "--config", config]
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


class TestObjectives:
    def test_branin_maxima(self):
        """Branin's three global minima, 0.397887, negated for maximization."""
        objective, bounds = OBJECTIVES["branin"]
        x = np.array([[-np.pi, 12.275], [np.pi, 2.275], [9.42478, 2.475]])
        assert np.all((bounds[:, 0] <= x) & (x <= bounds[:, 1]))
        np.testing.assert_allclose(objective(x), -0.397887, rtol=0, atol=1e-5)


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

    def test_sampled_fantasies_are_seeded(self, tmp_path, capsys):
        """Two ``fantasy_sample = true`` runs of one seed log the same records, ``wall_ms`` aside, in Branin's box."""
        config = _write_config(tmp_path / "sample.ini", "[bo]\nfantasy_sample = true\n")
        logs = []
        for run in ("one", "two"):
            out = tmp_path / run
            assert run_cli(["bo", "--objective", "branin", "--batch-size", "4", "--steps", "2", "--config", config,
                            "--seed", "3", "--out", str(out)]) == 0
            logs.append(_without_wall_ms(_run_log(out)))
        assert logs[0] == logs[1]
        _, bounds = OBJECTIVES["branin"]
        for record in logs[0]:
            proposed = np.array(record["proposed"])
            assert proposed.shape == (4, 2)
            assert np.all((bounds[:, 0] <= proposed) & (proposed <= bounds[:, 1]))


def _option_entries(text):
    """Each option of a ``--help`` text, keyed by its first flag: its invocation and help, whitespace collapsed."""
    entries = re.split(r"^(?=  -)", text, flags=re.M)[1:]
    return {entry.split()[0].rstrip(","): " ".join(entry.split()) for entry in entries}


class TestRunCommands:
    """``fit``, ``stream`` and ``bo`` share their ``--config``, ``--seed`` and ``--out`` flags and their run writer."""

    def test_the_shared_flags_are_described_alike(self, capsys):
        helps = {}
        for command in ("bo", "stream", "fit"):
            assert run_cli([command, "--help"]) == 0
            helps[command] = _option_entries(capsys.readouterr().out)
        for flag in ("--config", "--seed", "--out"):
            assert helps["bo"][flag] == helps["stream"][flag] == helps["fit"][flag]
            assert len(helps["bo"][flag].split()) > 2, f"{flag} has no help text"

    @pytest.mark.parametrize(
        "command",
        [["bo", "--objective", "sinebump", "--steps", "2"], ["stream", "--batches", "2"], ["fit"]],
        ids=["bo", "stream", "fit"],
    )
    def test_the_printed_record_is_the_run_logs_last_line(self, tmp_path, capsys, command):
        config = _write_config(
            tmp_path / "small.ini",
            "[stream]\nnum_inducing = 8\nhyper_steps = 1\nngd_steps = 1\nmemory_capacity = 5\n\n"
            "[bo]\nsearch_budget = 64\nrefine_steps = 2\ninit_points = 4\n",
        )
        if command[0] != "bo":
            command = [*command, "--data", _write_regression_csv(tmp_path / "train.csv", n=20), "--label", "y"]
        out = tmp_path / "run"
        assert run_cli([*command, "--config", config, "--seed", "4", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == (out / "run_log.jsonl").read_text().splitlines()[-1:]
        assert (out / "checkpoint.json").is_file()


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

    def test_data_file_not_in_utf8_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_bytes("température,y\n1,2\n3,4\n".encode("latin-1"))
        code = run_cli(["fit", "--data", str(data), "--label", "y", "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {data} is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command", [["fit"], ["stream", "--batches", "3"]], ids=["fit", "stream"])
    @pytest.mark.parametrize("standardize", ["true", "false"])
    def test_test_file_with_reordered_features_names_both_files(self, tmp_path, capsys, command, standardize):
        """Test columns are matched by name: ``x2, x1`` against training ``x1, x2`` exits 1 and writes nothing,
        while the same features with the label moved to the front score as the training layout does."""
        train, _, config = _one_and_two_feature_files(tmp_path, standardize)
        table = np.loadtxt(train, delimiter=",", skiprows=1)
        swapped, label_first = tmp_path / "swapped.csv", tmp_path / "label_first.csv"
        np.savetxt(swapped, table[:, [1, 0, 2]], delimiter=",", header="x2,x1,y", comments="")
        np.savetxt(label_first, table[:, [2, 0, 1]], delimiter=",", header="y,x1,x2", comments="")

        def run(test, out):
            return run_cli([
                *command, "--data", train, "--label", "y", "--config", config, "--test", str(test), "--out", str(out),
            ])

        assert run(swapped, tmp_path / "swapped") == 1
        message = (f"error: {swapped} has the feature columns ['x2', 'x1'] but {train} has ['x1', 'x2']; "
                   "--test needs the same names in the same order")
        assert message in capsys.readouterr().err
        assert not (tmp_path / "swapped").exists()
        assert run(train, tmp_path / "train") == run(label_first, tmp_path / "label_first") == 0
        logs = [_without_wall_ms(_run_log(tmp_path / out)) for out in ("train", "label_first")]
        assert logs[0] == logs[1] and logs[0][-1]["nlpd"] is not None

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        data = _write_regression_csv(tmp_path / "train.csv", n=10)
        config = _write_config(tmp_path / "bad.ini", "[model]\nbogus_key = 1\n")
        code = run_cli([
            "fit", "--data", data, "--label", "y", "--config", config,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_directory_config_is_config_error(self, tmp_path, capsys):
        data = _write_regression_csv(tmp_path / "train.csv", n=10)
        code = run_cli([
            "fit", "--data", data, "--label", "y", "--config", str(tmp_path),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"config error: cannot read config {tmp_path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_a_count_flag_that_is_no_integer_names_the_integer_type(self, tmp_path, capsys):
        assert run_cli(["bo", "--objective", "sinebump", "--steps", "two", "--out", str(tmp_path / "o")]) == 2
        assert "argument --steps: invalid integer value: 'two'" in capsys.readouterr().err

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

    def test_eval_of_labels_that_mix_zero_and_minus_one_fails(self, tmp_path, capsys):
        """{-1, 0, 1} labels are three classes; eval used to score them as two."""
        data = tmp_path / "labels.csv"
        data.write_text("x,y\n0.0,-1\n1.0,0\n2.0,1\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("mean,variance,p_positive\n0.0,1.0,0.2\n0.0,1.0,0.4\n0.0,1.0,0.9\n")
        code = run_cli(["eval", "--predictions", str(preds), "--data", str(data), "--label", "y"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Bernoulli labels mix 0 and -1" in captured.err

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
