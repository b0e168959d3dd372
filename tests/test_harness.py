"""Data loading, streaming splits, metrics, config parsing, checkpoints."""

import ast
import configparser
import json
import math
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dualgp.dual import make_state, ngd_step, predict
from dualgp.harness import (
    ConfigError,
    DataError,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    RunConfig,
    Standardizer,
    evaluate_state,
    load_checkpoint,
    load_csv,
    load_matrix,
    make_kernel,
    make_likelihood,
    make_seq_config,
    make_stream,
    parse_config,
    prediction_table,
    save_checkpoint,
    score_table,
    write_jsonl,
)
from dualgp.kernels import Hyperparams, KernelSpec
from dualgp.likelihoods import DEFAULT_QUAD_POINTS, BernoulliLogit, Gaussian
from dualgp.memory import MemorySet
from dualgp.sequential import SequentialConfig, Stream


# Configs that parse_config rejects, each with the message it gives.
REJECTED_CONFIGS = [
    pytest.param("[model]\nvariance = -1\n", "^variance must be positive", id="variance"),
    pytest.param("[model]\nnoise_variance = 0\n", "noise_variance must be positive", id="noise"),
    pytest.param("[model]\nkernel = rbf\n", "unknown kernel family 'rbf'", id="kernel"),
    pytest.param("[model]\nvariance = nan\n", "^variance must be positive and finite", id="variance_nan"),
    pytest.param(
        "[model]\nnoise_variance = nan\n", "^noise_variance must be positive and finite", id="noise_nan"
    ),
    pytest.param(
        "[model]\nlengthscales = inf\n", "^lengthscales must be positive and finite", id="lengthscales_inf"
    ),
    pytest.param(
        "[model]\nconstant_variance = inf\n",
        "^constant_variance must be nonnegative and finite",
        id="constant_variance_inf",
    ),
    pytest.param(
        "[model]\nlikelihood = bernoulli_logit\nquad_points = 1\n",
        "quad_points must be at least 2",
        id="quad_points",
    ),
    pytest.param("[stream]\nnum_inducing = 0\n", "num_inducing must be at least 1", id="num_inducing"),
    pytest.param("[stream]\nngd_rho = 1.5\n", r"ngd_rho must lie in \(0, 1\]", id="ngd_rho"),
    pytest.param("[stream]\nngd_rho = 0\n", r"ngd_rho must lie in \(0, 1\]", id="ngd_rho_zero"),
    pytest.param("[stream]\nngd_steps = 0\n", "ngd_steps must be at least 1", id="ngd_steps"),
    pytest.param("[stream]\nhyper_lr = 0\n", "hyper_lr must be positive", id="hyper_lr"),
    pytest.param("[stream]\nhyper_lr = inf\n", "hyper_lr must be positive and finite", id="hyper_lr_inf"),
    pytest.param("[bo]\nsearch_budget = 0\n", "search_budget must be at least 1", id="search_budget"),
    pytest.param("[bo]\ninit_points = 0\n", "init_points must be at least 2", id="init_points"),
    pytest.param("[bo]\nrefine_steps = -3\n", "refine_steps must be at least 0", id="refine_steps"),
    pytest.param("[bo]\nbatch_size = 4\n", r"unknown key 'batch_size' in section \[bo\]", id="batch_size"),
    pytest.param("num_inducing = 3\n", "File contains no section headers", id="no_section"),
    pytest.param(
        "[stream]\nnum_inducing = 3\nnum_inducing = 4\n",
        "option 'num_inducing' in section 'stream' already exists",
        id="duplicate_key",
    ),
]


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_loads_features_and_labels(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5,6\n")
        x, y, names = load_csv(path, "y")
        np.testing.assert_array_equal(x, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(y, [3.0, 6.0])
        assert names == ["a", "b"]

    def test_label_column_anywhere(self, tmp_path):
        path = _write(tmp_path / "d.csv", "y,a\n1,2\n3,4\n")
        x, y, names = load_csv(path, "y")
        np.testing.assert_array_equal(y, [1.0, 3.0])
        assert names == ["a"]

    def test_empty_file_raises(self, tmp_path):
        path = _write(tmp_path / "d.csv", "")
        with pytest.raises(EmptyFile):
            load_csv(path, "y")

    def test_header_only_raises(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,y\n")
        with pytest.raises(EmptyFile):
            load_csv(path, "y")

    def test_missing_label_column_raises(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(MissingColumn, match="'y'"):
            load_csv(path, "y")

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,y\n1,2\nfoo,4\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, "y")
        assert err.value.row == 1
        assert err.value.column == "a"

    def test_nan_cell_rejected(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,y\nnan,2\n")
        with pytest.raises(NonNumericCell):
            load_csv(path, "y")

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path / "d.csv", "a,y\n1,2,3\n")
        with pytest.raises(NonNumericCell):
            load_csv(path, "y")

    def test_repeated_column_raises_naming_the_file_and_column(self, tmp_path):
        """A second ``y`` column would otherwise become a feature beside the label."""
        path = _write(tmp_path / "d.csv", "x,y,y\n1,2,3\n")
        with pytest.raises(DataError, match=f"^{re.escape(path)} repeats the column 'y'$"):
            load_csv(path, "y")

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start the file with a byte-order mark."""
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n")
        x, y, names = load_csv(str(path), "x")
        np.testing.assert_array_equal(x, [[2.0]])
        np.testing.assert_array_equal(y, [1.0])
        assert names == ["y"]

    def test_latin1_file_raises_naming_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("température,y\n1,2\n".encode("latin-1"))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))} is not UTF-8 text"):
            load_csv(str(path), "y")

    def test_load_matrix_keeps_header_order(self, tmp_path):
        path = _write(tmp_path / "d.csv", "c,a,b\n1,2,3\n")
        matrix, header = load_matrix(path)
        assert header == ["c", "a", "b"]
        np.testing.assert_array_equal(matrix, [[1.0, 2.0, 3.0]])


class TestMakeStream:
    def test_remainder_goes_to_early_batches(self):
        x = np.arange(10.0)[:, None]
        batches = make_stream(x, np.arange(10.0), 3)
        assert [len(b[1]) for b in batches] == [4, 3, 3]

    def test_as_is_preserves_order(self):
        x = np.array([3.0, 1.0, 2.0])[:, None]
        batches = make_stream(x, x[:, 0], 3, order="as_is")
        assert [b[0][0, 0] for b in batches] == [3.0, 1.0, 2.0]

    def test_sorted_orders_by_dimension(self):
        x = np.array([[3.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        batches = make_stream(x, np.arange(3.0), 3, order="sorted", sort_dim=0)
        assert [b[0][0, 0] for b in batches] == [1.0, 2.0, 3.0]
        batches = make_stream(x, np.arange(3.0), 3, order="sorted", sort_dim=1)
        assert [b[0][0, 1] for b in batches] == [0.0, 1.0, 2.0]

    def test_shuffle_is_seeded(self):
        x = np.arange(20.0)[:, None]
        a = make_stream(x, x[:, 0], 4, order="shuffled", seed=3)
        b = make_stream(x, x[:, 0], 4, order="shuffled", seed=3)
        c = make_stream(x, x[:, 0], 4, order="shuffled", seed=4)
        np.testing.assert_array_equal(a[0][0], b[0][0])
        assert not np.array_equal(a[0][0], c[0][0])

    def test_labels_travel_with_inputs(self):
        x = np.array([[2.0], [0.0], [1.0]])
        y = np.array([20.0, 0.0, 10.0])
        batches = make_stream(x, y, 3, order="sorted")
        for xs, ys in batches:
            assert ys[0] == pytest.approx(10.0 * xs[0, 0])

    def test_bad_order_raises(self):
        with pytest.raises(ValueError, match="unknown order"):
            make_stream(np.zeros((3, 1)), np.zeros(3), 2, order="random")

    @pytest.mark.parametrize("rows, labels", [(5, 4), (4, 5)])
    def test_inputs_and_labels_of_different_lengths_raise(self, rows, labels):
        with pytest.raises(ValueError, match=f"{rows} input rows but {labels} labels"):
            make_stream(np.zeros((rows, 1)), np.arange(float(labels)), 2)

    def test_no_batches_raises(self):
        with pytest.raises(ValueError, match="num_batches must be at least 1"):
            make_stream(np.zeros((2, 1)), np.zeros(2), 0)

    def test_too_many_batches_raises(self):
        with pytest.raises(ValueError, match="more batches"):
            make_stream(np.zeros((2, 1)), np.zeros(2), 3)

    @pytest.mark.parametrize("sort_dim", [2, 5, -1])
    def test_sort_dim_outside_the_inputs_raises(self, sort_dim):
        with pytest.raises(ValueError, match=f"sort_dim {sort_dim} .* 2-dimensional"):
            make_stream(np.zeros((4, 2)), np.zeros(4), 2, order="sorted", sort_dim=sort_dim)


class TestMetrics:
    def test_gaussian_nlpd_perfect_prediction(self):
        """Exact mean and unit total variance give half log 2 pi per point."""
        y = np.array([1.0, -2.0, 0.3])
        val = score_table({"mean": y, "predictive_variance": np.ones(3)}, y)["nlpd"]
        assert val == pytest.approx(0.5 * math.log(2.0 * math.pi), rel=1e-12)

    def test_bernoulli_nlpd_coin_flip(self):
        val = score_table({"p_positive": np.full(2, 0.5)}, np.array([1.0, -1.0]))["nlpd"]
        assert val == pytest.approx(math.log(2.0), rel=1e-10)

    def test_nlpd_uses_total_variance(self):
        """The Gaussian table adds the noise to the latent variance, and the NLPD reads the sum."""
        state = make_state(KernelSpec("matern52", Hyperparams(1.0, np.array([0.8]))), [[0.0]], alpha_u=[0.2])
        table = prediction_table(state, Gaussian(noise_variance=0.7), np.array([[0.0]]))
        assert list(table) == ["mean", "variance", "predictive_variance"]
        total = table["variance"][0] + 0.7
        assert table["predictive_variance"][0] == total
        expected = 0.5 * (math.log(2 * math.pi * total) + (1.0 - table["mean"][0]) ** 2 / total)
        assert score_table(table, np.array([1.0]))["nlpd"] == pytest.approx(expected, rel=1e-13)

    def test_bernoulli_table_holds_the_class_probability(self, rng):
        state = make_state(
            KernelSpec("matern52", Hyperparams(1.0, np.array([0.8]))), rng.uniform(-2, 2, (4, 1)),
            alpha_u=rng.standard_normal(4),
        )
        x = rng.uniform(-2, 2, (5, 1))
        lik = BernoulliLogit()
        table = prediction_table(state, lik, x)
        mean, var = predict(state, x)
        assert list(table) == ["mean", "variance", "p_positive"]
        assert np.array_equal(table["mean"], mean) and np.array_equal(table["variance"], var)
        assert np.array_equal(table["p_positive"], lik.predictive_density(np.ones(5), mean, var))

    def test_bernoulli_nlpd_saturates(self):
        """A probability that rounds to 0 against the label scores -log 1e-300, not infinity."""
        out = score_table({"p_positive": np.array([1.0, 0.5])}, np.array([0.0, 1.0]))
        assert out["nlpd"] == pytest.approx(0.5 * (-math.log(1e-300) + math.log(2.0)), rel=1e-15)
        assert out["rmse_or_error"] == 0.5

    @pytest.mark.parametrize("lik", [Gaussian(0.1), BernoulliLogit()], ids=["gaussian", "bernoulli"])
    def test_zero_rows_raise(self, lik):
        """Zero rows have no mean score: a run log would hold NaN, which is not JSON."""
        state = make_state(KernelSpec("matern52", Hyperparams(1.0, np.array([0.8]))), [[0.0]], alpha_u=[0.2])
        with pytest.raises(DataError, match="^no rows to score$"):
            evaluate_state(state, lik, np.empty((0, 1)), np.empty(0))

    def test_score_table_needs_mean_and_predictive_variance(self):
        with pytest.raises(DataError, match="'mean' and 'predictive_variance'"):
            score_table({"mean": np.zeros(2), "variance": np.ones(2)}, np.ones(2))

    def test_evaluate_state_regression(self, rng):
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
        x = rng.uniform(-2, 2, (10, 1))
        y = np.sin(x[:, 0])
        lik = Gaussian(0.1)
        state = ngd_step(make_state(spec, x), lik, x, y, rho=1.0)
        out = evaluate_state(state, lik, x, y)
        assert set(out) == {"nlpd", "rmse_or_error"}
        assert out["rmse_or_error"] < 0.3

    @pytest.mark.parametrize("m, grid", [(100, False), (50, True)], ids=["m100-5000x4", "m50-grid10000x2"])
    def test_evaluate_state_scratch_within_one_mib(self, rng, m, grid):
        """Scoring walks the rows in blocks, so its scratch stays under 1 MiB at thousands of rows."""
        if grid:
            axis = np.linspace(-2, 2, 100)
            x = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        else:
            x = rng.uniform(-2, 2, (5000, 4))
        d, a = x.shape[1], rng.standard_normal((m, m)) * 0.1
        state = make_state(
            KernelSpec("matern52", Hyperparams(1.0, np.full(d, 0.5))), rng.uniform(-2, 2, (m, d)),
            alpha_u=rng.standard_normal(m), b_u=a @ a.T,
        )
        lik, y = Gaussian(0.1), rng.standard_normal(len(x))
        evaluate_state(state, lik, x, y)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate_state(state, lik, x, y)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_evaluate_state_classification_error_rate(self, rng):
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
        x = np.linspace(-2, 2, 12)[:, None]
        y = np.where(x[:, 0] > 0, 1.0, 0.0)  # {0,1} labels accepted
        lik = BernoulliLogit()
        state = make_state(spec, x)
        for _ in range(30):
            state = ngd_step(state, lik, x, y, rho=0.7)
        out = evaluate_state(state, lik, x, y)
        assert out["rmse_or_error"] <= 0.25
        assert out["nlpd"] < math.log(2.0)


class TestStandardizer:
    def test_transform_centers_and_scales(self, rng):
        x = rng.uniform(5, 10, (50, 2)) * np.array([1.0, 100.0])
        std = Standardizer.fit(x)
        z = std.transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_keeps_unit_scale(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        std = Standardizer.fit(x)
        assert std.scale[0] == 1.0

    def test_another_feature_count_is_rejected(self, rng):
        std = Standardizer.fit(rng.standard_normal((10, 2)))
        with pytest.raises(DataError, match="1 feature columns, but the standardizer was fit on 2"):
            std.transform(rng.standard_normal((5, 1)))


class TestParseConfig:
    def test_none_gives_defaults(self):
        config = parse_config(None)
        assert config == RunConfig()

    def test_reads_typed_values(self, tmp_path):
        path = _write(
            tmp_path / "run.ini",
            "[model]\nkernel = squared_exponential\nlengthscales = 0.5, 2.0\n"
            "noise_variance = 0.05\n\n[stream]\nnum_inducing = 30\n\n[data]\nstandardize_inputs = false\n",
        )
        config = parse_config(path)
        assert config.kernel == "squared_exponential"
        assert config.lengthscales == (0.5, 2.0)
        assert config.noise_variance == 0.05
        assert config.num_inducing == 30
        assert config.standardize_inputs is False

    def test_readme_config_block_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config = parse_config(_write(tmp_path / "run.ini", block))
        assert config.likelihood == "gaussian"
        assert config.lengthscales == (0.5, 2.0)
        documented = configparser.ConfigParser(inline_comment_prefixes=(";",))
        documented.read_string(block)
        keys = [(section, key) for section in documented.sections() for key in documented[section]]
        assert sorted(keys) == sorted((f.metadata["section"], f.name) for f in fields(RunConfig))
        # Every documented value is the default, except lengthscales (stated as 1.0).
        assert RunConfig().lengthscales == (1.0,)
        assert replace(config, lengthscales=(1.0,)) == RunConfig()

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert isinstance(namespace["result"], Stream)
        assert namespace["mean"].shape == namespace["var"].shape == (50,)
        scores = ast.literal_eval(capsys.readouterr().out)
        assert scores.keys() == {"nlpd", "rmse_or_error"} and scores["rmse_or_error"] < 0.3

    def test_documented_bernoulli_value_parses(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[model]\nlikelihood = bernoulli_logit ; classification\n")
        assert isinstance(make_likelihood(parse_config(path)), BernoulliLogit)

    def test_unknown_likelihood_rejected_at_parse_time(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[model]\nlikelihood = bernoulli\n")
        with pytest.raises(ConfigError, match="unknown likelihood 'bernoulli'"):
            parse_config(path)

    def test_unknown_section_raises(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[optimizer]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[optimizer\]"):
            parse_config(path)

    def test_unknown_key_raises(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[model]\nbandwidth = 0.1\n")
        with pytest.raises(ConfigError, match="unknown key 'bandwidth'"):
            parse_config(path)

    def test_fd_step_is_not_a_key(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[stream]\nfd_step = 1e-4\n")
        with pytest.raises(ConfigError, match="unknown key 'fd_step'"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key", ["remove_memory_from_prior", "replay_memory", "pool_includes_memory"]
    )
    def test_memory_toggle_is_not_a_key(self, tmp_path, key):
        path = _write(tmp_path / "run.ini", f"[stream]\n{key} = true\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)

    @pytest.mark.parametrize("text, message", REJECTED_CONFIGS)
    def test_rejected_config_raises(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(_write(tmp_path / "run.ini", text))

    def test_bad_value_raises(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[stream]\nnum_inducing = lots\n")
        with pytest.raises(ConfigError, match="bad value 'lots'"):
            parse_config(path)

    def test_bad_bool_raises(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[data]\nstandardize_inputs = maybe\n")
        with pytest.raises(ConfigError, match="bad value 'maybe'"):
            parse_config(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.ini"))

    def test_directory_raises_naming_it(self, tmp_path):
        folder = tmp_path / "configs"
        folder.mkdir()
        with pytest.raises(ConfigError, match=f"cannot read config {folder}"):
            parse_config(str(folder))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "[model]\nkernel = squared_exponential\n[stream]\nnum_inducing = 30\n"
        marked = tmp_path / "marked.ini"
        marked.write_bytes(text.encode("utf-8-sig"))
        assert parse_config(str(marked)) == parse_config(_write(tmp_path / "plain.ini", text))
        assert parse_config(str(marked)).num_inducing == 30

    def test_config_not_in_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes("[model]\nkernel = matern52 ; réglage\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=f"{path} is not UTF-8 text"):
            parse_config(str(path))


class TestFactories:
    def test_gaussian_kernel_carries_noise(self):
        config = RunConfig(noise_variance=0.2)
        spec = make_kernel(config)
        assert spec.hyper.noise_variance == 0.2
        assert isinstance(make_likelihood(config), Gaussian)

    def test_classifier_kernel_has_no_noise(self):
        config = RunConfig(likelihood="bernoulli_logit", quad_points=24)
        spec = make_kernel(config)
        assert spec.hyper.noise_variance is None
        lik = make_likelihood(config)
        assert isinstance(lik, BernoulliLogit)
        assert lik.quad_points == 24

    def test_unknown_likelihood_raises(self):
        with pytest.raises(ConfigError, match="unknown likelihood"):
            make_likelihood(RunConfig(likelihood="poisson"))

    def test_seq_config_mirrors_run_config(self):
        config = RunConfig(num_inducing=17, ngd_rho=0.5, memory_capacity=9)
        seq = make_seq_config(config)
        assert seq.num_inducing == 17
        assert seq.ngd_rho == 0.5
        assert seq.memory_capacity == 9
        for field in fields(SequentialConfig):
            assert getattr(seq, field.name) == getattr(config, field.name)


DATA = Path(__file__).resolve().parent / "data"


def _without(*keys):
    """A damage that deletes the key at the path ``keys`` from a checkpoint's text."""

    def damage(text):
        payload = json.loads(text)
        entry = payload
        for key in keys[:-1]:
            entry = entry[key]
        del entry[keys[-1]]
        return json.dumps(payload)

    return damage


def _truncated_b_u(text):
    payload = json.loads(text)
    payload["state"]["b_u"].pop()
    return json.dumps(payload)


def _edit_state(name, value):
    """A damage that sets ``state.<name>`` of a checkpoint to ``value(old)``; NaN is written as ``NaN``."""

    def damage(text):
        payload = json.loads(text)
        payload["state"][name] = value(payload["state"][name])
        return json.dumps(payload)

    return damage


def _alpha_literal(literal):
    """A damage that writes ``state.alpha_u[0]`` of a checkpoint as the JSON number ``literal``."""

    def damage(text):
        return _edit_state("alpha_u", lambda a: ["first", *a[1:]])(text).replace('"first"', literal, 1)

    return damage


def _asymmetric_b_u(b):
    """``b`` with its ``[0][1]`` entry moved, so it no longer equals its transpose."""
    return [[b[0][0], b[0][1] + 1e-3, *b[0][2:]], *b[1:]]


# Damaged Gaussian checkpoints that load_checkpoint rejects, each with the
# message that follows the file name.
DAMAGED_CHECKPOINTS = [
    pytest.param(_without("likelihood", "noise_variance"), "missing key likelihood.noise_variance", id="noise"),
    pytest.param(_without("state", "kernel", "family"), "missing key state.kernel.family", id="family"),
    pytest.param(_without("state"), "missing key state", id="state"),
    pytest.param(_truncated_b_u, "dual parameter shapes do not match the inducing set", id="b_u_shape"),
    pytest.param(lambda text: text[: len(text) // 2], "not valid JSON", id="invalid_json"),
    pytest.param(
        lambda text: json.dumps({**json.loads(text), "state": "z"}), "string indices must be integers",
        id="state_type",
    ),
    pytest.param(
        _edit_state("alpha_u", lambda a: [math.nan, *a[1:]]), "NaN is not a finite number", id="nan"
    ),
    pytest.param(
        _edit_state("b_u", lambda b: (-1e6 * np.eye(len(b))).tolist()), "cholesky failed at every jitter level",
        id="b_u_indefinite",
    ),
    pytest.param(_alpha_literal("1e999"), "1e999 is not a finite number", id="float_overflow"),
    pytest.param(_alpha_literal("9" * 400), f"{'9' * 400} is not a finite number", id="int_overflow"),
    pytest.param(_edit_state("b_u", _asymmetric_b_u), "b_u is not symmetric", id="b_u_asymmetric"),
]


def _payload_edit(*keys, value):
    """An edit that sets the entry at the path ``keys`` of a parsed checkpoint to ``value(old)``."""

    def edit(payload):
        entry = payload
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value(entry[keys[-1]])

    return edit


# Edits of a 2-feature Gaussian checkpoint with a memory of 3 points and a
# standardizer, each an entry of the wrong shape or type, with the message
# that load_checkpoint gives after the file name.
INCONSISTENT_CHECKPOINTS = [
    pytest.param(_payload_edit("standardizer", "scale", value=lambda s: s[:1]),
                 "standardizer mean and scale need 2 entries each, one per input dimension", id="scale_length"),
    pytest.param(_payload_edit("standardizer", "mean", value=lambda m: [*m, 0.0]),
                 "standardizer mean and scale need 2 entries each, one per input dimension", id="mean_length"),
    pytest.param(_payload_edit("standardizer", "mean", value=lambda m: [m]),
                 "standardizer mean and scale need 2 entries each, one per input dimension", id="mean_2d"),
    pytest.param(_payload_edit("standardizer", "scale", value=lambda s: [0.0, *s[1:]]),
                 "standardizer scale must be positive", id="scale_zero"),
    pytest.param(_payload_edit("memory", "scores", value=lambda s: s[:-1]),
                 "memory has inputs of shape (3, 2), labels of shape (3,) and scores of shape (2,)", id="scores_short"),
    pytest.param(_payload_edit("memory", "inputs", value=lambda x: np.transpose(x).tolist()),
                 "memory has inputs of shape (2, 3), labels of shape (3,) and scores of shape (3,)",
                 id="inputs_transposed"),
    pytest.param(_payload_edit("seed", value=lambda s: 1.5), "seed must be an integer, not 1.5", id="seed_float"),
    pytest.param(_payload_edit("seed", value=lambda s: True), "seed must be an integer, not True", id="seed_bool"),
    pytest.param(_payload_edit("seed", value=lambda s: -1), "seed must be at least 0", id="seed_negative"),
    pytest.param(_payload_edit("state", "kernel", "lengthscales", value=lambda ls: [ls]),
                 "lengthscales must be a number or a non-empty flat list, not of shape (1, 2)",
                 id="lengthscales_nested"),
    pytest.param(_payload_edit("state", "kernel", "variance", value=lambda v: True),
                 "variance must be a real number, not True", id="variance_bool"),
    pytest.param(_payload_edit("likelihood", "noise_variance", value=lambda s2: "0.1"),
                 "noise_variance must be a real number, not '0.1'", id="noise_string"),
]


def _round_trip(tmp_path, state, lik, **extras):
    """``save_checkpoint`` then ``load_checkpoint`` through a file."""
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, state, lik, **extras)
    return load_checkpoint(path)


def _edited(tmp_path, state, lik, edit):
    """A checkpoint of ``state`` whose parsed payload ``edit`` changed in place."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), state, lik)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheckpoint:
    def _fitted(self, rng, spec=None, lik=None):
        spec = spec or KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
        lik = lik or Gaussian(0.1)
        x = rng.uniform(-2, 2, (6, spec.hyper.lengthscales.size))
        y = np.where(np.sin(x[:, 0]) > 0, 1.0, -1.0) if isinstance(lik, BernoulliLogit) else np.sin(x[:, 0])
        return ngd_step(make_state(spec, x), lik, x, y, rho=1.0), lik

    def test_kernel_round_trip(self, rng, tmp_path):
        """Family, per-dimension lengthscales, constant and noise survive exactly."""
        hyper = Hyperparams(0.9, np.array([0.4, 1.1]), constant_variance=0.05, noise_variance=0.01)
        state, lik = self._fitted(rng, KernelSpec("squared_exponential", hyper), Gaussian(0.01))
        back = _round_trip(tmp_path, state, lik)[0].kernel
        assert back.family == "squared_exponential"
        assert back.hyper.variance == 0.9
        np.testing.assert_array_equal(back.hyper.lengthscales, [0.4, 1.1])
        assert back.hyper.constant_variance == 0.05
        assert back.hyper.noise_variance == 0.01

    def test_none_kernel_noise_survives(self, rng, tmp_path):
        state, lik = self._fitted(rng, lik=BernoulliLogit())
        assert _round_trip(tmp_path, state, lik)[0].kernel.hyper.noise_variance is None

    def test_round_trip_preserves_predictions(self, rng, tmp_path):
        a = rng.standard_normal((4, 4))
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
        state = make_state(spec, rng.uniform(-2, 2, (4, 1)), rng.standard_normal(4), a @ a.T)
        back = _round_trip(tmp_path, state, Gaussian(0.1))[0]
        for name in ("z", "alpha_u", "b_u", "keff", "kinv_alpha"):
            np.testing.assert_array_equal(getattr(back, name), getattr(state, name), err_msg=name)
        x_test = rng.uniform(-2, 2, (7, 1))
        np.testing.assert_array_equal(predict(back, x_test), predict(state, x_test))

    def test_round_trip_is_plain_json_types(self, rng, tmp_path):
        """numpy scalars in the hyperparameters are written as plain JSON numbers."""
        hyper = Hyperparams(np.float64(1.2), np.array([0.7]), np.float64(0.05), np.float64(0.3))
        state, lik = self._fitted(rng, KernelSpec("matern52", hyper), Gaussian(0.3))
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), state, lik)
        kernel = json.loads(path.read_text())["state"]["kernel"]
        assert kernel == {
            "family": "matern52", "variance": 1.2, "lengthscales": [0.7],
            "constant_variance": 0.05, "noise_variance": 0.3,
        }
        assert all(type(kernel[key]) is float for key in ("variance", "constant_variance", "noise_variance"))
        assert load_checkpoint(str(path))[0].kernel.hyper.variance == 1.2

    def test_gaussian_likelihood_round_trip(self, rng, tmp_path):
        state, _ = self._fitted(rng)
        lik = _round_trip(tmp_path, state, Gaussian(noise_variance=0.3))[1]
        assert isinstance(lik, Gaussian)
        assert lik.noise_variance == 0.3

    def test_bernoulli_quad_points_round_trip(self, rng, tmp_path):
        state, _ = self._fitted(rng, lik=BernoulliLogit())
        lik = _round_trip(tmp_path, state, BernoulliLogit(quad_points=32))[1]
        assert isinstance(lik, BernoulliLogit)
        assert lik.quad_points == 32

    def test_unknown_likelihood_raises(self, rng, tmp_path):
        state, lik = self._fitted(rng)
        path = _edited(tmp_path, state, lik, lambda payload: payload.update(likelihood={"name": "poisson"}))
        with pytest.raises(ValueError, match="unknown likelihood 'poisson'"):
            load_checkpoint(path)

    def test_absent_optional_settings_take_defaults(self, rng, tmp_path):
        """``constant_variance``, kernel ``noise_variance`` and ``quad_points`` may be left out."""
        state, lik = self._fitted(rng, lik=BernoulliLogit(quad_points=32))

        def strip(payload):
            del payload["state"]["kernel"]["constant_variance"], payload["state"]["kernel"]["noise_variance"]
            del payload["likelihood"]["quad_points"]

        back, lik, _, _, _ = load_checkpoint(_edited(tmp_path, state, lik, strip))
        assert back.kernel.hyper.constant_variance == 0.0
        assert back.kernel.hyper.noise_variance is None
        assert lik.quad_points == DEFAULT_QUAD_POINTS

    def test_standardizer_round_trip(self, rng, tmp_path):
        state, lik = self._fitted(rng, KernelSpec("matern52", Hyperparams(1.0, np.ones(3))))
        std = Standardizer.fit(rng.standard_normal((20, 3)))
        back = _round_trip(tmp_path, state, lik, standardizer=std)[4]
        np.testing.assert_array_equal(back.mean, std.mean)
        np.testing.assert_array_equal(back.scale, std.scale)

    def test_round_trip_state_and_extras(self, rng, tmp_path):
        state, lik = self._fitted(rng)
        memory = MemorySet(
            inputs=np.array([[0.1], [0.2]]), labels=np.array([1.0, 2.0]),
            scores=np.array([0.5, 0.6]),
        )
        std = Standardizer(mean=np.array([1.0]), scale=np.array([2.0]))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, state, lik, memory=memory, seed=11, standardizer=std)
        state2, lik2, memory2, seed2, std2 = load_checkpoint(path)
        np.testing.assert_array_equal(state2.alpha_u, state.alpha_u)
        np.testing.assert_array_equal(state2.b_u, state.b_u)
        assert isinstance(lik2, Gaussian) and lik2.noise_variance == 0.1
        np.testing.assert_array_equal(memory2.inputs, memory.inputs)
        assert "seed" not in json.load(open(path))["memory"]
        assert seed2 == 11
        np.testing.assert_array_equal(std2.mean, std.mean)
        probe = rng.uniform(-2, 2, (5, 1))
        np.testing.assert_array_equal(predict(state2, probe)[0], predict(state, probe)[0])

    def test_minimal_checkpoint(self, rng, tmp_path):
        state, lik = self._fitted(rng)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, state, lik)
        _, _, memory, seed, std = load_checkpoint(path)
        assert memory is None
        assert seed == 0
        assert std is None

    def test_checkpoint_with_memory_seed_still_loads(self, rng, tmp_path):
        """Checkpoints written before the memory lost its seed field load."""
        state, lik = self._fitted(rng)
        memory = MemorySet(inputs=np.array([[0.1]]), labels=np.array([1.0]), scores=np.ones(1))
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), state, lik, memory=memory, seed=3)
        payload = json.loads(path.read_text())
        payload["memory"]["seed"] = None
        path.write_text(json.dumps(payload))
        _, _, memory2, seed2, _ = load_checkpoint(str(path))
        np.testing.assert_array_equal(memory2.inputs, memory.inputs)
        assert seed2 == 3

    def test_wrong_version_rejected(self, rng, tmp_path):
        state, lik = self._fitted(rng)
        path = _edited(tmp_path, state, lik, lambda payload: payload.update(version=2))
        with pytest.raises(DataError, match="checkpoint version 2, not 1"):
            load_checkpoint(path)

    def test_non_finite_state_is_not_saved(self, rng, tmp_path):
        state, lik = self._fitted(rng)
        alpha = state.alpha_u.copy()
        alpha[0] = np.inf
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_checkpoint(str(path), replace(state, alpha_u=alpha), lik)
        assert not path.exists()

    @pytest.mark.parametrize("damage, message", DAMAGED_CHECKPOINTS)
    def test_damaged_checkpoint_is_data_error(self, rng, tmp_path, damage, message):
        state, lik = self._fitted(rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), state, lik)
        path.write_text(damage(path.read_text()))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("edit, message", INCONSISTENT_CHECKPOINTS)
    def test_inconsistent_entry_is_data_error(self, rng, tmp_path, edit, message):
        state, lik = self._fitted(rng, KernelSpec("matern52", Hyperparams(1.0, np.ones(2))))
        memory = MemorySet(inputs=rng.uniform(-2, 2, (3, 2)), labels=np.ones(3), scores=np.ones(3))
        std = Standardizer.fit(rng.standard_normal((20, 2)))
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), state, lik, memory=memory, seed=4, standardizer=std)
        assert load_checkpoint(str(path))[3] == 4
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(str(path))

    def test_latin1_checkpoint_is_data_error(self, tmp_path):
        """A byte that is not UTF-8 is a :class:`DataError` naming the file, whatever the locale."""
        path = tmp_path / "ckpt.json"
        path.write_bytes('{"format": "dualgp-checkpoint", "note": "café"}'.encode("latin-1"))
        with pytest.raises(DataError, match=re.escape(f"{path} is not UTF-8 text")):
            load_checkpoint(str(path))

    def test_byte_order_mark_is_dropped(self, rng, tmp_path):
        """A saved checkpoint behind a UTF-8 byte-order mark loads to the same state."""
        state, lik = self._fitted(rng)
        memory = MemorySet(inputs=np.array([[0.1]]), labels=np.array([1.0]), scores=np.ones(1))
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), state, lik, memory=memory, seed=5)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back, back_lik, back_memory, seed, _ = load_checkpoint(str(path))
        for name in ("z", "alpha_u", "b_u"):
            np.testing.assert_array_equal(getattr(back, name), getattr(state, name), err_msg=name)
        assert back.kernel.hyper.variance == state.kernel.hyper.variance
        assert back_lik.noise_variance == lik.noise_variance
        np.testing.assert_array_equal(back_memory.inputs, memory.inputs)
        assert seed == 5

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        from dualgp.harness import DataError

        with pytest.raises(DataError, match="not a dualgp-checkpoint"):
            load_checkpoint(str(path))


class TestCheckpointV1Files:
    """Version-1 files written by an earlier release load and re-save byte for byte.

    A change to what ``save_checkpoint`` writes fails here; such a change
    comes with a new ``CHECKPOINT_VERSION`` and new files.
    """

    def test_gaussian_file(self, tmp_path):
        path = DATA / "checkpoint_v1_gaussian.json"
        payload = json.loads(path.read_text())
        state, lik, memory, seed, std = load_checkpoint(str(path))
        assert state.kernel.family == "matern52"
        assert (state.kernel.hyper.variance, state.kernel.hyper.constant_variance) == (1.3, 0.0)
        np.testing.assert_array_equal(state.kernel.hyper.lengthscales, [0.7])
        assert state.kernel.hyper.noise_variance == 0.2
        assert isinstance(lik, Gaussian) and lik.noise_variance == 0.2
        for name in ("z", "alpha_u", "b_u"):
            np.testing.assert_array_equal(getattr(state, name), payload["state"][name])
        for name in ("inputs", "labels", "scores"):
            np.testing.assert_array_equal(getattr(memory, name), payload["memory"][name])
        assert memory.inputs.shape == (2, 1)
        assert seed == 7
        np.testing.assert_array_equal(std.mean, payload["standardizer"]["mean"])
        np.testing.assert_array_equal(std.scale, payload["standardizer"]["scale"])
        self._resaves_identically(tmp_path, path, state, lik, memory=memory, seed=seed, standardizer=std)

    def test_bernoulli_file(self, tmp_path):
        path = DATA / "checkpoint_v1_bernoulli.json"
        payload = json.loads(path.read_text())
        state, lik, memory, seed, std = load_checkpoint(str(path))
        assert state.kernel.family == "squared_exponential"
        assert (state.kernel.hyper.variance, state.kernel.hyper.constant_variance) == (0.9, 0.1)
        np.testing.assert_array_equal(state.kernel.hyper.lengthscales, [0.5, 2.0])
        assert state.kernel.hyper.noise_variance is None
        assert isinstance(lik, BernoulliLogit) and lik.quad_points == 24
        for name in ("z", "alpha_u", "b_u"):
            np.testing.assert_array_equal(getattr(state, name), payload["state"][name])
        assert memory.inputs.shape == (0, 2) and len(memory.labels) == len(memory.scores) == 0
        assert seed == 0
        assert std is None
        self._resaves_identically(tmp_path, path, state, lik, memory=memory, seed=seed)

    @staticmethod
    def _resaves_identically(tmp_path, path, state, lik, **extras):
        again = tmp_path / "again.json"
        save_checkpoint(str(again), state, lik, **extras)
        assert again.read_bytes() == path.read_bytes()


class TestWriteJsonl:
    def test_one_record_per_line(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        write_jsonl(path, [{"a": 1}, {"b": [1, 2]}])
        lines = open(path).read().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"b": [1, 2]}]
