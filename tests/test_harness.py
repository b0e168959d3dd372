"""Data loading, streaming splits, metrics, config parsing, checkpoints."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualgp.dual import make_state, ngd_step, predict
from dualgp.harness import (
    ConfigError,
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
    nlpd,
    parse_config,
    save_checkpoint,
    write_jsonl,
)
from dualgp.kernels import Hyperparams, KernelSpec
from dualgp.likelihoods import BernoulliLogit, Gaussian
from dualgp.memory import MemorySet


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

    def test_too_many_batches_raises(self):
        with pytest.raises(ValueError, match="more batches"):
            make_stream(np.zeros((2, 1)), np.zeros(2), 3)


class TestMetrics:
    def test_gaussian_nlpd_perfect_prediction(self):
        """Exact mean and unit total variance give half log 2 pi per point."""
        lik = Gaussian(noise_variance=0.4)
        y = np.array([1.0, -2.0, 0.3])
        val = nlpd(lik, y, y, np.full(3, 0.6))
        assert val == pytest.approx(0.5 * math.log(2.0 * math.pi), rel=1e-12)

    def test_bernoulli_nlpd_coin_flip(self):
        lik = BernoulliLogit()
        y = np.array([1.0, -1.0])
        val = nlpd(lik, y, np.zeros(2), np.zeros(2))
        assert val == pytest.approx(math.log(2.0), rel=1e-10)

    def test_evaluate_state_regression(self, rng):
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
        x = rng.uniform(-2, 2, (10, 1))
        y = np.sin(x[:, 0])
        lik = Gaussian(0.1)
        state = ngd_step(make_state(spec, x), lik, x, y, rho=1.0)
        out = evaluate_state(state, lik, x, y)
        assert set(out) == {"nlpd", "rmse_or_error"}
        assert out["rmse_or_error"] < 0.3

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

    def test_round_trip(self, rng):
        x = rng.standard_normal((20, 3))
        std = Standardizer.fit(x)
        back = Standardizer.from_dict(std.to_dict())
        np.testing.assert_array_equal(back.mean, std.mean)
        np.testing.assert_array_equal(back.scale, std.scale)


class TestParseConfig:
    def test_none_gives_defaults(self):
        config = parse_config(None)
        assert config == RunConfig()

    def test_reads_typed_values(self, tmp_path):
        path = _write(
            tmp_path / "run.ini",
            "[model]\nkernel = squared_exponential\nlengthscales = 0.5, 2.0\n"
            "noise_variance = 0.05\n\n[stream]\nnum_inducing = 30\nreplay_memory = false\n",
        )
        config = parse_config(path)
        assert config.kernel_family == "squared_exponential"
        assert config.lengthscales == (0.5, 2.0)
        assert config.noise_variance == 0.05
        assert config.num_inducing == 30
        assert config.replay_memory is False

    def test_readme_config_block_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config = parse_config(_write(tmp_path / "run.ini", block))
        assert config.likelihood == "gaussian"
        assert config.lengthscales == (0.5, 2.0)

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

    def test_bad_value_raises(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[stream]\nnum_inducing = lots\n")
        with pytest.raises(ConfigError, match="bad value 'lots'"):
            parse_config(path)

    def test_bad_bool_raises(self, tmp_path):
        path = _write(tmp_path / "run.ini", "[stream]\nreplay_memory = maybe\n")
        with pytest.raises(ConfigError, match="bad value 'maybe'"):
            parse_config(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.ini"))


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


class TestCheckpoint:
    def _fitted(self, rng):
        spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.8])))
        x = rng.uniform(-2, 2, (6, 1))
        y = np.sin(x[:, 0])
        lik = Gaussian(0.1)
        return ngd_step(make_state(spec, x), lik, x, y, rho=1.0), lik

    def test_round_trip_state_and_extras(self, rng, tmp_path):
        state, lik = self._fitted(rng)
        memory = MemorySet(
            inputs=np.array([[0.1], [0.2]]), labels=np.array([1.0, 2.0]),
            scores=np.array([0.5, 0.6]), seed=42,
        )
        std = Standardizer(mean=np.array([1.0]), scale=np.array([2.0]))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, state, lik, memory=memory, seed=11, standardizer=std)
        state2, lik2, memory2, seed2, std2 = load_checkpoint(path)
        np.testing.assert_array_equal(state2.alpha_u, state.alpha_u)
        np.testing.assert_array_equal(state2.b_u, state.b_u)
        assert isinstance(lik2, Gaussian) and lik2.noise_variance == 0.1
        np.testing.assert_array_equal(memory2.inputs, memory.inputs)
        assert memory2.seed == 42
        assert seed2 == 11
        np.testing.assert_array_equal(std2.mean, std.mean)
        probe = rng.uniform(-2, 2, (5, 1))
        np.testing.assert_allclose(predict(state2, probe)[0], predict(state, probe)[0], atol=1e-14)

    def test_minimal_checkpoint(self, rng, tmp_path):
        state, lik = self._fitted(rng)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, state, lik)
        _, _, memory, seed, std = load_checkpoint(path)
        assert memory is None
        assert seed == 0
        assert std is None

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        from dualgp.harness import DataError

        with pytest.raises(DataError, match="not a dualgp-checkpoint"):
            load_checkpoint(str(path))


class TestWriteJsonl:
    def test_one_record_per_line(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        write_jsonl(path, [{"a": 1}, {"b": [1, 2]}])
        lines = open(path).read().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"b": [1, 2]}]
