"""Acceptance gate: ten end-to-end contracts, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with measured CPU and wall time.  Criterion 7 needs a local copy of
the bank marketing table (all-numeric CSV with a {0,1} label column
``y``); point ``DUALGP_BANK_CSV`` at it or drop it at ``data/bank.csv``,
otherwise that one criterion is skipped.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import banana, bls_dense, fit_exact, fit_offline, greedy_pivot_reference, predict_exact, pseudo_data, rls

import dualgp.sequential
from dualgp.acquisition import ExpectedImprovement, expected_improvement, fantasize_batch
from dualgp.dual import (
    elbo,
    iterate_ngd,
    make_state,
    ngd_step,
    predict,
)
from dualgp.harness import Standardizer, evaluate_state, load_csv, make_stream
from dualgp.kernels import Hyperparams, KernelSpec, gram
from dualgp.likelihoods import BernoulliLogit, Gaussian
from dualgp.memory import MemorySet, bls, empty_memory, update_memory
from dualgp.representation import pivoted_cholesky_select, project_duals, refresh_representation
from dualgp.sequential import (
    SequentialConfig,
    hyper_gradient,
    hyper_objective,
    process_batch,
    remove_memory,
    run_stream,
    seq_objective,
)


@contextmanager
def criterion(number, label, limit_s):
    """Time the body, print one verdict line, enforce the CPU-time budget.

    The budget is on the process's CPU time, which a busy host does not
    inflate the way it inflates wall time; it counts the BLAS worker
    threads too.  Both times are printed.
    """
    start_wall, start_cpu = time.perf_counter(), time.process_time()

    def spent():
        return time.perf_counter() - start_wall, time.process_time() - start_cpu

    try:
        yield
    except BaseException:
        wall, cpu = spent()
        print(f"criterion {number:2d} [{label}]: FAIL after {wall:.2f}s wall, {cpu:.2f}s CPU")
        raise
    wall, cpu = spent()
    in_budget = cpu < limit_s
    verdict = "PASS" if in_budget else "FAIL (over CPU-time budget)"
    print(
        f"criterion {number:2d} [{label}]: {verdict} in {cpu:.2f}s CPU, "
        f"{wall:.2f}s wall (limit {limit_s:g}s CPU)"
    )
    assert in_budget, f"criterion {number} took {cpu:.2f}s CPU, budget {limit_s:g}s"


def _matern(variance, lengthscales, noise=None):
    return KernelSpec("matern52", Hyperparams(variance, np.asarray(lengthscales, float),
                                              noise_variance=noise))


def test_criterion_01_conjugate_exactness():
    """Inducing set equal to the data reproduces the exact Gaussian posterior."""
    rng = np.random.default_rng(101)
    x = rng.uniform(-2.0, 2.0, (8, 1))
    y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(8)
    noise = 0.1
    kernel = _matern(1.3, [0.7])
    with criterion(1, "conjugate exactness with inducing set = data", 1.0):
        state, _, converged = iterate_ngd(
            make_state(kernel, x), Gaussian(noise), x, y, rho=1.0, max_steps=50, tol=1e-12
        )
        assert converged
        x_query = rng.uniform(-2.0, 2.0, (20, 1))
        mean_s, var_s = predict(state, x_query)
        mean_e, var_e = predict_exact(fit_exact(kernel, x, y, noise), x_query)
        np.testing.assert_allclose(mean_s, mean_e, rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(var_s, var_e, rtol=1e-6, atol=1e-12)


def test_criterion_02_single_point_fixed_point():
    """One unit-variance point with unit noise: all closed forms at once."""
    kernel = KernelSpec("squared_exponential", Hyperparams(1.0, np.array([1.0])))
    z = np.zeros((1, 1))
    with criterion(2, "single-point closed forms", 0.1):
        state = ngd_step(make_state(kernel, z), Gaussian(1.0), z, np.array([1.0]), rho=1.0)
        assert state.alpha_u[0] == pytest.approx(0.5, abs=1e-8)
        assert state.b_u[0, 0] == pytest.approx(1.0, abs=1e-8)
        pseudo = pseudo_data(state)
        assert pseudo.y_tilde[0] == pytest.approx(1.0, abs=1e-8)
        assert pseudo.sigma_tilde[0, 0] == pytest.approx(1.0, abs=1e-8)
        bound = elbo(state, Gaussian(1.0), np.array([1.0]), *predict(state, z))
        expected = -0.5 * (math.log(2.0 * math.pi * 2.0) + 0.5)
        assert bound == pytest.approx(expected, abs=1e-8)


def test_criterion_03_leverage_score_identities():
    """Product-form scores match the dense assembly, and classical ridge
    leverage at unit noise when the inducing set is the data."""
    rng = np.random.default_rng(303)
    with criterion(3, "leverage score identities on 50 instances", 5.0):
        for instance in range(50):
            dim = int(rng.integers(1, 3))
            kernel = _matern(float(rng.uniform(0.5, 2.0)), rng.uniform(0.5, 1.5, dim))
            if instance % 2 == 1:
                n = int(rng.integers(3, 11))
                m = int(rng.integers(1, min(5, n) + 1))
                x = rng.uniform(-2.0, 2.0, (n, dim))
                y = rng.choice([-1.0, 1.0], n)
                lik = BernoulliLogit()
                z = x[rng.choice(n, m, replace=False)]
                state, _, converged = iterate_ngd(
                    make_state(kernel, z), lik, x, y, rho=0.5, max_steps=3000, tol=1e-13
                )
                assert converged
                np.testing.assert_allclose(
                    bls(lik, y, *predict(state, x)), bls_dense(state, lik, x, y), rtol=0, atol=1e-8
                )
            else:
                n = int(rng.integers(2, 6))
                x = rng.uniform(-2.0, 2.0, (n, dim))
                y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(n)
                lik = Gaussian(1.0)
                if instance % 4 == 0:
                    z = x.copy()
                else:
                    z = x[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)]
                state, _, _ = iterate_ngd(
                    make_state(kernel, z), lik, x, y, rho=1.0, max_steps=5, tol=1e-12
                )
                product = bls(lik, y, *predict(state, x))
                np.testing.assert_allclose(
                    product, bls_dense(state, lik, x, y), rtol=0, atol=1e-8
                )
                if instance % 4 == 0:
                    a = state.kzz.solve(gram(kernel, z, x))
                    ridge = rls(kernel, 1.0, a, state.keff)
                    np.testing.assert_allclose(product, ridge, rtol=0, atol=1e-8)


def test_criterion_04_memory_limit_equivalence():
    """With the memory holding all past data, the streaming objective is the
    plain evidence bound on the union, whatever candidate state it scores."""
    rng = np.random.default_rng(404)
    with criterion(4, "full memory makes streaming objective = batch bound", 5.0):
        for lik_name in ("gaussian", "bernoulli"):
            for _ in range(3):
                x_old = rng.uniform(-2.0, 2.0, (20, 1))
                x_new = rng.uniform(-2.0, 2.0, (8, 1))
                if lik_name == "gaussian":
                    lik = Gaussian(0.3)
                    y_old = np.sin(2.0 * x_old[:, 0]) + 0.2 * rng.standard_normal(20)
                    y_new = np.sin(2.0 * x_new[:, 0]) + 0.2 * rng.standard_normal(8)
                    rho, tol = 1.0, 1e-12
                else:
                    lik = BernoulliLogit()
                    y_old = rng.choice([-1.0, 1.0], 20)
                    y_new = rng.choice([-1.0, 1.0], 8)
                    rho, tol = 0.5, 1e-13
                kernel = _matern(1.0, [0.8])
                z = x_old[pivoted_cholesky_select(kernel, x_old, 6).indices]
                state, _, converged = iterate_ngd(
                    make_state(kernel, z), lik, x_old, y_old, rho=rho, max_steps=3000, tol=tol
                )
                assert converged
                memory = MemorySet(inputs=x_old, labels=y_old,
                                   scores=np.ones(20))
                prior = remove_memory(state, lik, memory)
                x_union = np.vstack([x_new, x_old])
                y_union = np.concatenate([y_new, y_old])

                stepped = ngd_step(state, lik, x_union, y_union, 0.7,
                                   prior.alpha, prior.b)
                bump = rng.standard_normal(6)
                perturbed = make_state(
                    kernel, z, state.alpha_u + 0.3 * rng.standard_normal(6),
                    state.b_u + 0.5 * np.outer(bump, bump),
                )
                for candidate in (stepped, perturbed):
                    streaming = seq_objective(candidate, lik, y_union, *predict(candidate, x_union), prior)
                    union = elbo(candidate, lik, y_union, *predict(candidate, x_union))
                    assert streaming == pytest.approx(union, rel=1e-6, abs=1e-6)


def _chirp(n, seed, noise_std=0.4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 6.0, (n, 1))
    y = np.sin(0.65 * (6.0 - x[:, 0]) ** 2) + noise_std * rng.standard_normal(n)
    return x, y


def test_criterion_05_streaming_matches_offline_regression():
    """Sorted chirp stream: memory keeps the hyper fit global, so the final
    NLPD tracks a budget-matched offline fit; dropping the memory lets the
    hyperparameters chase the most recent region and the gap grows."""
    x, y = _chirp(400, seed=0)
    x_test, y_test = _chirp(200, seed=1000)
    kernel = _matern(0.7, [0.25])
    lik = Gaussian(noise_variance=0.2)
    with criterion(5, "streaming regression tracks offline, memory helps", 30.0):
        batches = make_stream(x, y, 4, order="sorted")
        base = dict(num_inducing=30, ngd_rho=0.8, ngd_steps=8,
                    hyper_steps=15, hyper_lr=2e-2)
        with_memory = SequentialConfig(memory_capacity=50, **base)
        without_memory = SequentialConfig(memory_capacity=0, **base)

        res_mem = run_stream(batches, kernel, lik, with_memory, seed=0)
        res_none = run_stream(batches, kernel, lik, without_memory, seed=0)
        res_off = fit_offline(kernel, lik, with_memory, x, y, budget_batches=4, seed=0)

        nlpd_mem = evaluate_state(res_mem.state, res_mem.lik, x_test, y_test)["nlpd"]
        nlpd_none = evaluate_state(res_none.state, res_none.lik, x_test, y_test)["nlpd"]
        nlpd_off = evaluate_state(res_off.state, res_off.lik, x_test, y_test)["nlpd"]

        assert abs(nlpd_mem - nlpd_off) <= 0.05 * abs(nlpd_off), (
            f"streaming NLPD {nlpd_mem:.4f} vs offline {nlpd_off:.4f}"
        )
        assert abs(nlpd_none - nlpd_off) > abs(nlpd_mem - nlpd_off), (
            f"no-memory gap {abs(nlpd_none - nlpd_off):.4f} should exceed "
            f"memory gap {abs(nlpd_mem - nlpd_off):.4f}"
        )


def _uniform_curation(memory, lik, x_batch, y_batch, mean, var, capacity, rng_seed):
    """``update_memory``'s pool, kept whole if it fits, else a seeded uniform draw instead of leverage."""
    pool_x = np.vstack([memory.inputs, x_batch])
    pool_y = np.concatenate([memory.labels, y_batch])
    keep = np.arange(len(pool_x))
    if len(pool_x) > capacity:
        keep = np.sort(np.random.default_rng(rng_seed).choice(len(pool_x), size=capacity, replace=False))
    return MemorySet(inputs=pool_x[keep], labels=pool_y[keep], scores=np.ones(len(keep)))


def test_criterion_06_streaming_matches_offline_classification():
    """Interleaved-crescent stream: accuracy stays near offline, and the
    leverage-curated memory is at least as good as uniform curation."""
    kernel = _matern(1.0, [1.0, 1.0])
    config = SequentialConfig(num_inducing=25, ngd_rho=0.6, ngd_steps=8,
                              memory_capacity=40, hyper_steps=5, hyper_lr=3e-2)
    with criterion(6, "streaming classification tracks offline, leverage beats uniform", 120.0):
        acc_stream, acc_offline, nlpd_leverage, nlpd_uniform = [], [], [], []
        for seed in range(5):
            x_train, y_train = banana(400, seed=seed)
            x_test, y_test = banana(300, seed=seed + 1000)
            batches = make_stream(x_train, y_train, 4, order="sorted")

            res = run_stream(batches, kernel, BernoulliLogit(), config, seed=seed)
            ev = evaluate_state(res.state, res.lik, x_test, y_test)
            acc_stream.append(1.0 - ev["rmse_or_error"])
            nlpd_leverage.append(ev["nlpd"])

            off = fit_offline(kernel, BernoulliLogit(), config, x_train, y_train,
                              budget_batches=4, seed=seed)
            ev_off = evaluate_state(off.state, off.lik, x_test, y_test)
            acc_offline.append(1.0 - ev_off["rmse_or_error"])

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dualgp.sequential, "update_memory", _uniform_curation)
                uniform = run_stream(batches, kernel, BernoulliLogit(), config, seed=seed)
            nlpd_uniform.append(evaluate_state(uniform.state, uniform.lik, x_test, y_test)["nlpd"])

        assert abs(np.mean(acc_stream) - np.mean(acc_offline)) <= 0.03, (
            f"stream accuracy {np.mean(acc_stream):.4f} vs offline {np.mean(acc_offline):.4f}"
        )
        assert np.mean(nlpd_leverage) <= np.mean(nlpd_uniform), (
            f"leverage memory NLPD {np.mean(nlpd_leverage):.4f} vs "
            f"uniform {np.mean(nlpd_uniform):.4f}"
        )


def test_criterion_07_bank_benchmark():
    """Soft benchmark band on the bank marketing table, when present locally.

    Protocol: standardized features, 80/20 split at seed 0, 50 batches sorted
    on the first feature, 100 inducing points, logit likelihood with natural
    gradient (rho 0.2, 10 steps), memory of 100, 10 hyper steps per batch at
    learning rate 1e-2.  The band is wide because the upstream protocol
    leaves room for interpretation; a miss means investigate, and the test
    reports the measured value either way.
    """
    path = os.environ.get("DUALGP_BANK_CSV", os.path.join("data", "bank.csv"))
    if not os.path.exists(path):
        print("criterion  7 [bank benchmark NLPD band]: SKIP "
              f"(no CSV at {path!r}; set DUALGP_BANK_CSV)")
        pytest.skip(f"bank CSV not found at {path!r}")
    with criterion(7, "bank benchmark NLPD band", 600.0):
        x, y, _ = load_csv(path, "y")
        rng = np.random.default_rng(0)
        order = rng.permutation(len(y))
        cut = int(0.8 * len(y))
        x_train, y_train = x[order[:cut]], y[order[:cut]]
        x_test, y_test = x[order[cut:]], y[order[cut:]]
        standardizer = Standardizer.fit(x_train)
        x_train = standardizer.transform(x_train)
        x_test = standardizer.transform(x_test)

        batches = make_stream(x_train, y_train, 50, order="sorted")
        kernel = _matern(1.0, np.ones(x.shape[1]))
        config = SequentialConfig(num_inducing=100, ngd_rho=0.2, ngd_steps=10,
                                  memory_capacity=100, hyper_steps=10, hyper_lr=1e-2)
        result = run_stream(batches, kernel, BernoulliLogit(), config, seed=0)
        nlpd = evaluate_state(result.state, result.lik, x_test, y_test)["nlpd"]
        print(f"    bank test NLPD = {nlpd:.4f} (band 0.20 to 0.32)")
        assert 0.20 <= nlpd <= 0.32


def test_criterion_08_representation_pipeline():
    """Projection to the same inducing set is the identity, pivot choice
    matches a dense reference, and the precision term stays PSD through 100
    project/remove/update cycles."""
    rng = np.random.default_rng(808)
    with criterion(8, "representation identities and 100-cycle PSD", 10.0):
        kernel = _matern(1.2, [0.8, 1.1])
        x = rng.uniform(-2.0, 2.0, (15, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(15)
        lik = Gaussian(0.1)
        z = x[pivoted_cholesky_select(kernel, x, 10).indices]
        state, _, _ = iterate_ngd(make_state(kernel, z), lik, x, y, rho=1.0, max_steps=5)

        same = project_duals(state, state.z)
        np.testing.assert_allclose(same.alpha_u, state.alpha_u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(same.b_u, state.b_u, rtol=0, atol=1e-10)

        for _ in range(50):
            dim = int(rng.integers(1, 3))
            pts = rng.uniform(-2.0, 2.0, (int(rng.integers(5, 30)), dim))
            spec = _matern(float(rng.uniform(0.5, 2.0)), rng.uniform(0.4, 1.5, dim))
            budget = int(rng.integers(1, len(pts) + 1))
            fast = pivoted_cholesky_select(spec, pts, budget).indices
            dense = greedy_pivot_reference(gram(spec, pts), budget)
            np.testing.assert_array_equal(fast, dense)

        config = SequentialConfig(num_inducing=10, ngd_rho=0.7, ngd_steps=2,
                                  memory_capacity=8)
        memory = empty_memory(2)
        for cycle in range(100):
            xb = rng.uniform(-3.0, 3.0, (12, 2))
            yb = np.sin(xb[:, 0]) + 0.2 * rng.standard_normal(12)
            state = refresh_representation(state, xb, config.num_inducing)
            state, _, _ = process_batch(state, lik, config, xb, yb, memory)
            memory = update_memory(memory, lik, xb, yb, *predict(state, np.vstack([xb, memory.inputs])),
                                   config.memory_capacity, rng_seed=[808, cycle])
            eigvals = np.linalg.eigvalsh(state.b_u)
            assert eigvals.min() >= -1e-8, f"cycle {cycle}: min eigenvalue {eigvals.min():.2e}"
            np.testing.assert_allclose(state.b_u, state.b_u.T, rtol=0, atol=1e-12)


def test_criterion_09_fantasy_batch_properties():
    """Fantasy conditioning never touches the real state, shrinks variance at
    every chosen point, and the improvement integral matches Monte Carlo."""
    rng = np.random.default_rng(909)
    x = rng.uniform(-3.0, 3.0, (40, 1))
    y = np.sin(3.0 * x[:, 0]) * np.exp(-0.3 * x[:, 0] ** 2) + 0.1 * rng.standard_normal(40)
    kernel = _matern(1.0, [0.8])
    lik = Gaussian(0.1)
    z = x[pivoted_cholesky_select(kernel, x, 15).indices]
    state, _, _ = iterate_ngd(make_state(kernel, z), lik, x, y, rho=1.0, max_steps=5)
    with criterion(9, "fantasy batch preservation, shrinkage, improvement vs MC", 30.0):
        alpha_before = state.alpha_u.copy()
        b_before = state.b_u.copy()
        z_before = state.z.copy()
        acq = ExpectedImprovement(best=float(y.max()), bounds=np.array([[-3.0, 3.0]]))
        points, fantasy = fantasize_batch(state, lik, acq, k=4, search_budget=512, seed=2)

        np.testing.assert_array_equal(state.alpha_u, alpha_before)
        np.testing.assert_array_equal(state.b_u, b_before)
        np.testing.assert_array_equal(state.z, z_before)

        _, var_real = predict(state, points)
        _, var_fantasy = predict(fantasy, points)
        assert np.all(var_fantasy < var_real)

        for trial in range(10):
            mean = rng.uniform(-1.0, 1.0)
            var = rng.uniform(0.04, 1.0)
            best = rng.uniform(-0.5, 0.5)
            closed = float(expected_improvement(np.array([mean]), np.array([var]), best)[0])
            draws = np.random.default_rng(1000 + trial).standard_normal(500_000)
            samples = math.sqrt(var) * np.concatenate([draws, -draws]) + mean
            monte_carlo = float(np.mean(np.maximum(samples - best, 0.0)))
            assert closed == pytest.approx(monte_carlo, abs=5e-4)


def test_criterion_10_derivative_consistency():
    """Site means are the mean-derivative of the expected log-likelihood, and
    the hyper gradient passes a step-halving consistency check."""
    with criterion(10, "site and hyper derivative consistency", 10.0):
        h = 1e-4
        cases = [
            (Gaussian(0.5), 2.0, 0.3, 1.2),
            (Gaussian(0.5), -1.0, -0.7, 0.5),
            (Gaussian(0.5), 0.3, 2.0, 3.0),
            (BernoulliLogit(), 1.0, 0.3, 1.2),
            (BernoulliLogit(), -1.0, -0.7, 0.5),
            (BernoulliLogit(), 1.0, 2.0, 3.0),
        ]
        for lik, y, mean, var in cases:
            yv, vv = np.array([y]), np.array([var])
            up = lik.expected_log_lik(yv, np.array([mean + h]), vv)[0]
            down = lik.expected_log_lik(yv, np.array([mean - h]), vv)[0]
            fd = (up - down) / (2.0 * h)
            (alpha_hat,), _ = lik.site_expectations(yv, np.array([mean]), vv)
            assert fd == pytest.approx(alpha_hat, abs=1e-5)

        x = np.linspace(-2.0, 2.0, 12)[:, None]
        y_batch = np.sin(1.5 * x[:, 0])
        lik = Gaussian(0.25)
        kernel = _matern(0.8, [0.6])
        z = x[pivoted_cholesky_select(kernel, x, 4).indices]
        state, _, _ = iterate_ngd(make_state(kernel, z), lik, x, y_batch, rho=1.0, max_steps=5)
        x_mem, y_mem = np.empty((0, 1)), np.empty(0)

        def objective(log_theta):
            hyper = Hyperparams(
                math.exp(log_theta[0]), np.array([math.exp(log_theta[1])]),
                noise_variance=math.exp(log_theta[2]),
            )
            return hyper_objective(state, lik, x, y_batch, x_mem, y_mem, 0, hyper)[0]

        log_theta = np.log([0.8, 0.6, 0.25])
        coarse = hyper_gradient(objective, log_theta, h)
        fine = hyper_gradient(objective, log_theta, h / 2.0)
        extrapolated = (4.0 * fine - coarse) / 3.0
        rel = np.abs(coarse - extrapolated) / np.maximum(np.abs(extrapolated), 1e-8)
        assert rel.max() <= 1e-3
