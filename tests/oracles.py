"""Independent oracles used to check the package and freeze expected values.

The Monte Carlo oracles were written and run before the quadrature
implementations existed; the frozen constants in the test files were produced
by the functions here with the seeds recorded at each use site.  Rerunning
them reproduces the constants to Monte Carlo accuracy (~3e-4 at 10^7
samples).  :func:`gram_einsum` is the direct-difference Gram assembly that
``dualgp.kernels.gram`` replaced, and :func:`lower_inverse_out_of_place` the
block triangular inverse that ``dualgp.kernels._lower_inverse`` now builds
in place.

The rest are reference routes the engine does not run, each an independent
assembly of a quantity the package computes another way: exact dense GP
regression, predictive marginals through the moment form, the pseudo-data
view of a state, a site-by-site rebuild of a state, dense-route and classical
ridge leverage scores, a greedy pivot choice over the full residual matrix,
the expected log of a dual-pair factor, the four-term rewrite of the
streaming objective, the hyperparameter objective in moment form, a stream
loop that keeps every intermediate state alive, and the budget-matched
offline baseline a stream is scored against.  :func:`banana` draws the
classification tests' data.

The engine runs on numpy alone.  scipy is the reference for what it computes
with numpy: Cholesky solves by LAPACK substitution on the triangle the
engine inverts (:func:`solve_by_substitution`,
:func:`half_solve_by_substitution`), the
logistic sigmoid (``expit_reference``) and the standard normal CDF
(``ndtr_reference``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh, solve_triangular
from scipy.special import expit as expit_reference
from scipy.special import ndtr as ndtr_reference

from dualgp.dual import (
    RANK_TOL,
    DualState,
    GaussianFactor,
    compute_sites,
    cross_gram,
    dual_factor,
    elbo,
    make_state,
    ngd_step,
    predict,
    recover_moments,
    weighted_gram,
)
from dualgp.kernels import (
    INV_LEAF,
    CholeskyFactor,
    Hyperparams,
    KernelSpec,
    as_points,
    gram,
    gram_diag,
    stable_cholesky,
)
from dualgp.likelihoods import Gaussian, Likelihood
from dualgp.memory import BETA_FLOOR, MemorySet, empty_memory, update_memory
from dualgp.representation import pivoted_cholesky_select, refresh_representation
from dualgp.sequential import (
    CLIP_RTOL,
    SequentialConfig,
    Stream,
    _theta_record,
    optimize_hypers,
    remove_memory,
    run_stream,
    seq_objective,
)


def gram_einsum(spec, xa: np.ndarray, xb: np.ndarray | None = None) -> np.ndarray:
    """Reference Gram through the explicit ``(M, N, d)`` difference tensor."""
    xa = np.asarray(xa, dtype=np.float64).reshape(len(xa), -1)
    xb = xa if xb is None else np.asarray(xb, dtype=np.float64).reshape(len(xb), -1)
    inv_ls = 1.0 / np.broadcast_to(spec.hyper.lengthscales, (xa.shape[1],))
    diff = (xa[:, None, :] - xb[None, :, :]) * inv_ls
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    if spec.family == "matern52":
        s = np.sqrt(5.0) * np.sqrt(r2)
        k = (1.0 + s + (5.0 / 3.0) * r2) * np.exp(-s)
    else:
        k = np.exp(-0.5 * r2)
    return spec.hyper.variance * k + spec.hyper.constant_variance


def solve_by_substitution(matrix: np.ndarray, jitter: float, rhs: np.ndarray) -> np.ndarray:
    """``(matrix + jitter I)^{-1} rhs`` by a Cholesky factor and two LAPACK substitutions."""
    return cho_solve((_lower_factor(matrix, jitter), True), rhs)


def half_solve_by_substitution(matrix: np.ndarray, jitter: float, rhs: np.ndarray) -> np.ndarray:
    """``L^{-1} rhs`` for the Cholesky factor ``L`` of ``matrix + jitter I``, by one substitution."""
    return solve_triangular(_lower_factor(matrix, jitter), rhs, lower=True)


def _lower_factor(matrix: np.ndarray, jitter: float) -> np.ndarray:
    """The triangle the engine inverts: numpy's LAPACK Cholesky, shifted as the ladder shifts.

    scipy's Cholesky differs from numpy's in the last bits, and on a matrix
    of condition 1e12 that moves the solves by more than the 1e-12 at which
    the inverse is compared with substitution; so both start from one factor.
    """
    return np.linalg.cholesky(matrix + jitter * np.eye(len(matrix)) if jitter else matrix)


def lower_inverse_out_of_place(low: np.ndarray) -> np.ndarray:
    """The recursive block inverse of a lower triangle, built in a fresh array.

    The same products in the same order as ``dualgp.kernels._lower_inverse``,
    which overwrites its operand instead, so the two agree bit for bit.
    """
    n = low.shape[0]
    if n <= INV_LEAF:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    inv = np.zeros_like(low)
    inv[:h, :h] = lower_inverse_out_of_place(low[:h, :h])
    inv[h:, h:] = lower_inverse_out_of_place(low[h:, h:])
    inv[h:, :h] = -inv[h:, h:] @ (low[h:, :h] @ inv[:h, :h])
    return inv


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mc_bernoulli_sites(
    y: float, mean: float, var: float, n: int = 10_000_000, seed: int = 20260816
) -> tuple[float, float]:
    """Monte Carlo first/negative-second derivative expectations of log sigmoid(y f)."""
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    first = y * sigmoid(-y * f)
    second = sigmoid(f) * sigmoid(-f)
    return float(first.mean()), float(second.mean())


def mc_bernoulli_expected_log_lik(
    y: float, mean: float, var: float, n: int = 10_000_000, seed: int = 20260816
) -> float:
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    return float(np.mean(-np.logaddexp(0.0, -y * f)))


def mc_bernoulli_predictive(
    y: float, mean: float, var: float, n: int = 10_000_000, seed: int = 20260816
) -> float:
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    return float(sigmoid(y * f).mean())


def mc_gaussian_expected_log_lik(
    y: float, mean: float, var: float, noise_var: float, n: int = 10_000_000, seed: int = 20260816
) -> float:
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    return float(np.mean(-0.5 * np.log(2.0 * np.pi * noise_var) - (y - f) ** 2 / (2.0 * noise_var)))


def mc_expected_improvement(
    mean: float, var: float, best: float, n: int = 10_000_000, seed: int = 20260816
) -> float:
    """Monte Carlo E[max(f - best, 0)] under f ~ N(mean, var) (maximization)."""
    rng = np.random.default_rng(seed)
    f = mean + np.sqrt(var) * rng.standard_normal(n)
    return float(np.maximum(f - best, 0.0).mean())


@dataclass
class ExactPosterior:
    """Exact conjugate GP regression through a full Cholesky of ``K + noise * I``.

    Only for desk-sized problems: an answer independent of the sparse dual
    representation.
    """

    kernel: KernelSpec
    noise_variance: float
    x_train: np.ndarray
    y_train: np.ndarray
    factor: CholeskyFactor
    weights: np.ndarray


def fit_exact(
    kernel: KernelSpec, x_train: np.ndarray, y_train: np.ndarray, noise_variance: float
) -> ExactPosterior:
    """Factorize ``K + noise * I`` and precompute the representer weights."""
    x_train = np.atleast_2d(np.asarray(x_train, dtype=np.float64))
    y_train = np.asarray(y_train, dtype=np.float64)
    k = gram(kernel, x_train)
    factor = stable_cholesky(k + noise_variance * np.eye(len(x_train)))
    return ExactPosterior(
        kernel=kernel,
        noise_variance=noise_variance,
        x_train=x_train,
        y_train=y_train,
        factor=factor,
        weights=factor.solve(y_train),
    )


def predict_exact(post: ExactPosterior, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of the latent function at ``x_star``."""
    x_star = np.atleast_2d(np.asarray(x_star, dtype=np.float64))
    k_star = gram(post.kernel, post.x_train, x_star)
    mean = k_star.T @ post.weights
    half = post.factor.half_solve(k_star)
    var = gram_diag(post.kernel, x_star) - np.sum(half * half, axis=0)
    return mean, var


def log_marginal(post: ExactPosterior) -> float:
    """Log marginal likelihood ``log N(y | 0, K + noise * I)``."""
    n = len(post.y_train)
    return -0.5 * (
        float(post.y_train @ post.weights) + post.factor.logdet + n * math.log(2.0 * math.pi)
    )


def predict_moments_route(state: DualState, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same predictive marginals computed through the moment parameterization.

    Secondary route kept for cross-checking the dual-form ``predict``:
    ``mean = a^T m`` and ``var = k_** - a^T K_zz a + a^T V a`` with
    ``a = K_zz^{-1} k_z*``.
    """
    mean_u, cov_u = recover_moments(state)
    k_star = gram(state.kernel, state.z, x_star)
    a = state.kzz.solve(k_star)
    mean = a.T @ mean_u
    var = (
        gram_diag(state.kernel, x_star)
        - np.sum(a * (state.keff @ a), axis=0)
        + np.sum(a * (cov_u @ a), axis=0)
    )
    return mean, var


@dataclass
class PseudoData:
    """Moment-form summary of the data evidence absorbed by a state.

    ``y_tilde`` and ``sigma_tilde`` are the observations and noise covariance
    of the Gaussian pseudo-likelihood on ``u`` that would reproduce the
    state's posterior from the prior.  ``degenerate`` flags a rank-deficient
    ``b_u`` (fewer independent observations absorbed than inducing points),
    in which case pseudo-inverses were used.
    """

    y_tilde: np.ndarray
    sigma_tilde: np.ndarray
    rank: int
    degenerate: bool


def pseudo_data(state: DualState) -> PseudoData:
    """Recover the pseudo observations and their noise covariance.

    ``y_tilde = K_zz b_u^+ alpha_u + mean`` and
    ``sigma_tilde = K_zz b_u^+ K_zz``, with the pseudo-inverse taken by
    eigendecomposition (relative rank tolerance 1e-10).  Rank deficiency is
    reported, not repaired.
    """
    keff = state.keff
    w, u = eigh(0.5 * (state.b_u + state.b_u.T))
    cutoff = RANK_TOL * max(float(w.max(initial=0.0)), 0.0)
    keep = w > cutoff
    rank = int(np.count_nonzero(keep))
    u_r = u[:, keep]
    inv_w = 1.0 / w[keep]
    pinv_alpha = u_r @ (inv_w * (u_r.T @ state.alpha_u))
    y_tilde = keff @ pinv_alpha + state.alpha_u
    sigma_tilde = (keff @ u_r) @ ((inv_w[:, None] * u_r.T) @ keff)
    return PseudoData(
        y_tilde=y_tilde,
        sigma_tilde=0.5 * (sigma_tilde + sigma_tilde.T),
        rank=rank,
        degenerate=rank < state.num_inducing,
    )


def site_reconstruction_check(
    state: DualState, sites: tuple[np.ndarray, np.ndarray], x: np.ndarray
) -> float:
    """Max absolute mismatch between the state and a site-rebuilt state.

    Rebuilds the natural parameters from per-point sites
    (``sum_i a_i beta_i a_i^T + K^{-1}`` and the matching linear term) and
    compares against the state's own natural parameters.  Near zero exactly
    when the state is the fixed point of NGD on ``(x, sites)`` with a zero
    prior.
    """
    alpha_hat, beta_hat = sites
    kzx = gram(state.kernel, state.z, x)
    a = state.kzz.solve(kzx)
    ki = state.kzz.solve(np.eye(state.num_inducing))
    prec_built = (a * beta_hat) @ a.T + ki
    prec_state = state.kzz.solve(state.kzz.solve(state.keff + state.b_u).T)
    mean_u = state.alpha_u
    y_hat = alpha_hat / beta_hat + kzx.T @ state.kzz.solve(mean_u)
    lin_built = (a * beta_hat) @ y_hat
    lin_state = state.kzz.solve(state.alpha_u + state.b_u @ state.kzz.solve(mean_u))
    return max(
        float(np.max(np.abs(prec_built - prec_state), initial=0.0)),
        float(np.max(np.abs(lin_built - lin_state), initial=0.0)),
    )


def bls_dense(state: DualState, lik: Likelihood, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense-route leverage scores through the weighted feature Gram.

    Builds the scores from scratch as
    ``beta_i * (k_ii - a_i^T K_zz a_i + a_i^T (A W A^T + K_zz^{-1})^{-1} a_i)``
    with features ``a_i = K_zz^{-1} k_zi``, site weights ``W`` and the leading
    ``beta_i`` floored at ``BETA_FLOOR``, as ``bls`` floors it.  Agrees
    with ``dualgp.memory.bls`` exactly when the state's ``b_u`` equals the site sum of
    the scored points (an NGD fixed point with zero prior); kept as an
    independent assembly for cross-checking.
    """
    _, beta_hat = compute_sites(state, lik, x, y)
    kzx = gram(state.kernel, state.z, x)
    a = state.kzz.solve(kzx)
    ki = state.kzz.solve(np.eye(state.num_inducing))
    middle = (a * beta_hat) @ a.T + ki
    low = cholesky(middle, lower=True)
    half = np.linalg.solve(low, a)
    leverage = np.sum(half * half, axis=0)
    residual = gram_diag(state.kernel, x) - np.sum(kzx * a, axis=0)
    return np.maximum(beta_hat, BETA_FLOOR) * (residual + leverage)


def rls(kernel: KernelSpec, noise_variance: float, a: np.ndarray, kzz: np.ndarray) -> np.ndarray:
    """Classical ridge leverage scores ``a_i^T (A A^T / s2 + K^{-1})^{-1} a_i``.

    ``a`` holds the feature columns ``a_i`` and ``kzz`` the inducing Gram
    matrix.  Evaluated through the Woodbury identity, so no explicit
    ``K^{-1}`` is formed; as ``noise_variance -> inf`` the scores approach
    ``a_i^T K a_i``.
    """
    g = a.T @ kzz @ a
    n = g.shape[0]
    low = cholesky(noise_variance * np.eye(n) + g, lower=True)
    half = np.linalg.solve(low, g)
    return np.diag(g) - np.sum(half * half, axis=0)


def greedy_pivot_reference(g: np.ndarray, max_points: int, rel_tol: float = 1e-10) -> np.ndarray:
    """Dense trace-greedy pivot choice, written independently of the package.

    Keeps the full residual matrix ``R = G - C C^T`` instead of only its
    diagonal, so each step is O(n^2) but easy to audit.  Stops at the budget,
    once the largest residual is at most ``rel_tol`` times the largest prior
    variance, or once it is not positive.
    """
    residual = np.asarray(g, dtype=np.float64).copy()
    threshold = rel_tol * float(np.max(np.diag(residual), initial=0.0))
    chosen = []
    for _ in range(min(max_points, len(residual))):
        diag = np.diag(residual).copy()
        j = int(np.argmax(diag))
        if diag[j] <= threshold or diag[j] <= 0.0:
            break
        col = residual[:, j] / math.sqrt(diag[j])
        residual = residual - np.outer(col, col)
        chosen.append(j)
    return np.array(chosen, dtype=np.int64)


def expected_log_factor(factor: GaussianFactor, mean: np.ndarray, cov: np.ndarray) -> float:
    """``E[log f(u)]`` for ``u ~ N(mean, cov)`` and a support-normalized factor.

    Zero-rank factors contribute exactly zero (empty product convention).
    """
    if factor.rank == 0:
        return 0.0
    trace = float(np.sum(factor.precision * cov))
    proj = factor._eigvecs.T @ factor.linear
    quad = (
        float(mean @ (factor.precision @ mean))
        - 2.0 * float(mean @ factor.linear)
        + float(proj @ (proj / factor._eigvals))
    )
    return -0.5 * (
        trace + quad + factor.rank * np.log(2.0 * np.pi) - factor.logdet_plus
    )


def seq_objective_vcl_form(
    state: DualState,
    lik: Likelihood,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    memory: MemorySet,
    old_state: DualState,
) -> float:
    """Four-term rewrite of the streaming bound.

    Batch data term, minus KL to the old posterior, plus memory data term,
    minus the expected log pseudo-likelihood of the memory.  The memory's
    site sums are taken at ``old_state``'s marginals, as removal takes them,
    and anchored at the old posterior mean.  Differs from
    ``dualgp.sequential.seq_objective`` by a state-independent constant (the
    normalizer of the subtracted prior), so differences across candidate
    states match.
    """
    mean_q, cov_q = recover_moments(state)

    kl_old = -elbo(
        state, lik, np.empty(0), np.empty(0), np.empty(0), old_state.alpha_u, old_state.b_u
    )

    total = -kl_old
    x_batch = np.atleast_2d(x_batch)
    if x_batch.size:
        mean_b, var_b = predict(state, x_batch)
        total += float(np.sum(lik.expected_log_lik(y_batch, mean_b, var_b)))
    if len(memory):
        mean_m, var_m = predict(state, memory.inputs)
        total += float(np.sum(lik.expected_log_lik(memory.labels, mean_m, var_m)))
        alpha_hat, beta_hat = compute_sites(old_state, lik, memory.inputs, memory.labels)
        kzm = gram(old_state.kernel, old_state.z, memory.inputs)
        removed_b = weighted_gram(kzm, beta_hat)
        factor = dual_factor(state.kzz, kzm @ alpha_hat, removed_b, old_state.alpha_u)
        total -= expected_log_factor(factor, mean_q, cov_q)
    return total


def hyper_objective_reference(
    state: DualState,
    lik: Likelihood,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    x_mem: np.ndarray,
    y_mem: np.ndarray,
    n_old: int,
    hyper: Hyperparams,
) -> float:
    """The hyperparameter objective through the moments of the rebuilt state.

    The state is rebuilt at ``hyper`` with its dual pair frozen: mean
    ``alpha_u`` and covariance ``Sigma = K (K + B)^{-1} K`` (scipy
    ``cho_solve``), with ``K`` the rebuilt ``keff``.  The value is the batch
    data term plus the memory data term times ``n_old / n_mem``, both through
    :func:`predict_moments_route`, minus ``KL(N(alpha_u, Sigma) || N(0, K))``
    from scipy Cholesky factors of ``K`` and ``Sigma``.
    """
    rebuilt = make_state(KernelSpec(state.kernel.family, hyper), state.z, state.alpha_u, state.b_u)
    if isinstance(lik, Gaussian) and hyper.noise_variance is not None:
        lik = Gaussian(noise_variance=float(hyper.noise_variance))
    k, alpha = rebuilt.keff, state.alpha_u
    cov = k @ cho_solve(cho_factor(k + state.b_u, lower=True), k)
    low_k = cholesky(k, lower=True)
    low_cov = cholesky(0.5 * (cov + cov.T), lower=True)
    kl = 0.5 * (
        float(np.trace(cho_solve((low_k, True), cov)))
        + float(alpha @ cho_solve((low_k, True), alpha))
        - len(alpha)
        + 2.0 * float(np.sum(np.log(np.diag(low_k))) - np.sum(np.log(np.diag(low_cov))))
    )

    def data_term(x: np.ndarray, y: np.ndarray) -> float:
        mean, var = predict_moments_route(rebuilt, as_points(x))
        return float(np.sum(lik.expected_log_lik(y, mean, var)))

    value = data_term(x_batch, y_batch) - kl
    if len(y_mem):
        value += n_old / len(y_mem) * data_term(x_mem, y_mem)
    return value


def run_stream_keeping_states(
    batches, kernel: KernelSpec, lik: Likelihood, config: SequentialConfig, seed: int = 0, evaluate=None
) -> tuple[Stream, list[DualState]]:
    """``run_stream``'s pipeline with every intermediate state kept alive.

    The same stage functions in the same order, but no state is handed
    over: each one stays in the returned list, so no stage can free its
    input early.  The final marginals come from a block of their own, not
    from NGD's or the accepted hyperparameter evaluation's, so they check
    the ones ``step`` keeps.  The records are ``run_stream``'s, ``wall_ms``
    aside (it reads 0 here); the batch checks are left out.
    """
    states: list[DualState] = []
    memory = None
    records = []
    clips = []
    n_old = 0
    for batch_index, (x_batch, y_batch) in enumerate(batches):
        x_batch = as_points(x_batch)
        y_batch = np.asarray(y_batch, dtype=np.float64)
        if not states:
            memory = empty_memory(x_batch.shape[1])
            selection = pivoted_cholesky_select(kernel, x_batch, config.num_inducing)
            states.append(make_state(kernel, x_batch[selection.indices]))
        else:
            states.append(refresh_representation(states[-1], x_batch, config.num_inducing))
        prior = remove_memory(states[-1], lik, memory)
        x_fit, y_fit = np.vstack([x_batch, memory.inputs]), np.concatenate([y_batch, memory.labels])
        cross = cross_gram(states[-1], x_fit)
        for _ in range(config.ngd_steps):
            states.append(
                ngd_step(states[-1], lik, x_fit, y_fit, config.ngd_rho, prior.alpha, prior.b, cross=cross)
            )
        if config.hyper_steps > 0:
            marginals = cross.marginals(states[-1])
            state, lik, _, _ = optimize_hypers(states[-1], lik, config, x_batch, y_batch, memory, n_old, marginals)
            states.append(state)
        mean, var = cross_gram(states[-1], x_fit).marginals(states[-1])
        objective = seq_objective(states[-1], lik, y_fit, mean, var, prior)
        if prior.clip_magnitude > CLIP_RTOL * max(float(np.linalg.norm(prior.b)), 1.0):
            clips.append(prior.clip_magnitude)
        memory = update_memory(
            memory, lik, x_batch, y_batch, mean, var, config.memory_capacity, rng_seed=[seed, batch_index]
        )
        n_old += len(y_batch)
        record = {
            "batch_index": batch_index,
            "n_seen": n_old,
            "elbo_like_objective": float(objective),
            "theta": _theta_record(states[-1].kernel.hyper, lik),
            "wall_ms": 0.0,
            "seed": seed,
            "clip_magnitude": prior.clip_magnitude,
        }
        if evaluate is not None:
            record.update(evaluate(states[-1], lik))
        records.append(record)
    stream = Stream(config, seed, lik, states[-1], memory, n_old, tuple(records), len(clips), max(clips, default=0.0))
    return stream, states


def fit_offline(
    kernel: KernelSpec, lik: Likelihood, config: SequentialConfig, x: np.ndarray, y: np.ndarray,
    budget_batches: int = 1, seed: int = 0,
) -> Stream:
    """The offline baseline of a stream: one batch with all the data, budget-matched.

    Runs ``budget_batches * ngd_steps`` NGD iterations and
    ``budget_batches * hyper_steps`` hyperparameter steps on the full data
    against the kernel prior, without memory, so streamed and offline runs
    spend the same number of updates.
    """
    offline = replace(
        config,
        ngd_steps=config.ngd_steps * budget_batches,
        hyper_steps=config.hyper_steps * budget_batches,
        memory_capacity=0,
    )
    return run_stream([(x, y)], kernel, lik, offline, seed=seed)


def banana(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """``n`` points of two interleaved noisy crescents in 2-D, labels in {-1, +1}; ``seed`` seeds ``default_rng``."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, np.pi, n)
    which = rng.integers(0, 2, n)
    radius = 2.0 + 0.3 * rng.standard_normal(n)
    x1 = np.where(which == 1, radius * np.cos(angle), 1.0 - radius * np.cos(angle))
    x2 = np.where(which == 1, radius * np.sin(angle) - 1.0, -radius * np.sin(angle) + 1.0)
    x = np.column_stack([x1, x2]) + 0.1 * rng.standard_normal((n, 2))
    return x, np.where(which == 1, 1.0, -1.0)
