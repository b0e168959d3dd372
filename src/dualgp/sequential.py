"""Streaming engine: memory removal, replay updates, and hyperparameter steps.

Each incoming batch is processed in a fixed order: refresh the inducing set
over old-Z-plus-batch and project the duals, subtract the replay memory's
site contributions from the posterior to form an adjusted prior, run NGD
steps on batch-plus-memory against that prior, take guarded hyperparameter
ascent steps, and finally re-curate the memory under the updated state.

The sequential objective evaluated after each batch is the evidence bound of
the batch-plus-memory data against the *normalized* adjusted prior (the
Gaussian obtained by natural-parameter subtraction of the memory sites from
the old posterior).  With the memory equal to the entire past data and a
converged old state, that prior collapses to the kernel prior and the
objective coincides with the batch bound on the union; the unnormalized
four-term rewrite (data term of the new batch, KL to the old posterior,
memory data term, expected log pseudo-likelihood of the memory) lives with
the test oracles in ``tests/oracles.py`` and differs from it by a
state-independent constant.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh

from .dual import (
    RANK_TOL,
    DualState,
    compute_sites,
    dual_factor,
    expected_log_factor,
    elbo,
    make_state,
    ngd_step,
    predict,
    recover_moments,
)
from .kernels import Hyperparams, KernelSpec, as_points, gram, stable_cholesky
from .likelihoods import Gaussian, Likelihood
from .memory import MemorySet, empty_memory, update_memory
from .representation import pivoted_cholesky_select, refresh_representation

logger = logging.getLogger(__name__)


@dataclass
class SequentialConfig:
    """Knobs of the streaming engine.

    ``ngd_rho``/``ngd_steps`` control the per-batch natural-gradient
    iterations; ``hyper_steps``/``hyper_lr`` the guarded hyperparameter
    ascent; ``memory_capacity`` the replay budget (0 disables memory).  The
    three toggles select whether removal adjusts the prior, whether memory is
    replayed in the NGD data, and whether the curation pool includes the old
    memory.
    """

    num_inducing: int
    ngd_rho: float = 0.8
    ngd_steps: int = 2
    memory_capacity: int = 0
    hyper_steps: int = 0
    hyper_lr: float = 1e-2
    fd_step: float = 1e-4
    remove_memory_from_prior: bool = True
    replay_memory: bool = True
    pool_includes_memory: bool = True


@dataclass
class AdjustedPrior:
    """Old posterior with the memory's site contributions subtracted.

    ``alpha``/``b`` is the adjusted dual pair (PSD-repaired if the literal
    subtraction left ``b`` indefinite, with the clip magnitude recorded);
    ``mean_ref`` anchors its linear term at the old posterior mean.  The
    subtracted site sums are kept so the old posterior and the memory's
    pseudo-likelihood can be reconstructed exactly by the objectives.
    """

    alpha: np.ndarray
    b: np.ndarray
    mean_ref: np.ndarray
    removed_alpha: np.ndarray
    removed_b: np.ndarray
    clip_magnitude: float = 0.0


def remove_memory(
    state: DualState, lik: Likelihood, memory: MemorySet, enabled: bool = True
) -> AdjustedPrior:
    """Subtract the memory's sites from the posterior to form the prior.

    Sites are evaluated at the current marginals.  If the subtraction leaves
    the precision contribution indefinite, negative eigenvalues are clipped
    to zero (warned, magnitude recorded).  With ``enabled`` off the dual pair
    is returned unchanged and only the bookkeeping sums are filled in.
    """
    m = state.num_inducing
    if len(memory) == 0:
        removed_alpha = np.zeros(m)
        removed_b = np.zeros((m, m))
    else:
        sites = compute_sites(state, lik, memory.inputs, memory.labels)
        kzm = gram(state.kernel, state.z, memory.inputs)
        removed_alpha = kzm @ sites.alpha_hat
        removed_b = (kzm * sites.beta_hat) @ kzm.T
        removed_b = 0.5 * (removed_b + removed_b.T)

    mean_ref = state.alpha_u.copy()
    if not enabled or len(memory) == 0:
        return AdjustedPrior(
            alpha=state.alpha_u.copy(),
            b=state.b_u.copy(),
            mean_ref=mean_ref,
            removed_alpha=removed_alpha,
            removed_b=removed_b,
        )

    alpha_pr = state.alpha_u - removed_alpha
    b_pr = 0.5 * ((state.b_u - removed_b) + (state.b_u - removed_b).T)
    w, u = eigh(b_pr)
    clip = max(-float(w.min(initial=0.0)), 0.0)
    if clip > 0.0:
        if clip > 1e-12 * max(float(np.max(np.abs(w), initial=0.0)), 1.0):
            logger.warning(
                "memory removal left the prior precision indefinite; clipping "
                "eigenvalues by up to %.3e", clip,
            )
        b_pr = (u * np.maximum(w, 0.0)) @ u.T
        b_pr = 0.5 * (b_pr + b_pr.T)
    return AdjustedPrior(
        alpha=alpha_pr,
        b=b_pr,
        mean_ref=mean_ref,
        removed_alpha=removed_alpha,
        removed_b=removed_b,
        clip_magnitude=clip,
    )


def _with_memory(
    x_batch: np.ndarray, y_batch: np.ndarray, memory: MemorySet | None
) -> tuple[np.ndarray, np.ndarray]:
    """The batch followed by the memory points (if any)."""
    x = as_points(x_batch)
    y = np.asarray(y_batch, dtype=np.float64)
    if memory is None or not len(memory):
        return x, y
    return np.vstack([x, memory.inputs]), np.concatenate([y, memory.labels])


def process_batch(
    state: DualState,
    lik: Likelihood,
    config: SequentialConfig,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    memory: MemorySet,
) -> tuple[DualState, AdjustedPrior]:
    """NGD updates for one batch against the memory-adjusted prior.

    The update data is batch plus memory when replay is on.  Returns the
    updated state and the prior that was used (the caller needs it to
    evaluate the sequential objective).
    """
    prior = remove_memory(state, lik, memory, config.remove_memory_from_prior)
    x_fit, y_fit = _with_memory(x_batch, y_batch, memory if config.replay_memory else None)
    for _ in range(config.ngd_steps):
        state = ngd_step(
            state, lik, x_fit, y_fit, config.ngd_rho, prior.alpha, prior.b, prior.mean_ref
        )
    return state, prior


def seq_objective(
    state: DualState,
    lik: Likelihood,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    memory: MemorySet,
    prior: AdjustedPrior,
) -> float:
    """Streaming evidence bound of batch-plus-memory against the adjusted prior.

    The prior enters as a normalized Gaussian, so with the memory covering
    all past data and a converged old state this equals the batch bound on
    the union.
    """
    x_all, y_all = _with_memory(x_batch, y_batch, memory)
    return elbo(state, lik, x_all, y_all, prior.alpha, prior.b, prior.mean_ref)


def _pinv_psd(matrix: np.ndarray) -> np.ndarray:
    w, u = eigh(0.5 * (matrix + matrix.T))
    keep = w > RANK_TOL * max(float(w.max(initial=0.0)), 0.0)
    u_r = u[:, keep]
    return (u_r / w[keep]) @ u_r.T


def hyper_objective(
    state: DualState,
    lik: Likelihood,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    x_mem: np.ndarray,
    y_mem: np.ndarray,
    n_old: int,
    hyper: Hyperparams,
) -> float:
    """Hyperparameter ascent target with the dual parameters frozen.

    The normalizer part is ``-1/2 log|K B^+ K + K| - 1/2 b^T (B + K)^{-1} b``
    with ``b = B^+ alpha_u + mean`` held fixed and only ``K = K(theta)``
    rebuilt; the correction adds the batch data term under the
    theta-dependent marginals, the memory data term rescaled by
    ``n_old / n_mem`` (omitted when the memory is empty), and subtracts the
    expected log pseudo-likelihood of the full state under theta.
    """
    kernel = state.kernel.with_hyper(hyper)
    rebuilt = make_state(kernel, state.z, state.alpha_u, state.b_u)
    if isinstance(lik, Gaussian):
        lik = Gaussian(noise_variance=float(hyper.noise_variance))

    keff = rebuilt.kzz.regularized
    b_pinv = _pinv_psd(state.b_u)
    b_vec = b_pinv @ state.alpha_u + state.alpha_u
    normal_matrix = keff @ b_pinv @ keff + keff
    l_norm = stable_cholesky(0.5 * (normal_matrix + normal_matrix.T))
    half = rebuilt.kq.half_solve(b_vec)
    log_z = -0.5 * l_norm.logdet() - 0.5 * float(half @ half)

    correction = 0.0
    x_batch = as_points(x_batch)
    if x_batch.size:
        mean_b, var_b = predict(rebuilt, x_batch)
        correction += float(np.sum(lik.expected_log_lik(y_batch, mean_b, var_b)))
    x_mem = as_points(x_mem)
    n_mem = x_mem.shape[0] if x_mem.size else 0
    if n_mem:
        mean_m, var_m = predict(rebuilt, x_mem)
        scale = n_old / n_mem
        correction += scale * float(np.sum(lik.expected_log_lik(y_mem, mean_m, var_m)))

    mean_q, cov_q = recover_moments(rebuilt)
    factor = dual_factor(rebuilt.kzz, state.alpha_u, state.b_u, state.alpha_u)
    correction -= expected_log_factor(factor, mean_q, cov_q)
    return log_z + correction


def _pack_log_theta(hyper: Hyperparams, with_noise: bool) -> tuple[np.ndarray, list[str]]:
    values = [hyper.variance, *hyper.lengthscales]
    names = ["variance"] + [f"lengthscale_{i}" for i in range(len(hyper.lengthscales))]
    if hyper.constant_variance > 0:
        values.append(hyper.constant_variance)
        names.append("constant_variance")
    if with_noise:
        values.append(hyper.noise_variance)
        names.append("noise_variance")
    return np.log(np.asarray(values, dtype=np.float64)), names


def _unpack_log_theta(log_theta: np.ndarray, names: list[str], template: Hyperparams) -> Hyperparams:
    values = dict(zip(names, np.exp(log_theta)))
    n_ls = len(template.lengthscales)
    lengthscales = np.array([values[f"lengthscale_{i}"] for i in range(n_ls)])
    return Hyperparams(
        variance=float(values["variance"]),
        lengthscales=lengthscales,
        constant_variance=float(values.get("constant_variance", template.constant_variance)),
        noise_variance=(
            float(values["noise_variance"])
            if "noise_variance" in values
            else template.noise_variance
        ),
    )


def hyper_gradient(objective, log_theta: np.ndarray, fd_step: float) -> np.ndarray:
    """Central finite-difference gradient of ``objective`` in log-theta space."""
    grad = np.empty_like(log_theta)
    for j in range(len(log_theta)):
        bumped = log_theta.copy()
        bumped[j] = log_theta[j] + fd_step
        up = objective(bumped)
        bumped[j] = log_theta[j] - fd_step
        down = objective(bumped)
        grad[j] = (up - down) / (2.0 * fd_step)
    return grad


def optimize_hypers(
    state: DualState,
    lik: Likelihood,
    config: SequentialConfig,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    memory: MemorySet,
    n_old: int,
) -> tuple[DualState, Likelihood, list[float]]:
    """Guarded Adam-style ascent on :func:`hyper_objective` in log space.

    Gradients come from central finite differences (step ``config.fd_step``).
    A candidate step is rejected, and the learning rate halved, whenever it
    would decrease the objective by more than 1e-6 or make it non-finite.
    Returns the state rebuilt at the accepted hyperparameters, the matching
    likelihood, and the trace of accepted objective values.
    """
    with_noise = isinstance(lik, Gaussian)
    hyper = state.kernel.hyper.copy()
    if with_noise and hyper.noise_variance is None:
        hyper = replace(hyper, noise_variance=lik.noise_variance)
    x_mem = memory.inputs if len(memory) else np.empty((0, as_points(x_batch).shape[1]))
    y_mem = memory.labels if len(memory) else np.empty(0)

    log_theta, names = _pack_log_theta(hyper, with_noise)

    def objective(lt: np.ndarray) -> float:
        h = _unpack_log_theta(lt, names, hyper)
        return hyper_objective(state, lik, x_batch, y_batch, x_mem, y_mem, n_old, h)

    current = objective(log_theta)
    trace = [current]
    lr = config.hyper_lr
    m1 = np.zeros_like(log_theta)
    m2 = np.zeros_like(log_theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, config.hyper_steps + 1):
        grad = hyper_gradient(objective, log_theta, config.fd_step)
        m1 = beta1 * m1 + (1.0 - beta1) * grad
        m2 = beta2 * m2 + (1.0 - beta2) * grad * grad
        m1_hat = m1 / (1.0 - beta1**step)
        m2_hat = m2 / (1.0 - beta2**step)
        candidate = log_theta + lr * m1_hat / (np.sqrt(m2_hat) + eps)
        value = objective(candidate)
        if not np.isfinite(value) or value < current - 1e-6:
            lr *= 0.5
            trace.append(current)
            continue
        log_theta = candidate
        current = value
        trace.append(current)

    final_hyper = _unpack_log_theta(log_theta, names, hyper)
    new_kernel = state.kernel.with_hyper(final_hyper)
    new_state = make_state(new_kernel, state.z, state.alpha_u, state.b_u)
    new_lik = Gaussian(noise_variance=float(final_hyper.noise_variance)) if with_noise else lik
    return new_state, new_lik, trace


@dataclass
class StreamResult:
    """Final state, curated memory, per-batch records, and the final likelihood."""

    state: DualState
    memory: MemorySet
    records: list[dict] = field(default_factory=list)
    lik: Likelihood | None = None


def run_stream(
    batches,
    kernel: KernelSpec,
    lik: Likelihood,
    config: SequentialConfig,
    seed: int = 0,
    evaluate=None,
) -> StreamResult:
    """Drive the full per-batch pipeline over an iterable of ``(x, y)`` batches.

    Per batch: refresh/project the inducing set, NGD against the
    memory-adjusted prior, hyperparameter steps, memory re-curation.
    ``evaluate`` (optional) is called as ``evaluate(state, lik)`` after each
    batch and its dict is merged into that batch's record.
    """
    state: DualState | None = None
    memory: MemorySet | None = None
    records: list[dict] = []
    n_old = 0
    for batch_index, (x_batch, y_batch) in enumerate(batches):
        start = time.perf_counter()
        x_batch = as_points(x_batch)
        y_batch = np.asarray(y_batch, dtype=np.float64)
        if state is None:
            memory = empty_memory(x_batch.shape[1])
            selection = pivoted_cholesky_select(kernel, x_batch, config.num_inducing)
            state = make_state(kernel, x_batch[selection.indices])
        else:
            state = refresh_representation(state, x_batch, config.num_inducing)

        state, prior = process_batch(state, lik, config, x_batch, y_batch, memory)
        if config.hyper_steps > 0:
            state, lik, _ = optimize_hypers(state, lik, config, x_batch, y_batch, memory, n_old)
        objective = seq_objective(state, lik, x_batch, y_batch, memory, prior)

        memory = update_memory(
            memory,
            state,
            lik,
            x_batch,
            y_batch,
            config.memory_capacity,
            rng_seed=[seed, batch_index],
            pool_includes_memory=config.pool_includes_memory,
        )
        n_old += len(y_batch)

        record = {
            "batch_index": batch_index,
            "n_seen": n_old,
            "elbo_like_objective": float(objective),
            "theta": _theta_record(state.kernel.hyper, lik),
            "wall_ms": 1000.0 * (time.perf_counter() - start),
            "seed": seed,
        }
        if evaluate is not None:
            record.update(evaluate(state, lik))
        records.append(record)
    if state is None:
        raise ValueError("run_stream needs at least one batch")
    return StreamResult(state=state, memory=memory, records=records, lik=lik)


def _theta_record(hyper: Hyperparams, lik: Likelihood) -> dict:
    record = {
        "variance": float(hyper.variance),
        "lengthscales": [float(v) for v in hyper.lengthscales],
        "constant_variance": float(hyper.constant_variance),
    }
    if isinstance(lik, Gaussian):
        record["noise_variance"] = float(lik.noise_variance)
    return record


def fit_offline(
    kernel: KernelSpec,
    lik: Likelihood,
    config: SequentialConfig,
    x: np.ndarray,
    y: np.ndarray,
    budget_batches: int = 1,
    seed: int = 0,
    evaluate=None,
) -> StreamResult:
    """Single-batch fit with the whole data, budget-matched to a stream.

    Runs ``budget_batches * ngd_steps`` NGD iterations and
    ``budget_batches * hyper_steps`` hyperparameter steps on the full data
    against the kernel prior, so streamed and offline runs spend the same
    number of updates.
    """
    offline = replace(
        config,
        ngd_steps=config.ngd_steps * budget_batches,
        hyper_steps=config.hyper_steps * budget_batches,
        memory_capacity=0,
    )
    return run_stream([(x, y)], kernel, lik, offline, seed=seed, evaluate=evaluate)


__all__ = [
    "SequentialConfig",
    "AdjustedPrior",
    "StreamResult",
    "remove_memory",
    "process_batch",
    "seq_objective",
    "hyper_objective",
    "hyper_gradient",
    "optimize_hypers",
    "run_stream",
    "fit_offline",
]
