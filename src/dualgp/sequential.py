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
from numpy.linalg import eigh

from .dual import (
    DualState,
    cross_gram,
    elbo,
    make_state,
    ngd_step,
    predict,
)
from .kernels import Hyperparams, KernelSpec, as_points, stable_cholesky
from .likelihoods import Gaussian, Likelihood
from .memory import MemorySet, empty_memory, update_memory
from .representation import pivoted_cholesky_select, refresh_representation

logger = logging.getLogger(__name__)

# Step in log-theta of the central differences taken by optimize_hypers.
FD_STEP = 1e-4

# A clip of the adjusted prior's precision up to this multiple of its scale
# (at least 1) is rounding; run_stream warns once about the larger ones.
CLIP_RTOL = 1e-12


@dataclass
class SequentialConfig:
    """Knobs of the streaming engine.

    ``ngd_rho``/``ngd_steps`` control the per-batch natural-gradient
    iterations; ``hyper_steps``/``hyper_lr`` the guarded hyperparameter
    ascent; ``memory_capacity`` the replay budget (0 disables memory).  The
    memory is always removed from the prior, replayed in the NGD data and
    curated together with the new batch.  A value outside its range raises
    :class:`ValueError`: ``num_inducing >= 1``, ``0 < ngd_rho <= 1`` and
    ``ngd_steps >= 1`` (a stream must learn from each batch),
    ``hyper_lr > 0``, ``hyper_steps >= 0`` and ``memory_capacity >= 0``.
    """

    num_inducing: int
    ngd_rho: float = 0.8
    ngd_steps: int = 2
    memory_capacity: int = 0
    hyper_steps: int = 0
    hyper_lr: float = 1e-2

    def __post_init__(self) -> None:
        if self.num_inducing < 1:
            raise ValueError("num_inducing must be at least 1")
        if not 0.0 < self.ngd_rho <= 1.0:
            raise ValueError("ngd_rho must lie in (0, 1]")
        if self.ngd_steps < 1:
            raise ValueError("ngd_steps must be at least 1")
        if min(self.memory_capacity, self.hyper_steps) < 0:
            raise ValueError("memory_capacity and hyper_steps must be nonnegative")
        if not self.hyper_lr > 0.0:
            raise ValueError("hyper_lr must be positive")


@dataclass
class AdjustedPrior:
    """Old posterior with the memory's site contributions subtracted.

    ``alpha``/``b`` is a dual pair read like a state's: ``alpha`` is the
    prior mean.  ``b`` is PSD-repaired if the literal subtraction left it
    indefinite, and ``clip_magnitude`` is the largest eigenvalue clipped.
    ``logdet`` is the log determinant of ``keff + b``, where ``keff`` is the
    factorized K_zz of the state the prior was formed from (the same array
    object); the objective of a state with that ``keff`` reuses it.  It is
    the only part of the factor of ``keff + b`` that is read after the prior
    mean is solved, so the factor itself is not kept.
    """

    alpha: np.ndarray
    b: np.ndarray
    keff: np.ndarray
    logdet: float
    clip_magnitude: float = 0.0


def remove_memory(state: DualState, lik: Likelihood, memory: MemorySet) -> AdjustedPrior:
    """Subtract the memory's sites from the posterior to form the prior.

    Sites ``(alpha_i, beta_i)`` are evaluated at the current marginals.  The
    precision is ``b = b_u - sum_i k_zi beta_i k_zi^T``, with negative
    eigenvalues clipped to zero if the subtraction left it indefinite.  The
    mean is ``alpha_u - K (K + b)^{-1} sum_i k_zi alpha_i`` (``K = K_zz``),
    the pair whose natural parameters are the posterior's minus the sites'.
    ``K + b`` is factored once, for that one solve and its log determinant,
    and only the log determinant is kept.  With no memory the prior is the
    posterior: it shares the state's arrays (states are immutable), and its
    log determinant is ``kq``'s.
    """
    keff = state.keff
    if len(memory) == 0:
        return AdjustedPrior(alpha=state.alpha_u, b=state.b_u, keff=keff, logdet=state.kq.logdet)

    cross = cross_gram(state, memory.inputs)
    sites = lik.site_expectations(memory.labels, *cross.marginals(state))
    kzm = cross.kzx
    b_pr = state.b_u - (kzm * sites.beta_hat) @ kzm.T
    b_pr = 0.5 * (b_pr + b_pr.T)
    w, u = eigh(b_pr)
    clip = max(-float(w.min(initial=0.0)), 0.0)
    if clip > 0.0:
        b_pr = (u * np.maximum(w, 0.0)) @ u.T
        b_pr = 0.5 * (b_pr + b_pr.T)
    factor = stable_cholesky(keff + b_pr)
    alpha_pr = state.alpha_u - keff @ factor.solve(kzm @ sites.alpha_hat)
    return AdjustedPrior(
        alpha=alpha_pr, b=b_pr, keff=keff, logdet=factor.logdet, clip_magnitude=clip
    )


def _with_memory(
    x_batch: np.ndarray, y_batch: np.ndarray, memory: MemorySet
) -> tuple[np.ndarray, np.ndarray]:
    """The batch followed by the memory points (if any)."""
    x = as_points(x_batch)
    y = np.asarray(y_batch, dtype=np.float64)
    if not len(memory):
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

    The update data is batch plus memory, and its cross-Gram with the
    inducing inputs is built once for all the steps.  Returns the updated
    state and the prior that was used (the caller needs it to evaluate the
    sequential objective).
    """
    prior = remove_memory(state, lik, memory)
    x_fit, y_fit = _with_memory(x_batch, y_batch, memory)
    cross = cross_gram(state, x_fit)
    for _ in range(config.ngd_steps):
        state = ngd_step(state, lik, x_fit, y_fit, config.ngd_rho, prior.alpha, prior.b, cross=cross)
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
    the union.  The prior's log determinant is reused while ``state`` has
    the ``keff`` it was built with; after hyperparameter steps ``elbo``
    factors ``keff + b`` again.
    """
    x_all, y_all = _with_memory(x_batch, y_batch, memory)
    logdet = prior.logdet if state.keff is prior.keff else None
    return elbo(state, lik, x_all, y_all, prior.alpha, prior.b, logdet)


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

    The state is rebuilt at ``theta`` with its dual pair ``(alpha_u, b_u)``
    fixed, and the target is its evidence bound, :func:`elbo` plus the
    memory term: the batch data term, plus the memory data term times
    ``n_old / n_mem``, minus the KL from the rebuilt posterior ``q`` to the
    kernel prior ``p``.  ``q`` is ``p`` times the pseudo-likelihood ``t``
    of the pair, over its normalizer ``Z``, so ``log Z - E_q[log t]`` is
    ``-KL(q || p)``: the bound is the normalizer minus the expected log
    pseudo-likelihood plus the data terms.  Scaling ``y`` by ``c`` and the
    variance and the noise by ``c**2`` shifts the target by a
    ``theta``-free constant, so its steps do not depend on the units of
    ``y``.  A Gaussian likelihood takes its noise from
    ``hyper.noise_variance`` unless that is None.
    """
    rebuilt = make_state(state.kernel.with_hyper(hyper), state.z, state.alpha_u, state.b_u)
    if isinstance(lik, Gaussian) and hyper.noise_variance is not None:
        lik = Gaussian(noise_variance=float(hyper.noise_variance))
    value = elbo(rebuilt, lik, as_points(x_batch), y_batch)
    x_mem = as_points(x_mem)
    if len(x_mem):
        mean_m, var_m = predict(rebuilt, x_mem)
        value += n_old / len(x_mem) * float(np.sum(lik.expected_log_lik(y_mem, mean_m, var_m)))
    return value


def _log_theta(hyper: Hyperparams, lik: Likelihood) -> np.ndarray:
    """``log theta`` in the positional layout of :func:`optimize_hypers`."""
    values = [hyper.variance, *hyper.lengthscales]
    if hyper.constant_variance > 0:
        values.append(hyper.constant_variance)
    if isinstance(lik, Gaussian):
        values.append(lik.noise_variance)
    return np.log(np.asarray(values, dtype=np.float64))


def _hyper_at(log_theta: np.ndarray, template: Hyperparams, lik: Likelihood) -> Hyperparams:
    """Inverse of :func:`_log_theta`; what theta leaves out comes from ``template``."""
    theta = np.exp(log_theta)
    n_ls = len(template.lengthscales)
    rest = iter(theta[1 + n_ls :])
    return Hyperparams(
        variance=float(theta[0]),
        lengthscales=theta[1 : 1 + n_ls],
        constant_variance=float(next(rest)) if template.constant_variance > 0 else 0.0,
        noise_variance=float(next(rest)) if isinstance(lik, Gaussian) else template.noise_variance,
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

    ``theta`` is positional: the signal variance, the lengthscales in order,
    ``constant_variance`` if it is positive, and, for a Gaussian likelihood,
    the noise read from ``lik`` (the value NGD ran with); for any other
    likelihood the kernel's ``noise_variance`` passes through unchanged.
    Gradients come from central finite differences (step ``FD_STEP``).
    A candidate step is rejected, and the learning rate halved, whenever it
    would decrease the objective by more than 1e-6 or make it non-finite.
    Returns the state rebuilt at the accepted hyperparameters, the matching
    likelihood, and the trace of accepted objective values.
    """
    hyper = state.kernel.hyper
    log_theta = _log_theta(hyper, lik)

    def objective(lt: np.ndarray) -> float:
        h = _hyper_at(lt, hyper, lik)
        return hyper_objective(state, lik, x_batch, y_batch, memory.inputs, memory.labels, n_old, h)

    current = objective(log_theta)
    trace = [current]
    lr = config.hyper_lr
    m1 = np.zeros_like(log_theta)
    m2 = np.zeros_like(log_theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, config.hyper_steps + 1):
        grad = hyper_gradient(objective, log_theta, FD_STEP)
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

    final_hyper = _hyper_at(log_theta, hyper, lik)
    new_state = make_state(state.kernel.with_hyper(final_hyper), state.z, state.alpha_u, state.b_u)
    if isinstance(lik, Gaussian):
        lik = Gaussian(noise_variance=final_hyper.noise_variance)
    return new_state, lik, trace


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
    batch and its dict is merged into that batch's record.  Each record
    carries the batch's ``clip_magnitude``; batches whose clip exceeds
    ``CLIP_RTOL`` times the Frobenius norm of the repaired prior precision
    (at least 1) are summed up in one warning at the end of the run.  The
    adjusted prior is released once the objective and the clip are read, so
    its ``b`` and the ``keff`` it holds live neither through memory curation
    nor into the next batch.  A Gaussian likelihood owns the noise: a kernel
    ``noise_variance`` that is set and differs from it raises
    :class:`ValueError` before any batch, and a batch whose inputs and labels
    differ in length raises :class:`ValueError` naming the batch.
    """
    noise = kernel.hyper.noise_variance
    if isinstance(lik, Gaussian) and noise is not None and noise != lik.noise_variance:
        raise ValueError(
            f"kernel noise_variance {noise} differs from the Gaussian likelihood's "
            f"{lik.noise_variance}; make them equal or leave the kernel's unset"
        )
    state: DualState | None = None
    memory: MemorySet | None = None
    records: list[dict] = []
    clips: list[float] = []
    n_old = 0
    for batch_index, (x_batch, y_batch) in enumerate(batches):
        start = time.perf_counter()
        x_batch = as_points(x_batch)
        y_batch = np.asarray(y_batch, dtype=np.float64)
        if len(x_batch) != len(y_batch):
            raise ValueError(
                f"batch {batch_index} has {len(x_batch)} inputs but {len(y_batch)} labels"
            )
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
        clip = prior.clip_magnitude
        if clip > CLIP_RTOL * max(float(np.linalg.norm(prior.b)), 1.0):
            clips.append(clip)
        del prior

        memory = update_memory(
            memory,
            state,
            lik,
            x_batch,
            y_batch,
            config.memory_capacity,
            rng_seed=[seed, batch_index],
        )
        n_old += len(y_batch)

        record = {
            "batch_index": batch_index,
            "n_seen": n_old,
            "elbo_like_objective": float(objective),
            "theta": _theta_record(state.kernel.hyper, lik),
            "wall_ms": 1000.0 * (time.perf_counter() - start),
            "seed": seed,
            "clip_magnitude": clip,
        }
        if evaluate is not None:
            record.update(evaluate(state, lik))
        records.append(record)
    if state is None:
        raise ValueError("run_stream needs at least one batch")
    if clips:
        logger.warning(
            "memory removal left the prior precision indefinite on %d of %d batches; "
            "clipped eigenvalues by up to %.3e", len(clips), len(records), max(clips),
        )
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
