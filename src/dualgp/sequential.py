"""Streaming engine: memory removal, replay updates, and hyperparameter steps.

Each incoming batch is processed by :func:`step` in a fixed order: refresh
the inducing set over old-Z-plus-batch and project the duals, subtract the
replay memory's site contributions from the posterior to form an adjusted
prior, run NGD steps on batch-plus-memory against that prior, take guarded
hyperparameter ascent steps, and finally re-curate the memory under the
updated state.  A :class:`Stream` holds what survives a batch; the first is
the kernel prior on an empty inducing set, so the first batch's inducing
points come from the same refresh as later ones'.  :func:`run_stream`
folds :func:`step` over the batches.  Each stage drops the kernel blocks it
builds and hands on marginals, never a block.

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

import itertools
import logging
import time
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .dual import DualState, cross_gram, elbo, make_state, ngd_step, weighted_gram
from .kernels import FactorizationFailed, Hyperparams, KernelSpec, as_count, as_points, as_real, stable_cholesky
from .likelihoods import BernoulliLogit, Gaussian, Likelihood
from .memory import MemorySet, empty_memory, update_memory
from .representation import refresh_representation

logger = logging.getLogger(__name__)

# Step in log-theta of the central differences taken by optimize_hypers.
FD_STEP = 1e-4

# A clip of the adjusted prior's precision up to this multiple of its scale
# (at least 1) is rounding; run_stream warns once about the larger ones.
CLIP_RTOL = 1e-12


@dataclass(frozen=True)
class SequentialConfig:
    """Knobs of the streaming engine.

    ``ngd_rho``/``ngd_steps`` control the per-batch natural-gradient
    iterations; ``hyper_steps``/``hyper_lr`` the guarded hyperparameter
    ascent; ``memory_capacity`` the replay budget (0 disables memory).  The
    memory is always removed from the prior, replayed in the NGD data and
    curated together with the new batch.  A value outside its range raises
    :class:`ValueError`.  The reals, stored as :func:`~dualgp.kernels.as_real`
    returns them: ``0 < ngd_rho <= 1`` and ``0 < hyper_lr < inf``.  The counts,
    by :func:`~dualgp.kernels.as_count`: ``num_inducing`` and ``ngd_steps`` (a
    stream must learn from each batch) at least 1, the others at least 0.
    """

    num_inducing: int
    ngd_rho: float = 0.8
    ngd_steps: int = 2
    memory_capacity: int = 0
    hyper_steps: int = 0
    hyper_lr: float = 1e-2

    def __post_init__(self) -> None:
        for name, least in (("num_inducing", 1), ("ngd_steps", 1), ("memory_capacity", 0), ("hyper_steps", 0)):
            as_count(name, getattr(self, name), least)
        object.__setattr__(self, "ngd_rho", as_real("ngd_rho", self.ngd_rho, most=1.0))
        object.__setattr__(self, "hyper_lr", as_real("hyper_lr", self.hyper_lr))


@dataclass(frozen=True, eq=False)
class AdjustedPrior:
    """Old posterior with the memory's site contributions subtracted.

    ``alpha``/``b`` is a dual pair read like a state's: ``alpha`` is the
    prior mean.  ``b`` is PSD-repaired if the literal subtraction left it
    indefinite, and ``clip_magnitude`` is the largest eigenvalue clipped.
    ``logdet`` is the log determinant of ``keff + b``, the only part of its
    factor read after the prior mean is solved.  ``keff`` is the factorized
    K_zz of the state the prior was formed from and ``keff_ref`` a weak
    reference to it: the objective of a state with that ``keff`` object
    reuses ``logdet``, and the prior does not keep K_zz alive.
    """

    alpha: np.ndarray
    b: np.ndarray
    keff_ref: weakref.ref
    logdet: float
    clip_magnitude: float = 0.0


def remove_memory(state: DualState, lik: Likelihood, memory: MemorySet) -> AdjustedPrior:
    """Subtract the memory's sites from the posterior to form the prior.

    Sites ``(alpha_i, beta_i)`` are evaluated at the current marginals.  The
    precision is ``b = b_u - sum_i k_zi beta_i k_zi^T``, or ``U max(w, 0) U^T``
    of its eigenpairs ``(w, U)`` if the subtraction left it indefinite, both
    by :func:`~dualgp.dual.weighted_gram`.  The mean is
    ``alpha_u - K (K + b)^{-1} sum_i k_zi alpha_i`` (``K = K_zz``), the pair
    whose natural parameters are the posterior's minus the sites'.  ``K + b``
    is factored once, for that one solve and its log determinant, and only
    the log determinant is kept.  With no memory the prior is the posterior:
    it shares the state's arrays (states are immutable), and its log
    determinant is ``kq``'s.
    """
    keff = state.keff
    if len(memory) == 0:
        return AdjustedPrior(alpha=state.alpha_u, b=state.b_u, keff_ref=weakref.ref(keff), logdet=state.kq.logdet)

    cross = cross_gram(state, memory.inputs)
    alpha_hat, beta_hat = lik.site_expectations(memory.labels, *cross.marginals(state))
    b_pr = state.b_u - weighted_gram(cross.kzx, beta_hat)
    site_alpha = cross.kzx @ alpha_hat
    del cross  # before the eigh workspace
    w, u = eigh(b_pr)
    clip = max(-float(w.min(initial=0.0)), 0.0)
    if clip > 0.0:
        b_pr = weighted_gram(u, np.maximum(w, 0.0))
    del w, u  # before the factorization
    factor = stable_cholesky(keff + b_pr)
    alpha_pr = state.alpha_u - keff @ factor.solve(site_alpha)
    return AdjustedPrior(
        alpha=alpha_pr, b=b_pr, keff_ref=weakref.ref(keff), logdet=factor.logdet, clip_magnitude=clip
    )


def process_batch(
    state: DualState,
    lik: Likelihood,
    config: SequentialConfig,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    memory: MemorySet,
) -> tuple[DualState, AdjustedPrior, tuple[np.ndarray, np.ndarray]]:
    """NGD updates for one batch against the memory-adjusted prior.

    The update data is batch plus memory, and its cross-Gram with the
    inducing inputs is built once for all the steps.  Returns the updated
    state, the prior (for the objective) and the state's ``(mean, var)``
    over the batch then the memory.  Each step is handed its input state
    (see :mod:`dualgp.dual`), which it drops once it has read the marginals.
    """
    prior = remove_memory(state, lik, memory)
    x_fit = np.vstack([as_points(x_batch), memory.inputs])
    y_fit = np.concatenate([np.asarray(y_batch, dtype=np.float64), memory.labels])
    cross = cross_gram(state, x_fit)
    for _ in range(config.ngd_steps):
        held, state = [state], None
        state = ngd_step(held.pop(), lik, x_fit, y_fit, config.ngd_rho, prior.alpha, prior.b, cross=cross)
    return state, prior, cross.marginals(state)


def seq_objective(
    state: DualState,
    lik: Likelihood,
    y_fit: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    prior: AdjustedPrior,
) -> float:
    """Streaming evidence bound of batch-plus-memory against the adjusted prior.

    ``y_fit`` are the labels of the batch then the memory, and ``mean`` and
    ``var`` the state's marginals there.  The prior enters as a normalized
    Gaussian, so with the memory covering all past data and a converged old
    state this equals the batch bound on the union.  The prior's log
    determinant is reused while ``state`` has the ``keff`` it was built
    with; after hyperparameter steps ``elbo`` factors ``keff + b`` again.
    """
    logdet = prior.logdet if state.keff is prior.keff_ref() else None
    return elbo(state, lik, y_fit, mean, var, prior.alpha, prior.b, logdet)


def hyper_objective(
    state: DualState,
    lik: Likelihood,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    x_mem: np.ndarray,
    y_mem: np.ndarray,
    n_old: int,
    hyper: Hyperparams,
) -> tuple[float, DualState, Likelihood, tuple[np.ndarray, np.ndarray]]:
    """Hyperparameter ascent target with the dual parameters frozen.

    The state is rebuilt at ``theta`` with its dual pair ``(alpha_u, b_u)``
    fixed, and the target is its evidence bound, :func:`elbo` plus the
    memory term, at the marginals of one cross-Gram over batch and memory:
    the batch data term, plus the memory data term times ``n_old / n_mem``
    (``n_old`` is a count of at least 0, :func:`~dualgp.kernels.as_count`),
    minus the KL from the rebuilt posterior ``q`` to the kernel prior ``p``.
    ``q`` is ``p`` times the pseudo-likelihood ``t`` of the pair, over its
    normalizer ``Z``, so ``log Z - E_q[log t]`` is ``-KL(q || p)``: the bound
    is the normalizer minus the expected log pseudo-likelihood plus the data
    terms.  Scaling ``y`` by ``c`` and the variance and the noise by
    ``c**2`` shifts the target by a ``theta``-free constant, so its steps do
    not depend on the units of ``y``.  A Gaussian likelihood takes its noise
    from ``hyper.noise_variance`` unless that is None.  Returns the target,
    the rebuilt state, the likelihood and the state's ``(mean, var)`` over
    the batch then the memory, which an accepted candidate keeps.
    """
    n_old = as_count("n_old", n_old, 0)
    rebuilt = make_state(KernelSpec(state.kernel.family, hyper), state.z, state.alpha_u, state.b_u)
    if isinstance(lik, Gaussian) and hyper.noise_variance is not None:
        lik = Gaussian(hyper.noise_variance)
    mean, var = cross_gram(rebuilt, np.vstack([as_points(x_batch), as_points(x_mem)])).marginals(rebuilt)
    return _hyper_bound(rebuilt, lik, y_batch, y_mem, n_old, mean, var), rebuilt, lik, (mean, var)


def _hyper_bound(state, lik, y_batch, y_mem, n_old, mean, var) -> float:
    """:func:`hyper_objective`'s target at ``state``'s ``(mean, var)`` over the batch then the memory."""
    n = len(y_batch)
    value = elbo(state, lik, y_batch, mean[:n], var[:n])
    if len(y_mem):
        value += n_old / len(y_mem) * float(np.sum(lik.expected_log_lik(y_mem, mean[n:], var[n:])))
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
    constant = next(rest) if template.constant_variance > 0 else 0.0
    noise = next(rest) if isinstance(lik, Gaussian) else template.noise_variance
    return Hyperparams(theta[0], theta[1 : 1 + n_ls], constant, noise)


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
    marginals: tuple[np.ndarray, np.ndarray],
) -> tuple[DualState, Likelihood, list[float], tuple[np.ndarray, np.ndarray]]:
    """Guarded Adam-style ascent on :func:`hyper_objective` in log space.

    ``theta`` is positional: the signal variance, the lengthscales in order,
    ``constant_variance`` if it is positive, and, for a Gaussian likelihood,
    the noise read from ``lik`` (the value NGD ran with); for any other
    likelihood the kernel's ``noise_variance`` passes through unchanged.
    Gradients come from central finite differences (step ``FD_STEP``).
    A candidate step is rejected, and the learning rate halved, whenever it
    would decrease the objective by more than 1e-6 or cannot be evaluated:
    ``exp`` of the candidate is not positive and finite (it is then not
    evaluated), or its evaluation raises :class:`FactorizationFailed` or
    gives a non-finite value.  ``marginals`` are ``state``'s ``(mean, var)``
    over the batch then the memory; the start value is read from them,
    ``state`` and ``lik``, not rebuilt.  Returns the last accepted candidate's
    state, likelihood and marginals as its evaluation built them, with the
    objective trace third (it repeats the previous value for a rejected
    step); with no accepted step they are the inputs themselves.  ``state``
    may be handed over (see :mod:`dualgp.dual`): an accepted candidate
    replaces it, and a rejected one is dropped before the next gradient.
    """
    hyper = state.kernel.hyper
    log_theta = _log_theta(hyper, lik)

    def evaluate(lt: np.ndarray):
        # The kept state and likelihood rebuild the same bits as the inputs.
        h = _hyper_at(lt, hyper, lik)
        return hyper_objective(state, lik, x_batch, y_batch, memory.inputs, memory.labels, n_old, h)

    def evaluate_candidate(lt: np.ndarray):
        """``evaluate(lt)``, or None where it cannot be evaluated."""
        with np.errstate(all="ignore"):
            theta = np.exp(lt)
            if not np.all((theta > 0.0) & (theta < np.inf)):
                return None
            try:
                return evaluate(lt)
            except FactorizationFailed:
                return None

    current = _hyper_bound(state, lik, y_batch, memory.labels, n_old, *marginals)
    trace = [current]
    lr = config.hyper_lr
    m1 = np.zeros_like(log_theta)
    m2 = np.zeros_like(log_theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, config.hyper_steps + 1):
        grad = hyper_gradient(lambda lt: evaluate(lt)[0], log_theta, FD_STEP)
        m1 = beta1 * m1 + (1.0 - beta1) * grad
        m2 = beta2 * m2 + (1.0 - beta2) * grad * grad
        m1_hat = m1 / (1.0 - beta1**t)
        m2_hat = m2 / (1.0 - beta2**t)
        candidate = log_theta + lr * m1_hat / (np.sqrt(m2_hat) + eps)
        evaluated = evaluate_candidate(candidate)
        if evaluated is not None and np.isfinite(evaluated[0]) and evaluated[0] >= current - 1e-6:
            log_theta, (current, state, lik, marginals) = candidate, evaluated
        else:
            lr *= 0.5
        del evaluated
        trace.append(current)
    return state, lik, trace, marginals


@dataclass(frozen=True)
class Stream:
    """What survives a batch, and the run so far.

    ``n_old``, the number of labels seen, scales the memory term of the
    hyperparameter objective, and the next batch's index, which seeds its
    curation, is ``len(records)``.  ``clip_count`` and ``clip_max`` count
    and bound the clips above ``CLIP_RTOL`` (see :func:`run_stream`).
    :meth:`start` rejects a kernel noise other than the Gaussian likelihood's
    and a ``dim`` or ``seed`` that is not a count of at least 0
    (:func:`~dualgp.kernels.as_count`).
    """

    config: SequentialConfig
    seed: int
    lik: Likelihood
    state: DualState
    memory: MemorySet
    n_old: int = 0
    records: tuple[dict, ...] = ()
    clip_count: int = 0
    clip_max: float = 0.0

    @classmethod
    def start(cls, kernel: KernelSpec, lik: Likelihood, config: SequentialConfig, dim: int, seed: int = 0) -> Stream:
        """The stream before its first batch: the kernel prior on an empty ``dim``-dimensional inducing set."""
        _check_noise(kernel, lik)
        dim, seed = as_count("dim", dim, 0), as_count("seed", seed, 0)
        return cls(config, seed, lik, make_state(kernel, np.empty((0, dim))), empty_memory(dim))


def _check_noise(kernel: KernelSpec, lik: Likelihood) -> None:
    noise = kernel.hyper.noise_variance
    if isinstance(lik, Gaussian) and noise is not None and noise != lik.noise_variance:
        raise ValueError(f"kernel noise_variance {noise} differs from the Gaussian likelihood's "
                         f"{lik.noise_variance}; make them equal or leave the kernel's unset")


def _batch_arrays(index: int, x_batch, y_batch) -> tuple[np.ndarray, np.ndarray]:
    """Batch ``index`` as ``(n, d)`` inputs and ``(n,)`` labels; other shapes raise :class:`ValueError`."""
    x_batch, y_batch = np.asarray(x_batch, dtype=np.float64), np.asarray(y_batch, dtype=np.float64)
    if x_batch.ndim not in (1, 2) or y_batch.ndim != 1:
        raise ValueError(f"batch {index} has inputs of shape {x_batch.shape} and labels of shape {y_batch.shape}; "
                         "it needs (n, d) or (n,) inputs and (n,) labels")
    return as_points(x_batch), y_batch


def step(stream: Stream, x_batch: np.ndarray, y_batch: np.ndarray) -> Stream:
    """The stream after one more batch, with the batch's record appended.

    Inputs of a shape other than ``(n, d)`` or ``(n,)``, labels of a shape
    other than ``(n,)``, unequal input and label counts, a non-finite value,
    Bernoulli labels outside ``{0, 1}`` and ``{-1, +1}`` or holding, with
    the memory's, both 0 and -1, an input dimension other than the
    stream's and an empty first batch raise
    :class:`ValueError` naming the batch.  ``stream`` is handed over (see
    :mod:`dualgp.dual`): its state goes to the refresh, which frees it, and
    the adjusted prior is released once the objective and the clip are
    read, before memory curation.  Both read the final marginals over the
    batch then the memory: NGD's, or the last accepted hyperparameter
    candidate's.
    """
    start = time.perf_counter()
    config, seed, lik, memory, n_old = stream.config, stream.seed, stream.lik, stream.memory, stream.n_old
    records, clip_count, clip_max = stream.records, stream.clip_count, stream.clip_max
    index, dim = len(records), stream.state.z.shape[1]
    held, stream = [stream.state], None
    x_batch, y_batch = _batch_arrays(index, x_batch, y_batch)
    if len(x_batch) != len(y_batch):
        raise ValueError(f"batch {index} has {len(x_batch)} inputs but {len(y_batch)} labels")
    if not (np.isfinite(x_batch).all() and np.isfinite(y_batch).all()):
        raise ValueError(f"batch {index} has a non-finite input or label")
    if isinstance(lik, BernoulliLogit):
        try:
            lik.canon_labels(np.concatenate([y_batch, memory.labels]))
        except ValueError as exc:
            raise ValueError(f"batch {index}: {exc}") from None
    if index == 0 and not len(x_batch):
        raise ValueError(f"batch {index} is empty; the first batch needs data")
    if x_batch.shape[1] != dim:
        raise ValueError(f"batch {index} has {x_batch.shape[1]} input dimensions but the first batch has {dim}")

    state, prior, marginals = process_batch(
        refresh_representation(held.pop(), x_batch, config.num_inducing), lik, config, x_batch, y_batch, memory
    )
    if config.hyper_steps > 0:
        held, state = [state], None
        state, lik, _, marginals = optimize_hypers(held.pop(), lik, config, x_batch, y_batch, memory, n_old, marginals)
    mean, var = marginals
    objective = seq_objective(state, lik, np.concatenate([y_batch, memory.labels]), mean, var, prior)
    clip = prior.clip_magnitude
    if clip > CLIP_RTOL * max(float(np.linalg.norm(prior.b)), 1.0):
        clip_count, clip_max = clip_count + 1, max(clip_max, clip)
    del prior

    memory = update_memory(memory, lik, x_batch, y_batch, mean, var, config.memory_capacity, rng_seed=[seed, index])
    n_old += len(y_batch)
    record = {
        "batch_index": index,
        "n_seen": n_old,
        "elbo_like_objective": float(objective),
        "theta": _theta_record(state.kernel.hyper, lik),
        "wall_ms": 1000.0 * (time.perf_counter() - start),
        "seed": seed,
        "clip_magnitude": clip,
    }
    return Stream(config, seed, lik, state, memory, n_old, (*records, record), clip_count, clip_max)


def run_stream(
    batches, kernel: KernelSpec, lik: Likelihood, config: SequentialConfig, seed: int = 0, evaluate=None
) -> Stream:
    """Fold :func:`step` over an iterable of ``(x, y)`` batches; returns the last stream.

    The stream starts on the first batch's input dimension; a first batch
    of a shape :func:`step` rejects raises its error before.  ``evaluate``
    (optional) is called as ``evaluate(state, lik)`` after each batch and
    its dict is merged into that batch's record.  Batches whose clip
    exceeds ``CLIP_RTOL`` times the Frobenius norm of the repaired prior
    precision (at least 1) are summed up in one warning at the end.  A
    Gaussian likelihood owns the noise: a kernel ``noise_variance`` that is
    set and differs from it raises :class:`ValueError` before any batch, as
    does a ``seed`` that :meth:`Stream.start` refuses.
    """
    _check_noise(kernel, lik)
    batches = iter(batches)
    first = next(batches, None)
    if first is None:
        raise ValueError("run_stream needs at least one batch")
    stream = Stream.start(kernel, lik, config, _batch_arrays(0, *first)[0].shape[1], seed)
    for x_batch, y_batch in itertools.chain([first], batches):
        held, stream = [stream], None
        stream = step(held.pop(), x_batch, y_batch)
        if evaluate is not None:
            stream.records[-1].update(evaluate(stream.state, stream.lik))
    if stream.clip_count:
        logger.warning(
            "memory removal left the prior precision indefinite on %d of %d batches; "
            "clipped eigenvalues by up to %.3e", stream.clip_count, len(stream.records), stream.clip_max,
        )
    return stream


def _theta_record(hyper: Hyperparams, lik: Likelihood) -> dict:
    """The record's ``theta``: ``hyper``'s entry, with a Gaussian likelihood's noise in place of the kernel's."""
    record = hyper.entry()
    del record["noise_variance"]
    if isinstance(lik, Gaussian):
        record["noise_variance"] = lik.noise_variance
    return record


__all__ = [
    "SequentialConfig",
    "AdjustedPrior",
    "Stream",
    "step",
    "remove_memory",
    "process_batch",
    "seq_objective",
    "hyper_objective",
    "hyper_gradient",
    "optimize_hypers",
    "run_stream",
]
