"""Sparse variational GP state in the dual parameterization.

The variational posterior over the inducing values ``u`` is carried by two
dual parameters instead of a mean and covariance: a vector ``alpha_u`` and a
PSD matrix ``b_u``, related to the moments by::

    mean  = alpha_u
    cov   = K_zz (K_zz + b_u)^{-1} K_zz

``b_u`` aggregates per-point site precisions pushed through the kernel
(``sum_i k_zi beta_i k_zi^T`` at stationarity) and ``alpha_u`` plays the same
role for the site means, which is what makes streaming updates and memory
removal cheap: contributions of individual observations add and subtract in
this parameterization.

All functions here treat :class:`DualState` as immutable and return new
states.  The effective ``K_zz`` is the factorized (jitter-regularized) Gram
matrix throughout, so the algebraic identities between the dual and moment
forms hold exactly even when a jitter was needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .kernels import (
    CholeskyFactor,
    GramFactor,
    KernelSpec,
    as_points,
    gram,
    gram_diag,
    spec_from_dict,
    spec_to_dict,
    stable_cholesky,
)
from .likelihoods import Likelihood, SiteValues

RANK_TOL = 1e-10

# Query rows per block in predict: bounds its scratch at O(M * PREDICT_BLOCK).
PREDICT_BLOCK = 2048


@dataclass(frozen=True)
class DualState:
    """Immutable snapshot of the variational posterior.

    Carries both factors every posterior quantity is built from: ``kzz``, the
    Gram matrix of ``z`` with its Cholesky factor, and ``kq``, the Cholesky
    factor of ``kzz.regularized + b_u``.  ``kq`` is set wherever ``b_u`` is
    set (:func:`make_state` factors it, :func:`ngd_step` hands over the
    factor it solved with), so no reader refactorizes it.
    """

    kernel: KernelSpec
    z: np.ndarray
    alpha_u: np.ndarray
    b_u: np.ndarray
    kzz: GramFactor
    kq: CholeskyFactor

    @property
    def num_inducing(self) -> int:
        return self.z.shape[0]


@dataclass
class GaussianFactor:
    """An (possibly degenerate) unnormalized Gaussian factor on ``u``.

    Stored in natural form: ``log f(u) = -1/2 u^T P u + u^T l + const`` with
    PSD ``P`` of rank ``rank``; the normalization constant treats the factor
    as a density on its ``rank``-dimensional support.
    """

    precision: np.ndarray
    linear: np.ndarray
    rank: int
    logdet_plus: float
    _eigvals: np.ndarray
    _eigvecs: np.ndarray


def make_state(
    kernel: KernelSpec,
    z: np.ndarray,
    alpha_u: np.ndarray | None = None,
    b_u: np.ndarray | None = None,
) -> DualState:
    """Build a state from inducing inputs and (optionally) dual parameters."""
    z = as_points(z)
    m = z.shape[0]
    if alpha_u is None:
        alpha_u = np.zeros(m)
    if b_u is None:
        b_u = np.zeros((m, m))
    alpha_u = np.asarray(alpha_u, dtype=np.float64)
    b_u = np.asarray(b_u, dtype=np.float64)
    if alpha_u.shape != (m,) or b_u.shape != (m, m):
        raise ValueError("dual parameter shapes do not match the inducing set")
    kzz = stable_cholesky(gram(kernel, z))
    return DualState(
        kernel=kernel, z=z, alpha_u=alpha_u, b_u=b_u, kzz=kzz, kq=_sum_factor(kzz, b_u)
    )


def _sum_factor(kzz: GramFactor, b_u: np.ndarray) -> CholeskyFactor:
    """Cholesky factor of ``K_zz + b_u``, without keeping the summed matrix."""
    factor = stable_cholesky(kzz.regularized + b_u)
    return CholeskyFactor(chol=factor.chol, jitter_used=factor.jitter_used)


def recover_moments(state: DualState) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of ``q(u)``.

    The mean is ``alpha_u`` itself (returned as a copy, bit for bit); the
    covariance is ``K_zz (K_zz + b_u)^{-1} K_zz``.
    """
    keff = state.kzz.regularized
    cov = keff @ state.kq.solve(keff)
    return state.alpha_u.copy(), 0.5 * (cov + cov.T)


def predict(state: DualState, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginal predictive mean and variance of ``f`` at ``x_star``.

    Works directly on the dual parameters::

        mean = k_*z K_zz^{-1} alpha_u
        var  = k_** - k_*z [K_zz^{-1} - (K_zz + b_u)^{-1}] k_z*

    Both factors come from the state; the query rows are processed in
    blocks of ``PREDICT_BLOCK``, so the ``M x rows`` scratch does not grow
    with the number of query points.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    weights = state.kzz.solve(state.alpha_u)
    mean = np.empty(len(x_star))
    var = gram_diag(state.kernel, x_star)
    for lo in range(0, len(x_star), PREDICT_BLOCK):
        rows = slice(lo, lo + PREDICT_BLOCK)
        k_star = gram(state.kernel, state.z, x_star[rows])
        mean[rows] = k_star.T @ weights
        half = state.kzz.half_solve(k_star)
        var[rows] -= np.einsum("ij,ij->j", half, half)
        del half
        half = state.kq.half_solve(k_star)
        del k_star
        var[rows] += np.einsum("ij,ij->j", half, half)
    return mean, var


def compute_sites(state: DualState, lik: Likelihood, x: np.ndarray, y: np.ndarray) -> SiteValues:
    """Site expectations of every ``(x_i, y_i)`` at the current marginals."""
    mean, var = predict(state, x)
    return lik.site_expectations(y, mean, var)


def _prior_pair(
    m: int,
    prior_alpha: np.ndarray | None,
    prior_b: np.ndarray | None,
    prior_mean_ref: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(alpha, b, mean_ref)`` of a prior: the zero pair when none is given."""
    if (prior_alpha is None) != (prior_b is None):
        raise ValueError("pass both prior_alpha and prior_b or neither")
    if prior_alpha is None:
        prior_alpha, prior_b = np.zeros(m), np.zeros((m, m))
    if prior_mean_ref is None:
        prior_mean_ref = prior_alpha
    return prior_alpha, prior_b, prior_mean_ref


def ngd_step(
    state: DualState,
    lik: Likelihood,
    x: np.ndarray,
    y: np.ndarray,
    rho: float,
    prior_alpha: np.ndarray | None = None,
    prior_b: np.ndarray | None = None,
    prior_mean_ref: np.ndarray | None = None,
) -> DualState:
    """One natural-gradient step with step size ``rho`` on the given data.

    The convex combination between the current natural parameters and the
    prior-plus-sites target is taken in natural-parameter space, then mapped
    back to the dual pair; sites are evaluated once at the pre-step marginals
    (Jacobi style).  ``rho = 0`` is the identity; ``rho = 1`` with a Gaussian
    likelihood jumps straight to the prior+data posterior, which makes the
    step double as exact rank-one conditioning.

    ``prior_alpha``/``prior_b`` default to the zero pair (the kernel prior).
    ``prior_mean_ref`` anchors the prior's linear term; by default the prior
    pair is read as self-consistent (anchored at ``prior_alpha``), which is
    exact for the zero prior and for conditioning on the state's own duals.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    prior_alpha, prior_b, prior_mean_ref = _prior_pair(
        state.num_inducing, prior_alpha, prior_b, prior_mean_ref
    )

    sites = compute_sites(state, lik, x, y)
    kzx = gram(state.kernel, state.z, x)
    site_alpha = kzx @ sites.alpha_hat
    site_b = (kzx * sites.beta_hat) @ kzx.T

    b_new = (1.0 - rho) * state.b_u + rho * (prior_b + site_b)
    b_new = 0.5 * (b_new + b_new.T)
    alpha_raw = (1.0 - rho) * state.alpha_u + rho * (prior_alpha + site_alpha)

    keff = state.kzz.regularized
    carry = (b_new - rho * prior_b) @ state.kzz.solve(state.alpha_u)
    anchor = rho * (prior_b @ state.kzz.solve(prior_mean_ref))
    kq = _sum_factor(state.kzz, b_new)
    alpha_new = keff @ kq.solve(alpha_raw + carry + anchor)

    return DualState(
        kernel=state.kernel, z=state.z, alpha_u=alpha_new, b_u=b_new, kzz=state.kzz, kq=kq
    )


def iterate_ngd(
    state: DualState,
    lik: Likelihood,
    x: np.ndarray,
    y: np.ndarray,
    rho: float,
    max_steps: int = 1000,
    tol: float = 1e-8,
    prior_alpha: np.ndarray | None = None,
    prior_b: np.ndarray | None = None,
    prior_mean_ref: np.ndarray | None = None,
) -> tuple[DualState, int, bool]:
    """Run :func:`ngd_step` until the dual parameters stop moving.

    Stops when ``max(|d alpha|, |d b|)`` falls below ``tol`` or after
    ``max_steps`` iterations; returns ``(state, steps_taken, converged)``.
    """
    for step in range(1, max_steps + 1):
        new = ngd_step(state, lik, x, y, rho, prior_alpha, prior_b, prior_mean_ref)
        delta = max(
            float(np.max(np.abs(new.alpha_u - state.alpha_u), initial=0.0)),
            float(np.max(np.abs(new.b_u - state.b_u), initial=0.0)),
        )
        state = new
        if delta < tol:
            return state, step, True
    return state, max_steps, False


def elbo(
    state: DualState,
    lik: Likelihood,
    x: np.ndarray,
    y: np.ndarray,
    prior_alpha: np.ndarray | None = None,
    prior_b: np.ndarray | None = None,
    prior_mean_ref: np.ndarray | None = None,
) -> float:
    """Evidence lower bound: expected log-likelihoods minus KL to the prior.

    The prior is the Gaussian encoded by ``(prior_alpha, prior_b)`` (the
    kernel prior when omitted), anchored like in :func:`ngd_step`.  An empty
    data set with a zero state gives exactly zero.
    """
    m = state.num_inducing
    kernel_prior = prior_b is None
    prior_alpha, prior_b, prior_mean_ref = _prior_pair(m, prior_alpha, prior_b, prior_mean_ref)

    x = np.asarray(x, dtype=np.float64)
    ell = 0.0
    if x.size:
        mean, var = predict(state, x)
        ell = float(np.sum(lik.expected_log_lik(y, mean, var)))

    keff = state.kzz.regularized
    lq = state.kq
    # The kernel prior's factor is K_zz's own.
    lp = state.kzz if kernel_prior else stable_cholesky(keff + prior_b)

    # KL(q || prior) written entirely in dual quantities:
    # trace term tr(P_p V_q) collapses to tr((K + B_pr)(K + B_u)^{-1}).
    trace = float(np.trace(lq.solve(keff + prior_b)))
    prior_mean = keff @ lp.solve(prior_alpha + prior_b @ state.kzz.solve(prior_mean_ref))
    d = state.kzz.solve(prior_mean - state.alpha_u)
    quad = float(d @ ((keff + prior_b) @ d))
    kl = 0.5 * (trace + quad - m - lp.logdet() + lq.logdet())
    return ell - kl


def dual_factor(kzz: GramFactor, alpha: np.ndarray, b: np.ndarray, mean_ref: np.ndarray) -> GaussianFactor:
    """Natural-form Gaussian factor encoded by a dual pair.

    Precision ``K^{-1} b K^{-1}`` and linear term
    ``K^{-1} alpha + precision @ mean_ref``; the factor is the product of the
    sites the pair aggregates, normalized on its support.
    """
    precision = kzz.solve(kzz.solve(0.5 * (b + b.T)).T)
    precision = 0.5 * (precision + precision.T)
    linear = kzz.solve(alpha) + precision @ mean_ref
    w, u = eigh(precision)
    cutoff = RANK_TOL * max(float(w.max(initial=0.0)), 0.0)
    keep = w > cutoff
    rank = int(np.count_nonzero(keep))
    logdet_plus = float(np.sum(np.log(w[keep]))) if rank else 0.0
    return GaussianFactor(
        precision=precision,
        linear=linear,
        rank=rank,
        logdet_plus=logdet_plus,
        _eigvals=w[keep],
        _eigvecs=u[:, keep],
    )


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


def state_to_dict(state: DualState) -> dict:
    """JSON-ready representation of a state (kernel, Z, dual parameters)."""
    return {
        "kernel": spec_to_dict(state.kernel),
        "z": state.z.tolist(),
        "alpha_u": state.alpha_u.tolist(),
        "b_u": state.b_u.tolist(),
    }


def state_from_dict(data: dict) -> DualState:
    """Inverse of :func:`state_to_dict`."""
    return make_state(
        kernel=spec_from_dict(data["kernel"]),
        z=np.asarray(data["z"], dtype=np.float64),
        alpha_u=np.asarray(data["alpha_u"], dtype=np.float64),
        b_u=np.asarray(data["b_u"], dtype=np.float64),
    )


__all__ = [
    "DualState",
    "GaussianFactor",
    "make_state",
    "recover_moments",
    "predict",
    "compute_sites",
    "ngd_step",
    "iterate_ngd",
    "elbo",
    "dual_factor",
    "expected_log_factor",
    "state_to_dict",
    "state_from_dict",
]
