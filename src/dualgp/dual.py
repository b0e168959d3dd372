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
    GramFactor,
    KernelSpec,
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
    """Immutable snapshot of the variational posterior."""

    kernel: KernelSpec
    z: np.ndarray
    alpha_u: np.ndarray
    b_u: np.ndarray
    kzz: GramFactor

    @property
    def num_inducing(self) -> int:
        return self.z.shape[0]


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
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    m = z.shape[0]
    if alpha_u is None:
        alpha_u = np.zeros(m)
    if b_u is None:
        b_u = np.zeros((m, m))
    alpha_u = np.asarray(alpha_u, dtype=np.float64)
    b_u = np.asarray(b_u, dtype=np.float64)
    if alpha_u.shape != (m,) or b_u.shape != (m, m):
        raise ValueError("dual parameter shapes do not match the inducing set")
    return DualState(kernel=kernel, z=z, alpha_u=alpha_u, b_u=b_u, kzz=stable_cholesky(gram(kernel, z)))


def init_state(kernel: KernelSpec, z: np.ndarray) -> DualState:
    """Fresh state at the prior: zero dual parameters."""
    return make_state(kernel, z)


def _keff(state: DualState) -> np.ndarray:
    return state.kzz.regularized


def recover_moments(state: DualState) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of ``q(u)``.

    The mean is ``alpha_u`` itself (returned as a copy, bit for bit); the
    covariance is ``K_zz (K_zz + b_u)^{-1} K_zz``.
    """
    keff = _keff(state)
    lq = stable_cholesky(keff + state.b_u)
    cov = keff @ lq.solve(keff)
    return state.alpha_u.copy(), 0.5 * (cov + cov.T)


def predict(state: DualState, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginal predictive mean and variance of ``f`` at ``x_star``.

    Works directly on the dual parameters::

        mean = k_*z K_zz^{-1} alpha_u
        var  = k_** - k_*z [K_zz^{-1} - (K_zz + b_u)^{-1}] k_z*

    ``K_zz + b_u`` is factorized once per call; the query rows are then
    processed in blocks of ``PREDICT_BLOCK``, so the ``M x rows`` scratch
    does not grow with the number of query points.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    weights = state.kzz.solve(state.alpha_u)
    lq = stable_cholesky(_keff(state) + state.b_u)
    mean = np.empty(len(x_star))
    var = gram_diag(state.kernel, x_star)
    for lo in range(0, len(x_star), PREDICT_BLOCK):
        rows = slice(lo, lo + PREDICT_BLOCK)
        k_star = gram(state.kernel, state.z, x_star[rows])
        mean[rows] = k_star.T @ weights
        half = state.kzz.half_solve(k_star)
        var[rows] -= np.einsum("ij,ij->j", half, half)
        del half
        half = lq.half_solve(k_star)
        del k_star
        var[rows] += np.einsum("ij,ij->j", half, half)
    return mean, var


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
        - np.sum(a * (_keff(state) @ a), axis=0)
        + np.sum(a * (cov_u @ a), axis=0)
    )
    return mean, var


def compute_sites(state: DualState, lik: Likelihood, x: np.ndarray, y: np.ndarray) -> SiteValues:
    """Site expectations of every ``(x_i, y_i)`` at the current marginals."""
    mean, var = predict(state, x)
    return lik.site_expectations(y, mean, var)


def _zero_prior(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(m), np.zeros((m, m))


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
    m = state.num_inducing
    if prior_alpha is None or prior_b is None:
        if prior_alpha is not None or prior_b is not None:
            raise ValueError("pass both prior_alpha and prior_b or neither")
        prior_alpha, prior_b = _zero_prior(m)
    if prior_mean_ref is None:
        prior_mean_ref = prior_alpha

    sites = compute_sites(state, lik, x, y)
    kzx = gram(state.kernel, state.z, x)
    site_alpha = kzx @ sites.alpha_hat
    site_b = (kzx * sites.beta_hat) @ kzx.T

    b_new = (1.0 - rho) * state.b_u + rho * (prior_b + site_b)
    b_new = 0.5 * (b_new + b_new.T)
    alpha_raw = (1.0 - rho) * state.alpha_u + rho * (prior_alpha + site_alpha)

    keff = _keff(state)
    carry = (b_new - rho * prior_b) @ state.kzz.solve(state.alpha_u)
    anchor = rho * (prior_b @ state.kzz.solve(prior_mean_ref))
    lq = stable_cholesky(keff + b_new)
    alpha_new = keff @ lq.solve(alpha_raw + carry + anchor)

    return DualState(kernel=state.kernel, z=state.z, alpha_u=alpha_new, b_u=b_new, kzz=state.kzz)


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
    if prior_alpha is None or prior_b is None:
        if prior_alpha is not None or prior_b is not None:
            raise ValueError("pass both prior_alpha and prior_b or neither")
        prior_alpha, prior_b = _zero_prior(m)
    if prior_mean_ref is None:
        prior_mean_ref = prior_alpha

    x = np.asarray(x, dtype=np.float64)
    ell = 0.0
    if x.size:
        mean, var = predict(state, x)
        ell = float(np.sum(lik.expected_log_lik(y, mean, var)))

    keff = _keff(state)
    lq = stable_cholesky(keff + state.b_u)
    lp = stable_cholesky(keff + prior_b)

    # KL(q || prior) written entirely in dual quantities:
    # trace term tr(P_p V_q) collapses to tr((K + B_pr)(K + B_u)^{-1}).
    trace = float(np.trace(lq.solve(keff + prior_b)))
    prior_mean = keff @ lp.solve(prior_alpha + prior_b @ state.kzz.solve(prior_mean_ref))
    d = state.kzz.solve(prior_mean - state.alpha_u)
    quad = float(d @ ((keff + prior_b) @ d))
    kl = 0.5 * (trace + quad - m - lp.logdet() + lq.logdet())
    return ell - kl


def pseudo_data(state: DualState) -> PseudoData:
    """Recover the pseudo observations and their noise covariance.

    ``y_tilde = K_zz b_u^+ alpha_u + mean`` and
    ``sigma_tilde = K_zz b_u^+ K_zz``, with the pseudo-inverse taken by
    eigendecomposition (relative rank tolerance 1e-10).  Rank deficiency is
    reported, not repaired.
    """
    keff = _keff(state)
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


def site_reconstruction_check(
    state: DualState, sites: SiteValues, x: np.ndarray
) -> float:
    """Max absolute mismatch between the state and a site-rebuilt state.

    Rebuilds the natural parameters from per-point sites
    (``sum_i a_i beta_i a_i^T + K^{-1}`` and the matching linear term) and
    compares against the state's own natural parameters.  Near zero exactly
    when the state is the fixed point of NGD on ``(x, sites)`` with a zero
    prior.
    """
    kzx = gram(state.kernel, state.z, x)
    a = state.kzz.solve(kzx)
    ki = state.kzz.solve(np.eye(state.num_inducing))
    prec_built = (a * sites.beta_hat) @ a.T + ki
    prec_state = state.kzz.solve(state.kzz.solve(_keff(state) + state.b_u).T)
    mean_u = state.alpha_u
    y_hat = sites.alpha_hat / sites.beta_hat + kzx.T @ state.kzz.solve(mean_u)
    lin_built = (a * sites.beta_hat) @ y_hat
    lin_state = state.kzz.solve(state.alpha_u + state.b_u @ state.kzz.solve(mean_u))
    return max(
        float(np.max(np.abs(prec_built - prec_state), initial=0.0)),
        float(np.max(np.abs(lin_built - lin_state), initial=0.0)),
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
    "PseudoData",
    "GaussianFactor",
    "make_state",
    "init_state",
    "recover_moments",
    "predict",
    "predict_moments_route",
    "compute_sites",
    "ngd_step",
    "iterate_ngd",
    "elbo",
    "pseudo_data",
    "dual_factor",
    "expected_log_factor",
    "site_reconstruction_check",
    "state_to_dict",
    "state_from_dict",
]
