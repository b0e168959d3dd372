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
this parameterization.  Every ``b_u`` equals its transpose exactly
(:func:`make_state` checks): site sums are :func:`weighted_gram`'s, and
only :func:`~dualgp.representation.project_duals` symmetrizes.

A :class:`DualState` is immutable: every function here returns new states
and never writes to a state's arrays, and states may share them.  ``keff``
is the effective ``K_zz`` throughout, so the identities between the dual
and moment forms hold exactly even when a jitter was needed.  A name bound
to a state keeps its four ``M x M`` arrays alive, so a stage that replaces
a state is handed it, popped from a one-element list in the call
(``held, state = [state], None``, then ``f(held.pop(), ...)``), and drops
it at its last read: a called function owns its positional arguments.  The
handed value must be a plain positional argument: ``f(held.pop(), *rest)``
packs its arguments into a tuple that lives until the call returns.  A
stream holds a state and is handed over to its step.

Every reader of the posterior marginals of ``f`` gets them from
:meth:`CrossGram.marginals` of one block per ``K_zz`` factor over the inputs
it reads: NGD, the objective and the curation share one, and so do a BO
fantasy's label and conditioning.  :func:`predict` blocks by rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .kernels import (
    BLOCK_ENTRIES,
    CholeskyFactor,
    KernelSpec,
    as_count,
    as_points,
    as_real,
    gram,
    gram_diag,
    stable_cholesky,
)
from .likelihoods import Likelihood, SiteValues

RANK_TOL = 1e-10


@dataclass(frozen=True)
class DualState:
    """Immutable snapshot of the variational posterior.

    The dual pair ``(alpha_u, b_u)`` on the inducing inputs ``z`` is the
    state; the rest is derived from it once, and readers never rebuild it:
    ``keff`` is ``K_zz + jitter I`` as factorized, ``kzz`` its factor,
    ``kq`` the factor of ``keff + b_u`` and ``kinv_alpha`` is
    ``keff^{-1} alpha_u``.  Each factor holds only its inverse Cholesky
    triangle, built when it is factored, so the state's ``M x M`` arrays are
    ``b_u``, ``keff``, ``kzz.inv`` and ``kq.inv``.  :func:`make_state`
    computes them and :func:`ngd_step` hands over the ``kq`` it solved with
    and shares ``keff`` and ``kzz``.  The invariant: every state is
    ``make_state(kernel, z, alpha_u, b_u)`` bit for bit, so a checkpoint,
    which keeps only those four, reloads it exactly.
    """

    kernel: KernelSpec
    z: np.ndarray
    alpha_u: np.ndarray
    b_u: np.ndarray
    keff: np.ndarray
    kzz: CholeskyFactor
    kq: CholeskyFactor
    kinv_alpha: np.ndarray

    @property
    def num_inducing(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class CrossGram:
    """``K(Z, x)`` of a state's inducing inputs against inputs ``x``.

    ``kzx`` is the ``M x n`` cross-Gram and ``residual`` the Nyström term
    ``k(x, x) - k_xz K_zz^{-1} k_zx`` of each point.  Both depend only on
    the kernel, ``z`` and the factor of ``K_zz``, which :func:`ngd_step`
    keeps, so one cross-Gram serves every step on the same inputs.  ``kzz``
    is the factor it was built with: a state with another one rejects it.
    :func:`predict` builds one per block of query rows.
    """

    kzx: np.ndarray
    residual: np.ndarray
    kzz: CholeskyFactor

    def marginals(self, state: DualState) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean ``k_xz K_zz^{-1} alpha_u`` and variance
        ``k_xx - k_xz [K_zz^{-1} - (K_zz + b_u)^{-1}] k_zx`` of ``f`` under ``state``."""
        if self.kzz is not state.kzz:
            raise ValueError("cross-Gram built for another inducing set or kernel")
        half = state.kq.half_solve(self.kzx)
        var = self.residual + np.einsum("ij,ij->j", half, half)
        return self.kzx.T @ state.kinv_alpha, var


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
    """Build a state from inducing inputs and (optionally) dual parameters;
    the only code that factors a state's ``K_zz``.  A ``b_u`` other than its
    transpose raises :class:`ValueError`."""
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
    if not np.array_equal(b_u, b_u.T):
        raise ValueError("b_u is not symmetric: it must equal its transpose exactly")
    k = gram(kernel, z)
    kzz = stable_cholesky(k)
    keff = k + kzz.jitter_used * np.eye(m) if kzz.jitter_used else k
    return DualState(
        kernel=kernel, z=z, alpha_u=alpha_u, b_u=b_u, keff=keff, kzz=kzz,
        kq=stable_cholesky(keff + b_u), kinv_alpha=kzz.solve(alpha_u),
    )


def recover_moments(state: DualState) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of ``q(u)``.

    The mean is ``alpha_u`` itself (returned as a copy, bit for bit); the
    covariance is ``K_zz (K_zz + b_u)^{-1} K_zz``.
    """
    half = state.kq.half_solve(state.keff)
    return state.alpha_u.copy(), half.T @ half


def predict(state: DualState, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginal predictive mean and variance of ``f`` at ``x_star``.

    :meth:`CrossGram.marginals` of the :func:`cross_gram` of each block of
    ``BLOCK_ENTRIES // M`` query rows (at least one): 655 rows at M = 50,
    327 at M = 100, 109 at M = 300.  A block holds at most two ``M x rows``
    arrays at once, its cross-Gram and one half-solve (at most 256 KiB
    each), so the scratch grows neither with ``M`` nor with the number of
    query points.  With no inducing points it is the kernel prior.
    """
    x_star = as_points(x_star)
    mean, var = np.empty(len(x_star)), np.empty(len(x_star))
    block = max(1, BLOCK_ENTRIES // max(state.num_inducing, 1))
    for lo in range(0, len(x_star), block):
        rows = slice(lo, lo + block)
        mean[rows], var[rows] = cross_gram(state, x_star[rows]).marginals(state)
    return mean, var


def compute_sites(state: DualState, lik: Likelihood, x: np.ndarray, y: np.ndarray) -> SiteValues:
    """Site expectations of every ``(x_i, y_i)`` at the current marginals."""
    mean, var = predict(state, x)
    return lik.site_expectations(y, mean, var)


def cross_gram(state: DualState, x: np.ndarray) -> CrossGram:
    """The :class:`CrossGram` of ``state``'s inducing inputs against ``x``."""
    x = as_points(x)
    kzx = gram(state.kernel, state.z, x)
    half = state.kzz.half_solve(kzx)
    residual = gram_diag(state.kernel, x)
    residual -= np.einsum("ij,ij->j", half, half)
    return CrossGram(kzx=kzx, residual=residual, kzz=state.kzz)


def weighted_gram(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``C diag(w) C^T`` for ``w >= 0`` as ``s @ s.T``, which numpy's SYRK path makes exactly symmetric."""
    s = c * np.sqrt(w)
    return s @ s.T


def _prior_pair(
    m: int, prior_alpha: np.ndarray | None, prior_b: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha, b)`` of a prior: the zero pair when none is given."""
    if (prior_alpha is None) != (prior_b is None):
        raise ValueError("pass both prior_alpha and prior_b or neither")
    if prior_alpha is None:
        prior_alpha, prior_b = np.zeros(m), np.zeros((m, m))
    return prior_alpha, prior_b


def ngd_step(
    state: DualState,
    lik: Likelihood,
    x: np.ndarray,
    y: np.ndarray,
    rho: float,
    prior_alpha: np.ndarray | None = None,
    prior_b: np.ndarray | None = None,
    *,
    cross: CrossGram | None = None,
) -> DualState:
    """One natural-gradient step with step size ``rho``, a real in [0, 1] (:func:`~dualgp.kernels.as_real`).

    The convex combination between the current natural parameters and the
    prior-plus-sites target is taken in natural-parameter space, then mapped
    back to the dual pair; sites are evaluated once at the pre-step marginals
    (Jacobi style).  ``rho = 0`` is the identity; ``rho = 1`` with a Gaussian
    likelihood jumps straight to the prior+data posterior, which makes the
    step double as exact rank-one conditioning.

    ``prior_alpha``/``prior_b`` default to the zero pair (the kernel prior).
    A prior is read like a state: ``prior_alpha`` is its mean.  ``b_u``,
    ``prior_b`` and :func:`weighted_gram`'s site precision add entrywise.

    ``cross`` is :func:`cross_gram` of ``state`` and ``x``, built here when
    omitted; the sites are evaluated at its :meth:`CrossGram.marginals`.
    Steps on the same inputs keep ``z``, the kernel and the factor of
    ``K_zz``, so a caller that takes several of them builds it once and
    passes it to each; a step then pays one triangular solve against the
    ``K_zz + b_u`` factor for the marginals.  A cross-Gram built with
    another ``K_zz`` factor raises :class:`ValueError`.
    """
    rho = as_real("rho", rho, most=1.0, strict=False)
    prior_alpha, prior_b = _prior_pair(state.num_inducing, prior_alpha, prior_b)
    if cross is None:
        cross = cross_gram(state, x)
    sites = lik.site_expectations(y, *cross.marginals(state))
    kzx = cross.kzx
    del cross
    # The marginals were the predecessor's last use: keep what the combination
    # reads of it and drop its b_u and kq before the site precision is formed.
    kept_alpha, kept_b = (1.0 - rho) * state.alpha_u, (1.0 - rho) * state.b_u
    kernel, z, keff, kzz, kinv_alpha = state.kernel, state.z, state.keff, state.kzz, state.kinv_alpha
    del state
    site_alpha = kzx @ sites.alpha_hat
    # b_new = (1 - rho) b_u + rho (prior_b + site_b), summed in place in that
    # order, which gives the same bits; kzx is not needed past site_b.
    b_new = weighted_gram(kzx, sites.beta_hat)
    del kzx
    b_new += prior_b
    b_new *= rho
    b_new += kept_b
    del kept_b
    alpha_raw = kept_alpha + rho * (prior_alpha + site_alpha)

    carry = (b_new - rho * prior_b) @ kinv_alpha
    anchor = rho * (prior_b @ kzz.solve(prior_alpha))
    kq = stable_cholesky(keff + b_new)
    alpha_new = keff @ kq.solve(alpha_raw + carry + anchor)
    return DualState(
        kernel=kernel, z=z, alpha_u=alpha_new, b_u=b_new, keff=keff, kzz=kzz,
        kq=kq, kinv_alpha=kzz.solve(alpha_new),
    )


def iterate_ngd(
    state: DualState,
    lik: Likelihood,
    x: np.ndarray,
    y: np.ndarray,
    rho: float,
    max_steps: int = 1000,
    tol: float = 1e-8,
) -> tuple[DualState, int, bool]:
    """Run :func:`ngd_step` against the kernel prior until the duals stop moving.

    Stops when ``max(|d alpha|, |d b|)`` falls below ``tol``, a real of at
    least 0 (:func:`~dualgp.kernels.as_real`), or after ``max_steps``
    iterations, a count of at least 0 (:func:`~dualgp.kernels.as_count`);
    returns ``(state, steps_taken, converged)``.
    """
    max_steps, tol = as_count("max_steps", max_steps, 0), as_real("tol", tol, strict=False)
    cross = cross_gram(state, x)
    for step in range(1, max_steps + 1):
        new = ngd_step(state, lik, x, y, rho, cross=cross)
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
    y: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    prior_alpha: np.ndarray | None = None,
    prior_b: np.ndarray | None = None,
    prior_logdet: float | None = None,
) -> float:
    """Evidence lower bound: expected log-likelihoods minus KL to the prior.

    ``mean`` and ``var`` are the caller's marginals of ``f`` under ``state``
    at the inputs of ``y``.  The prior is the Gaussian encoded by
    ``(prior_alpha, prior_b)`` (the kernel prior when omitted): mean
    ``prior_alpha``, covariance ``K_zz (K_zz + prior_b)^{-1} K_zz``.  The KL
    reads only the log determinant of ``state.keff + prior_b``:
    ``prior_logdet``, if given, is the caller's, taken from its factor of
    that matrix; otherwise the matrix is factored here.  The kernel prior's
    is ``state.kzz``'s, and then ``prior_logdet`` is not read.  An empty data
    set with a zero state gives exactly zero.
    """
    m = state.num_inducing
    if prior_alpha is None and prior_b is None:
        prior_alpha, a, prior_logdet = np.zeros(m), state.keff, state.kzz.logdet
    else:
        prior_alpha, prior_b = _prior_pair(m, prior_alpha, prior_b)
        a = state.keff + prior_b
        if prior_logdet is None:
            prior_logdet = stable_cholesky(a).logdet

    ell = float(np.sum(lik.expected_log_lik(y, mean, var)))

    # KL(q || prior) written entirely in dual quantities:
    # trace term tr(P_p V_q) collapses to tr((K + B_pr)(K + B_u)^{-1}),
    # which is sum(L * (L @ A)) for A = K + B_pr and L = lq.inv.
    lq = state.kq
    trace = float(np.sum(lq.inv * (lq.inv @ a)))
    d = state.kzz.solve(prior_alpha - state.alpha_u)
    quad = float(d @ (a @ d))
    kl = 0.5 * (trace + quad - m - prior_logdet + lq.logdet)
    return ell - kl


def dual_factor(kzz: CholeskyFactor, alpha: np.ndarray, b: np.ndarray, mean_ref: np.ndarray) -> GaussianFactor:
    """Natural-form Gaussian factor encoded by a dual pair.

    Precision ``K^{-1} b K^{-1}`` and linear term
    ``K^{-1} alpha + precision @ mean_ref``; the factor is the product of the
    sites the pair aggregates, normalized on its support.
    """
    precision = kzz.solve(kzz.solve(b).T)
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


__all__ = [
    "DualState",
    "make_state",
    "predict",
    "compute_sites",
    "ngd_step",
    "CrossGram",
    "cross_gram",
    "iterate_ngd",
    "elbo",
]
