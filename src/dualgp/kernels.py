"""Stationary covariance functions and stable Cholesky factorization.

Two kernel families are provided, Matérn-5/2 and squared-exponential, each
with a signal variance, per-dimension or shared lengthscales, and an optional
additive constant variance.  Hyperparameters live in :class:`Hyperparams`,
which also carries the observation-noise variance consumed by the Gaussian
likelihood so that one object holds everything the hyperparameter optimizer
touches.

Usage::

    spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.5])))
    K = gram(spec, X, Z)
    factor = stable_cholesky(gram(spec, Z))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

FAMILIES = ("matern52", "squared_exponential")

JITTER_LADDER = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

_SQRT5 = math.sqrt(5.0)


class FactorizationFailed(RuntimeError):
    """Raised when Cholesky fails at every jitter level on the ladder."""


@dataclass
class Hyperparams:
    """Kernel hyperparameters plus the Gaussian observation-noise variance.

    ``lengthscales`` has one entry per input dimension, or a single entry
    shared across dimensions.  ``constant_variance`` adds a constant kernel
    ``c(x, x') = constant_variance``; zero disables it.  ``noise_variance``
    is None for likelihoods that have no noise parameter.
    """

    variance: float
    lengthscales: np.ndarray
    constant_variance: float = 0.0
    noise_variance: float | None = None

    def __post_init__(self) -> None:
        self.lengthscales = np.atleast_1d(np.asarray(self.lengthscales, dtype=np.float64))
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        if np.any(self.lengthscales <= 0):
            raise ValueError("lengthscales must be positive")
        if self.constant_variance < 0:
            raise ValueError("constant_variance must be nonnegative")
        if self.noise_variance is not None and self.noise_variance <= 0:
            raise ValueError("noise_variance must be positive")

    def copy(self) -> "Hyperparams":
        return replace(self, lengthscales=self.lengthscales.copy())


@dataclass
class KernelSpec:
    """A kernel family name paired with its hyperparameters."""

    family: str
    hyper: Hyperparams

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")

    def with_hyper(self, hyper: Hyperparams) -> "KernelSpec":
        return KernelSpec(self.family, hyper)


@dataclass
class CholeskyFactor:
    """Lower Cholesky factor of a (possibly jittered) positive definite matrix.

    ``chol @ chol.T`` equals the factorized matrix plus ``jitter_used * I``.
    """

    chol: np.ndarray
    jitter_used: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(matrix + jitter I) x = rhs``."""
        return cho_solve((self.chol, True), rhs)

    def half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``chol x = rhs`` (one triangular solve)."""
        return solve_triangular(self.chol, rhs, lower=True)

    def logdet(self) -> float:
        """Log determinant of the factorized matrix."""
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


@dataclass
class GramFactor(CholeskyFactor):
    """A Gram matrix together with its (possibly jittered) Cholesky factor."""

    matrix: np.ndarray

    @property
    def regularized(self) -> np.ndarray:
        """The matrix that was actually factorized."""
        if self.jitter_used == 0.0:
            return self.matrix
        return self.matrix + self.jitter_used * np.eye(self.matrix.shape[0])


def _inv_lengthscales(hyper: Hyperparams, dim: int) -> np.ndarray:
    ls = hyper.lengthscales
    if ls.shape[0] == dim:
        return 1.0 / ls
    if ls.shape[0] == 1:
        return np.full(dim, 1.0 / ls[0])
    raise ValueError(f"lengthscales have {ls.shape[0]} entries for {dim}-dimensional inputs")


def as_points(x: np.ndarray) -> np.ndarray:
    """Inputs as a contiguous ``(n, d)`` float array; a 1-D array is n points in 1-D."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return np.ascontiguousarray(x)


def gram(spec: KernelSpec, xa: np.ndarray, xb: np.ndarray | None = None) -> np.ndarray:
    """Cross-covariance matrix ``k(xa_i, xb_j)`` of shape ``(len(xa), len(xb))``.

    The scaled squared distances come from one matrix product,
    ``|a|^2 + |b|^2 - 2 a b^T`` clamped at zero, and the kernel transform is
    applied in place, so at most one scratch array of the output's shape is
    alive.  A self-Gram (``xb`` omitted) has exactly zero distance on its
    diagonal, so its diagonal is exactly ``variance + constant_variance``.
    """
    xa = as_points(xa)
    xb_pts = xa if xb is None else as_points(xb)
    if xa.shape[1] != xb_pts.shape[1]:
        raise ValueError("input dimensions disagree")
    inv_ls = _inv_lengthscales(spec.hyper, xa.shape[1])
    # Measure from a point among the inputs: the distance form cancels badly
    # far from the origin.  The midpoint keeps gram(a, b) == gram(b, a).T.
    origin = 0.5 * (xa[0] + xb_pts[0]) if len(xa) and len(xb_pts) else 0.0
    a = (xa - origin) * inv_ls
    b = a if xb is None else (xb_pts - origin) * inv_ls
    norms = np.einsum("ij,ij->i", a, a)
    k = np.add.outer(norms, norms if xb is None else np.einsum("ij,ij->i", b, b))
    scratch = a @ b.T
    scratch *= 2.0
    k -= scratch
    np.maximum(k, 0.0, out=k)
    if xb is None:
        np.fill_diagonal(k, 0.0)
    # k now holds the squared scaled distance r^2; transform it in place.
    if spec.family == "matern52":
        neg_s = np.sqrt(k, out=scratch)
        neg_s *= -_SQRT5
        k *= 5.0 / 3.0
        k -= neg_s
        k += 1.0
        k *= np.exp(neg_s, out=neg_s)
    else:
        del scratch
        k *= -0.5
        np.exp(k, out=k)
    k *= spec.hyper.variance
    if spec.hyper.constant_variance:
        k += spec.hyper.constant_variance
    return k


def gram_diag(spec: KernelSpec, xa: np.ndarray) -> np.ndarray:
    """Prior variances ``k(x_i, x_i)``, constant for stationary kernels."""
    xa = as_points(xa)
    return np.full(xa.shape[0], spec.hyper.variance + spec.hyper.constant_variance)


def stable_cholesky(matrix: np.ndarray) -> GramFactor:
    """Cholesky with an escalating diagonal jitter ladder.

    Tries each jitter in ``JITTER_LADDER`` in order and returns the first
    success; raises :class:`FactorizationFailed` if the whole ladder fails
    or the matrix contains non-finite entries.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(matrix)):
        raise FactorizationFailed("matrix contains non-finite entries")
    for jitter in JITTER_LADDER:
        shifted = matrix + jitter * np.eye(matrix.shape[0]) if jitter else matrix
        try:
            low = cholesky(shifted, lower=True, check_finite=False)
        except LinAlgError:
            continue
        return GramFactor(matrix=matrix, chol=low, jitter_used=jitter)
    raise FactorizationFailed(
        f"cholesky failed at every jitter level {JITTER_LADDER} for shape {matrix.shape}"
    )


def spec_to_dict(spec: KernelSpec) -> dict:
    """JSON-ready representation of a kernel spec."""
    h = spec.hyper
    return {
        "family": spec.family,
        "variance": float(h.variance),
        "lengthscales": [float(v) for v in h.lengthscales],
        "constant_variance": float(h.constant_variance),
        "noise_variance": None if h.noise_variance is None else float(h.noise_variance),
    }


def spec_from_dict(data: dict) -> KernelSpec:
    """Inverse of :func:`spec_to_dict`."""
    return KernelSpec(
        family=data["family"],
        hyper=Hyperparams(
            variance=data["variance"],
            lengthscales=np.asarray(data["lengthscales"], dtype=np.float64),
            constant_variance=data.get("constant_variance", 0.0),
            noise_variance=data.get("noise_variance"),
        ),
    )
