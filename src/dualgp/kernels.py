"""Stationary covariance functions and stable Cholesky factorization.

Two kernel families are provided, Matérn-5/2 and squared-exponential, each
with a signal variance, per-dimension or shared lengthscales, and an optional
additive constant variance.  Hyperparameters live in :class:`Hyperparams`,
which may also carry the observation-noise variance of a Gaussian
likelihood; the likelihood owns that value, and the streaming engine
rejects a kernel whose noise differs from it.

Usage::

    spec = KernelSpec("matern52", Hyperparams(1.0, np.array([0.5])))
    K = gram(spec, X, Z)
    factor = stable_cholesky(gram(spec, Z))
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

FAMILIES = ("matern52", "squared_exponential")

# Diagonal jitter steps, in units of the factored matrix's mean diagonal.
JITTER_LADDER = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

# A triangle of at most this many rows is inverted directly, not split.
INV_LEAF = 32

# Entries of one block of row-blocked scratch: predict's M x rows kernel
# blocks and the quadrature's rows x order evaluations.  Their scratch stays
# at a few blocks of this size, whatever M and the number of rows.  At 2**15
# float64 entries a block is 256 KiB, so predict's two live blocks (the
# cross-Gram and one half-solve) fit in a 2 MiB per-core L2 cache next to an
# M x M factor up to M = 300.
BLOCK_ENTRIES = 2**15

_SQRT5 = math.sqrt(5.0)


class FactorizationFailed(RuntimeError):
    """Raised when Cholesky fails at every jitter level on the ladder."""


@dataclass(frozen=True, eq=False)
class Hyperparams:
    """Kernel hyperparameters plus the Gaussian observation-noise variance.

    ``lengthscales`` has one entry per input dimension, or a single entry
    shared across dimensions; other than a number or a non-empty flat list it
    raises :class:`ValueError`.  ``constant_variance`` adds a constant kernel
    ``c(x, x') = constant_variance``; zero disables it.  ``noise_variance``
    may be None; a set value must equal a Gaussian likelihood's noise.  Each value
    is stored as :func:`as_real` gives it, above 0 or, for ``constant_variance``, at least 0.
    The fields are frozen and ``lengthscales`` is a read-only array of its own.
    These names are the keys of configs, checkpoints and run records, which
    read and write them through :meth:`from_entry` and :meth:`entry`.
    """

    variance: float
    lengthscales: np.ndarray
    constant_variance: float = 0.0
    noise_variance: float | None = None

    @classmethod
    def from_entry(cls, entry) -> Hyperparams:
        """The fields read from ``entry`` by name; absent, ``constant_variance`` is 0 and ``noise_variance`` None."""
        constant, noise = entry.get("constant_variance", 0.0), entry.get("noise_variance")
        return cls(entry["variance"], entry["lengthscales"], constant, noise)

    def entry(self) -> dict:
        """The fields as JSON values, in declaration order: floats, a list of floats, and None for an unset noise."""
        return {"variance": self.variance, "lengthscales": self.lengthscales.tolist(),
                "constant_variance": self.constant_variance, "noise_variance": self.noise_variance}

    def __post_init__(self) -> None:
        entries = np.atleast_1d(np.asarray(self.lengthscales, dtype=object))
        if entries.ndim != 1 or not entries.size:
            raise ValueError(f"lengthscales must be a number or a non-empty flat list, not of shape {entries.shape}")
        object.__setattr__(self, "variance", as_real("variance", self.variance))
        lengthscales = np.array([as_real("lengthscales", entry) for entry in entries])
        read_only(lengthscales)
        object.__setattr__(self, "lengthscales", lengthscales)
        constant = as_real("constant_variance", self.constant_variance, strict=False)
        object.__setattr__(self, "constant_variance", constant)
        if self.noise_variance is not None:
            object.__setattr__(self, "noise_variance", as_real("noise_variance", self.noise_variance))


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family name paired with its hyperparameters."""

    family: str
    hyper: Hyperparams

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Inverse Cholesky factor of a (possibly jittered) positive definite matrix.

    For the lower Cholesky factor ``L`` of the factorized matrix plus
    ``jitter_used * I``, a factor holds ``inv = L^{-1}`` and ``logdet``, the
    log determinant of that matrix; :func:`stable_cholesky` builds both when
    it factors, and ``L`` itself is not kept.  A factor is built once and
    solved against many times, so every solve is a matrix product with
    ``inv``.  Solving by a triangular inverse is as accurate in the forward
    error as substitution (Druinsky & Toledo, arXiv:1201.6035); the inverse
    is not backward stable, but the engine uses only the solutions.  The
    fields are frozen and ``inv`` is read-only (:func:`read_only`).
    """

    inv: np.ndarray
    logdet: float
    jitter_used: float

    def __post_init__(self) -> None:
        read_only(self.inv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(matrix + jitter I) x = rhs``."""
        return self.inv.T @ (self.inv @ rhs)

    def half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``L x = rhs`` (one triangular solve)."""
        return self.inv @ rhs


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Invert a lower-triangular matrix in place by recursive 2x2 block inversion.

    ``[[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]``,
    with ``np.linalg.inv`` on blocks of at most ``INV_LEAF`` rows.  ``A`` and
    ``D`` are overwritten by their inverses, then ``C`` by its block, so the
    triangle of ``low`` (whose upper part must be zero) becomes its inverse
    and is returned.  No second ``n x n`` array is allocated: the scratch is
    the three blocks of the product for ``C``, about three quarters of
    ``low``'s size.
    """
    n = low.shape[0]
    if n <= INV_LEAF:
        low[...] = np.tril(np.linalg.inv(low))
        return low
    h = n // 2
    _lower_inverse(low[:h, :h])
    _lower_inverse(low[h:, h:])
    low[h:, :h] = -low[h:, h:] @ (low[h:, :h] @ low[:h, :h])
    return low


def as_count(name: str, value, least: int) -> int:
    """``value`` as an ``int``; a bool, a non-integer or a value below ``least`` raises a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def as_real(name: str, value, least: float = 0.0, most: float = math.inf, *, strict: bool = True) -> float:
    """A non-bool real ``value`` as a finite ``float`` in ``(least, most]``, closed unless ``strict``, or ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    if math.isfinite(value) and (least < value if strict else least <= value) and value <= most:
        return float(value)
    if most < math.inf:
        raise ValueError(f"{name} must lie in {'(' if strict else '['}{least:g}, {most:g}]")
    low = f"{'above' if strict else 'at least'} {least:g}" if least else ("positive" if strict else "nonnegative")
    raise ValueError(f"{name} must be {low} and finite" if least > -math.inf else f"{name} must be finite")


def read_only(*arrays: np.ndarray) -> None:
    """Mark each array read-only in place, so that an in-place write raises ValueError.

    A stored array is frozen, not copied: an array handed to an engine value
    that stores it becomes read-only for its caller too, and a writable view
    or base of it can still change it.
    """
    for array in arrays:
        array.flags.writeable = False


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
    inv_ls = 1.0 / spec.hyper.lengthscales  # one shared entry broadcasts over the dimensions
    if inv_ls.shape[0] not in (1, xa.shape[1]):
        raise ValueError(f"lengthscales have {inv_ls.shape[0]} entries for {xa.shape[1]}-dimensional inputs")
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


def stable_cholesky(matrix: np.ndarray) -> CholeskyFactor:
    """Cholesky with an escalating diagonal jitter ladder, returned as its inverse.

    Tries each ``JITTER_LADDER`` step, times the matrix's mean diagonal, in
    order; ``jitter_used`` is the absolute amount added.  At the first
    success it takes the log determinant and inverts the Cholesky factor in
    place.  Raises :class:`FactorizationFailed` if the whole ladder fails or
    the matrix contains non-finite entries.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(matrix)):
        raise FactorizationFailed("matrix contains non-finite entries")
    mean_diag = float(np.trace(matrix)) / max(matrix.shape[0], 1)
    for step in JITTER_LADDER:
        jitter = step * mean_diag
        shifted = matrix + jitter * np.eye(matrix.shape[0]) if jitter else matrix
        try:
            low = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        del shifted
        logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
        return CholeskyFactor(inv=_lower_inverse(low), logdet=logdet, jitter_used=jitter)
    raise FactorizationFailed(
        f"cholesky failed at every jitter level {JITTER_LADDER} x {mean_diag} for shape {matrix.shape}"
    )
