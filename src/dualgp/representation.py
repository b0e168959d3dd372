"""Inducing-point selection and dual-parameter projection.

Inducing inputs are chosen greedily by pivoted Cholesky on the candidate Gram
matrix: each step picks the candidate with the largest residual prior
variance given the points already chosen, which is the standard
trace-greedy Nyström rule.  When the inducing set changes, the dual
parameters are carried over by the kernel-interpolation projection
``P = K_{new,old} K_{old,old}^{-1}`` (``alpha -> P alpha``,
``B -> P B P^T``), which is exact when the new set spans the old one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualState, make_state
from .kernels import KernelSpec, as_points, gram

DEFAULT_REL_TOL = 1e-10


@dataclass
class PivotSelection:
    """Greedy pivot choice: selected candidate indices (in selection order)
    and the residual prior-variance diagonal after the last pivot."""

    indices: np.ndarray
    residual_diag: np.ndarray


def _pivoted_cholesky(g: np.ndarray, max_rank: int, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy pivoted Cholesky on a dense PSD matrix.

    Returns the selected pivot indices in selection order and the
    Schur-complement diagonal after the last accepted pivot.  Selection stops
    at ``max_rank`` pivots or once the largest residual falls below
    ``rel_tol`` times the initial largest diagonal.  Ties break toward the
    lowest index (first maximum wins).
    """
    n = g.shape[0]
    d = np.diag(g).copy()
    low = np.empty((n, max_rank))
    order: list[int] = []
    threshold = rel_tol * max(float(d.max(initial=0.0)), 0.0)
    for t in range(min(max_rank, n)):
        j = int(np.argmax(d))
        if d[j] <= threshold or d[j] <= 0.0:
            break
        col = g[:, j].copy()
        if t:
            col -= low[:, :t] @ low[j, :t]
        col /= math.sqrt(d[j])
        low[:, t] = col
        d -= col * col
        np.maximum(d, 0.0, out=d)
        d[j] = 0.0
        order.append(j)
    return np.array(order, dtype=np.int64), d


def pivoted_cholesky_select(
    kernel: KernelSpec,
    candidates: np.ndarray,
    max_points: int,
    rel_tol: float = DEFAULT_REL_TOL,
) -> PivotSelection:
    """Pick up to ``max_points`` candidates by greedy pivoted Cholesky.

    Stops early once the largest residual falls below ``rel_tol`` times the
    initial largest diagonal (near-duplicates add nothing).  Exact ties break
    toward the lowest candidate index.
    """
    candidates = as_points(candidates)
    order, resid = _pivoted_cholesky(gram(kernel, candidates), int(max_points), float(rel_tol))
    return PivotSelection(indices=order, residual_diag=resid)


def project_duals(state: DualState, z_new: np.ndarray) -> DualState:
    """Move the dual parameters onto a new inducing set.

    Applies ``P = K_{new,old} K_{old,old}^{-1}`` to ``alpha_u`` and
    congruently to ``b_u``; the projected ``b_u`` stays PSD by construction.
    """
    z_new = as_points(z_new)
    k_on = gram(state.kernel, state.z, z_new)
    p = state.kzz.solve(k_on).T
    alpha_new = p @ state.alpha_u
    b_new = p @ state.b_u @ p.T
    return make_state(state.kernel, z_new, alpha_new, 0.5 * (b_new + b_new.T))


def refresh_representation(state: DualState, x_batch: np.ndarray, max_points: int) -> DualState:
    """Re-select inducing points over old Z plus the incoming batch, then project."""
    x_batch = as_points(x_batch)
    candidates = np.vstack([state.z, x_batch]) if x_batch.size else state.z
    selection = pivoted_cholesky_select(state.kernel, candidates, max_points)
    return project_duals(state, candidates[selection.indices])
