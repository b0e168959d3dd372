"""Inducing-point selection and dual-parameter projection.

Inducing inputs are chosen greedily by pivoted Cholesky on the candidate Gram
matrix: each step picks the candidate with the largest residual prior
variance given the points already chosen, which is the standard
trace-greedy Nyström rule.  When the inducing set changes, the dual
parameters are carried over by the kernel-interpolation projection
``P = K_{new,old} K_{old,old}^{-1}`` (``alpha -> P alpha``,
``B -> P B P^T``), which is exact when the new set spans the old one.
The projected pair goes to :func:`~dualgp.dual.make_state`, like every
other state's, so a refreshed state is the one its checkpoint reloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualState, make_state
from .kernels import KernelSpec, as_points, gram, gram_diag

REL_TOL = 1e-10


@dataclass
class PivotSelection:
    """Greedy pivot choice: selected candidate indices (in selection order)
    and the residual prior-variance diagonal after the last pivot."""

    indices: np.ndarray
    residual_diag: np.ndarray


def _greedy_pivots(column, diag: np.ndarray, max_points: int) -> PivotSelection:
    """The pivoted-Cholesky loop over a Gram matrix read one column at a time.

    ``column(j)`` returns column ``j`` of the candidate Gram matrix as a
    fresh array, and ``diag`` is its diagonal, which the loop overwrites
    with the residuals.
    """
    n, max_rank = diag.shape[0], int(max_points)
    d = diag
    low = np.empty((n, max_rank))
    order: list[int] = []
    threshold = REL_TOL * max(float(d.max(initial=0.0)), 0.0)
    for t in range(min(max_rank, n)):
        j = int(d.argmax())
        if d[j] <= threshold or d[j] <= 0.0:
            break
        col = column(j)
        if t:
            col -= low[:, :t] @ low[j, :t]
        col /= math.sqrt(d[j])
        low[:, t] = col
        d -= col * col
        np.maximum(d, 0.0, out=d)
        d[j] = 0.0
        order.append(j)
    return PivotSelection(indices=np.array(order, dtype=np.int64), residual_diag=d)


def pivoted_cholesky_select(kernel: KernelSpec, candidates: np.ndarray, max_points: int) -> PivotSelection:
    """Pick up to ``max_points`` candidates by greedy pivoted Cholesky.

    Stops early once the largest residual falls below ``REL_TOL`` times the
    initial largest diagonal (near-duplicates add nothing).  Exact ties break
    toward the lowest candidate index.
    """
    g = gram(kernel, as_points(candidates))
    return _greedy_pivots(lambda j: g[:, j].copy(), np.diag(g).copy(), max_points)


class _CandidateGram:
    """Columns of the Gram matrix of the candidates ``[z; x_batch]``, never formed whole.

    The ``z`` block is the state's ``K_zz`` and the rest comes from one
    ``(M + n) x n`` cross-Gram against the batch.  Diagonal entries are the
    exact prior variances, so the jitter in ``keff`` does not show.  Only
    the pivot selection reads it; :func:`project_duals` builds its own.
    """

    def __init__(self, state: DualState, candidates: np.ndarray, x_batch: np.ndarray):
        self.m = state.num_inducing
        self.kzz = state.keff
        self.cross = gram(state.kernel, candidates, x_batch)
        self.diag = gram_diag(state.kernel, candidates)

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` as a fresh array, the pivot loop's accessor."""
        if j >= self.m:
            col = self.cross[:, j - self.m].copy()
        else:
            col = np.concatenate([self.kzz[:, j], self.cross[j]])
        col[j] = self.diag[j]
        return col


def project_duals(state: DualState, z_new: np.ndarray) -> DualState:
    """Move the dual parameters onto a new inducing set.

    Applies ``P = K_{new,old} K_{old,old}^{-1}`` to ``alpha_u`` and
    congruently to ``b_u``; the projected ``b_u`` stays PSD by construction.
    The new state is :func:`make_state` of the projected pair.
    """
    z_new = as_points(z_new)
    p = state.kzz.solve(gram(state.kernel, state.z, z_new)).T
    alpha_new = p @ state.alpha_u
    b_new = p @ state.b_u @ p.T
    kernel = state.kernel
    del p, state
    b_new = 0.5 * (b_new + b_new.T)
    return make_state(kernel, z_new, alpha_new, b_new)


def refresh_representation(state: DualState, x_batch: np.ndarray, max_points: int) -> DualState:
    """Re-select inducing points over old Z plus the incoming batch, then project.

    The selection is :func:`pivoted_cholesky_select` over the candidates
    ``[z; x_batch]``, read column by column from the state's ``K_zz`` and
    one cross-Gram of the candidates against the batch, so no
    ``(M + n) x (M + n)`` array is built.  The projection is
    :func:`project_duals` onto the selected points.
    """
    x_batch = as_points(x_batch)
    candidates = np.vstack([state.z, x_batch]) if x_batch.size else state.z
    blocks = _CandidateGram(state, candidates, x_batch)
    chosen = _greedy_pivots(blocks.column, blocks.diag.copy(), max_points).indices
    del blocks
    held, state = [state], None
    return project_duals(held.pop(), candidates[chosen])
