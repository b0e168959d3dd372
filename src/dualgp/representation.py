"""Inducing-point selection and dual-parameter projection.

Inducing inputs are chosen greedily by pivoted Cholesky on the candidate Gram
matrix: each step picks the candidate with the largest residual prior
variance given the points already chosen, which is the standard
trace-greedy Nyström rule.  Both callers run one loop that reads each
candidate column from two blocks, a leading square Gram and a cross-Gram.
When the inducing set changes, the dual parameters are carried over by the
kernel-interpolation projection
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
from .kernels import KernelSpec, as_count, as_points, gram, gram_diag

REL_TOL = 1e-10


@dataclass
class PivotSelection:
    """Greedy pivot choice: the selected candidate indices, in selection order."""

    indices: np.ndarray


def _greedy_pivots(kzz: np.ndarray, cross: np.ndarray, diag: np.ndarray, max_points: int) -> PivotSelection:
    """The pivoted-Cholesky loop over the Gram matrix of the candidates ``[z; x]``.

    Column ``j`` is ``kzz[:, j]`` stacked on ``cross[j]`` for the ``len(kzz)``
    old points and ``cross[:, j - len(kzz)]`` after, ``cross`` being the Gram
    of all candidates against ``x``.  ``diag`` holds the prior variances, and
    the loop overwrites it with the residuals.  A pivot's own entry (say, a
    ``K_zz`` diagonal jittered by a ladder step times its mean) reaches only
    its own zeroed residual.
    """
    m, n, max_rank = kzz.shape[0], diag.shape[0], as_count("max_points", max_points, 0)
    low = np.empty((n, max_rank))
    order: list[int] = []
    threshold = REL_TOL * max(float(diag.max(initial=0.0)), 0.0)
    for t in range(min(max_rank, n)):
        j = int(diag.argmax())
        if diag[j] <= threshold or diag[j] <= 0.0:
            break
        col = np.concatenate([kzz[:, j], cross[j]]) if j < m else cross[:, j - m].copy()
        if t:
            col -= low[:, :t] @ low[j, :t]
        col /= math.sqrt(diag[j])
        low[:, t] = col
        diag -= col * col
        np.maximum(diag, 0.0, out=diag)
        diag[j] = 0.0
        order.append(j)
    return PivotSelection(indices=np.array(order, dtype=np.int64))


def pivoted_cholesky_select(kernel: KernelSpec, candidates: np.ndarray, max_points: int) -> PivotSelection:
    """Pick up to ``max_points`` candidates by greedy pivoted Cholesky.

    Stops early once the largest residual falls below ``REL_TOL`` times the
    initial largest diagonal (near-duplicates add nothing).  Exact ties break
    toward the lowest candidate index.  The candidates' whole Gram is the pivot
    loop's first block, with an empty cross block.  The loop checks ``max_points``
    by :func:`~dualgp.kernels.as_count` (at least 0).
    """
    g = gram(kernel, as_points(candidates))
    return _greedy_pivots(g, np.empty((len(g), 0)), np.diag(g).copy(), max_points)


def project_duals(state: DualState, z_new: np.ndarray) -> DualState:
    """Move the dual parameters onto a new inducing set.

    Applies ``P = K_{new,old} K_{old,old}^{-1}`` to ``alpha_u`` and
    congruently to ``b_u``: ``P b_u P^T`` is PSD but rounds asymmetrically,
    the one ``b_u`` that is symmetrized before :func:`make_state`.
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

    The selection is the pivot loop of :func:`pivoted_cholesky_select` over
    the candidates ``[z; x_batch]``, read from two blocks: the state's
    ``keff`` (``K_zz`` plus its relative jitter) and one ``(M + n) x n``
    cross-Gram of the candidates against the batch, so no ``(M + n) x
    (M + n)`` array is built, and that loop checks ``max_points``.  The
    projection is :func:`project_duals` onto the selected points.
    """
    x_batch = as_points(x_batch)
    candidates = np.vstack([state.z, x_batch])
    cross = gram(state.kernel, candidates, x_batch)
    chosen = _greedy_pivots(state.keff, cross, gram_diag(state.kernel, candidates), max_points).indices
    del cross
    held, state = [state], None
    return project_duals(held.pop(), candidates[chosen])
