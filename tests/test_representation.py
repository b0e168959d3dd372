"""Greedy inducing-point selection and projection of the dual parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgp.dual import make_state, ngd_step, predict
from dualgp.kernels import Hyperparams, KernelSpec, gram
from dualgp.likelihoods import Gaussian
from dualgp.representation import pivoted_cholesky_select, project_duals, refresh_representation


def _spec(ls=0.8):
    return KernelSpec("matern52", Hyperparams(1.0, np.array([ls])))


def _greedy_reference(g, max_points, rel_tol=1e-10):
    """Dense trace-greedy selection, written independently of the backend.

    Maintains the full residual matrix R = G - C C^T explicitly instead of
    only its diagonal, so it is O(n^2) per step but easy to audit.
    """
    g = g.copy()
    n = g.shape[0]
    resid = g.copy()
    order = []
    threshold = rel_tol * float(np.max(np.diag(g)))
    for _ in range(min(max_points, n)):
        d = np.diag(resid).copy()
        j = int(np.argmax(d))
        if d[j] <= threshold:
            break
        order.append(j)
        col = resid[:, j] / np.sqrt(d[j])
        resid = resid - np.outer(col, col)
    return np.asarray(order, dtype=np.int64)


class TestPivotSelection:
    def test_matches_dense_reference(self, rng):
        x = rng.uniform(-3, 3, (30, 2))
        spec = KernelSpec("squared_exponential", Hyperparams(1.2, np.array([0.7, 1.1])))
        sel = pivoted_cholesky_select(spec, x, 10)
        ref = _greedy_reference(gram(spec, x), 10)
        np.testing.assert_array_equal(sel.indices, ref)

    def test_many_random_instances_match_reference(self, rng):
        for trial in range(25):
            n = int(rng.integers(5, 25))
            x = rng.uniform(-2, 2, (n, int(rng.integers(1, 4))))
            k = int(rng.integers(1, n + 1))
            sel = pivoted_cholesky_select(_spec(), x, k)
            ref = _greedy_reference(gram(_spec(), x), k)
            np.testing.assert_array_equal(sel.indices, ref, err_msg=f"trial {trial}")

    def test_duplicates_trigger_early_stop(self):
        x = np.array([[0.0], [0.0], [0.0], [2.0]])
        sel = pivoted_cholesky_select(_spec(), x, 4)
        assert len(sel.indices) == 2
        assert set(sel.indices.tolist()) == {0, 3}

    def test_first_pivot_is_lowest_index_on_ties(self):
        """Stationary kernels give a constant diagonal, so the first pick ties."""
        x = np.array([[5.0], [1.0], [-3.0]])
        sel = pivoted_cholesky_select(_spec(), x, 1)
        assert sel.indices[0] == 0

    def test_selection_never_exceeds_budget(self, rng):
        x = rng.uniform(-2, 2, (12, 1))
        sel = pivoted_cholesky_select(_spec(), x, 5)
        assert len(sel.indices) == 5
        assert len(np.unique(sel.indices)) == 5

    def test_residual_shrinks_monotonically_against_budget(self, rng):
        x = rng.uniform(-2, 2, (15, 1))
        highs = []
        for k in (1, 3, 6, 10):
            sel = pivoted_cholesky_select(_spec(), x, k)
            highs.append(float(np.max(sel.residual_diag)))
        assert highs == sorted(highs, reverse=True)

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 18))
    @settings(max_examples=25, deadline=None)
    def test_reference_agreement_property(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, (n, 2))
        k = int(rng.integers(1, n + 1))
        sel = pivoted_cholesky_select(_spec(), x, k)
        ref = _greedy_reference(gram(_spec(), x), k)
        np.testing.assert_array_equal(sel.indices, ref)


class TestProjection:
    def test_identity_on_same_inducing_set(self, rng):
        z = rng.uniform(-2, 2, (5, 1))
        a = rng.standard_normal((5, 5))
        state = make_state(_spec(), z, rng.standard_normal(5), a @ a.T)
        back = project_duals(state, z)
        np.testing.assert_allclose(back.alpha_u, state.alpha_u, atol=1e-10)
        np.testing.assert_allclose(back.b_u, state.b_u, atol=1e-10)

    def test_projection_onto_superset_preserves_predictions(self, rng):
        """Adding inducing points on top of the old ones changes nothing."""
        x = rng.uniform(-2, 2, (6, 1))
        y = rng.standard_normal(6)
        state = ngd_step(make_state(_spec(), x), Gaussian(0.3), x, y, rho=1.0)
        z_sup = np.vstack([x, rng.uniform(-2, 2, (3, 1))])
        wide = project_duals(state, z_sup)
        x_test = rng.uniform(-2, 2, (10, 1))
        np.testing.assert_allclose(predict(wide, x_test)[0], predict(state, x_test)[0], atol=1e-6)
        np.testing.assert_allclose(predict(wide, x_test)[1], predict(state, x_test)[1], atol=1e-6)

    def test_projected_b_stays_psd_through_many_cycles(self, rng):
        """A hundred select-and-project rounds never break PSD-ness."""
        state = make_state(_spec(), rng.uniform(-2, 2, (8, 1)))
        lik = Gaussian(0.3)
        for _ in range(100):
            x = rng.uniform(-2, 2, (4, 1))
            y = rng.standard_normal(4)
            state = ngd_step(state, lik, x, y, rho=0.5)
            state = refresh_representation(state, x, max_points=8)
            w = np.linalg.eigvalsh(state.b_u)
            assert w.min() > -1e-9 * max(w.max(), 1.0)

    def test_refresh_keeps_budget(self, rng):
        state = make_state(_spec(), rng.uniform(-2, 2, (6, 1)))
        refreshed = refresh_representation(state, rng.uniform(-2, 2, (10, 1)), max_points=6)
        assert refreshed.num_inducing <= 6

    def test_refresh_with_empty_batch_reselects_from_old(self, rng):
        z = rng.uniform(-2, 2, (6, 1))
        state = make_state(_spec(), z)
        refreshed = refresh_representation(state, np.empty((0, 1)), max_points=4)
        assert refreshed.num_inducing == 4


class TestRefreshFromBlocks:
    """Refresh reads the state's K_zz and one cross-Gram, never the candidate Gram."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        m=st.integers(1, 10),
        n=st.integers(0, 12),
        dupes=st.integers(0, 4),
        jittered=st.booleans(),
        budget=st.integers(1, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_select_and_project_over_the_explicit_gram(self, seed, m, n, dupes, jittered, budget):
        """Same pivots as ``pivoted_cholesky_select`` over ``[Z; batch]``, same projected state.

        The batch may repeat inducing inputs and be empty, and a repeated
        inducing input makes ``K_zz`` need a jitter.  Where a batch point
        repeats an inducing input the two copies tie up to rounding, so the
        selected points are compared, not their positions.  Refresh hands
        the chosen points to ``project_duals``, so the states agree bit for
        bit.
        """
        rng = np.random.default_rng(seed)
        spec = KernelSpec("matern52", Hyperparams(1.3, np.array([0.6, 0.9])))
        z = rng.uniform(-2, 2, (m, 2))
        if jittered:
            z = np.vstack([z, z[:1]])
        a = 0.3 * rng.standard_normal((len(z), len(z)))
        state = make_state(spec, z, rng.standard_normal(len(z)), a @ a.T)
        assert (state.kzz.jitter_used > 0.0) == jittered
        batch = np.vstack([rng.uniform(-2, 2, (n, 2)), z[rng.integers(0, len(z), dupes)]])
        candidates = np.vstack([z, batch])

        chosen = candidates[pivoted_cholesky_select(spec, candidates, budget).indices]
        expected = project_duals(state, chosen)
        refreshed = refresh_representation(state, batch, budget)

        np.testing.assert_array_equal(refreshed.z, chosen)
        for name in ("alpha_u", "b_u", "keff", "kinv_alpha"):
            np.testing.assert_array_equal(getattr(refreshed, name), getattr(expected, name), err_msg=name)
        for name in ("kzz", "kq"):
            np.testing.assert_array_equal(getattr(refreshed, name).inv, getattr(expected, name).inv, err_msg=name)
        assert refreshed.kzz.jitter_used == expected.kzz.jitter_used
