"""Shared test setup."""

import numpy as np
import pytest

import dualgp.dual
from dualgp.kernels import stable_cholesky


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def factorizations(monkeypatch):
    """Shapes of the matrices ``dualgp.dual`` factorizes while the test runs."""
    shapes = []

    def counting(matrix):
        shapes.append(np.shape(matrix))
        return stable_cholesky(matrix)

    monkeypatch.setattr(dualgp.dual, "stable_cholesky", counting)
    return shapes
