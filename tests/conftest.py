"""Shared fixtures for the test suite (helpers live in tests/util.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import erdos_renyi, rmat
from tests.util import random_coo


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_pair():
    """A compatible (A CSC, B CSR) pair with moderate density."""
    a = erdos_renyi(200, edge_factor=6, seed=7)
    b = erdos_renyi(200, edge_factor=6, seed=8)
    return a.to_csc(), b


@pytest.fixture
def rect_pair():
    """Rectangular operands exercising m != k != n."""
    from repro.generators import bipartite_blocks

    a, b = bipartite_blocks(60, 45, 80, density=0.08, seed=3)
    return a.to_csc(), b


@pytest.fixture
def skewed_pair():
    """R-MAT operands with heavy-tailed degrees."""
    a = rmat(9, edge_factor=6, seed=17)
    b = rmat(9, edge_factor=6, seed=18)
    return a.to_csc(), b


@pytest.fixture
def numpy_pipeline():
    """The compiled tier switched off for one test, as under
    ``REPRO_JIT_DISABLE=1``: PB runs the numpy pipeline, so
    ``executor="process"`` configs run it on a process engine.  For the
    engine mechanics (pool reuse, arenas, worker timings); with a
    compiler present those configs run compiled on threads instead."""
    from repro.kernels import jit

    with jit.disabled():
        yield
