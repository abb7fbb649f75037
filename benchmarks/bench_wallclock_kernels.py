"""Wall-clock comparison of the executable Python kernels.

These timings are *relative* (pure-Python/numpy kernels on one core),
not the paper's hardware numbers — the performance figures come from
the simulator benches.  What this file establishes is that the
vectorized ESC pipeline (PB) dominates the per-column interpreted
baselines even in Python, and how the phases split.
"""

import pytest

import repro
from repro.core import pb_spgemm
from repro.kernels import (
    esc_column_spgemm,
    hash_spgemm,
    hashvec_spgemm,
    heap_spgemm,
    spa_spgemm,
)


@pytest.fixture(scope="module")
def small():
    a = repro.erdos_renyi(1 << 10, 8, seed=1)
    return a.to_csc(), a.to_csr()


@pytest.fixture(scope="module")
def medium():
    a = repro.erdos_renyi(1 << 13, 8, seed=1)
    return a.to_csc(), a.to_csr()


def test_wallclock_pb_medium(benchmark, medium):
    a, b = medium
    c = benchmark(pb_spgemm, a, b)
    assert c.nnz > 0


def test_wallclock_esc_column_medium(benchmark, medium):
    a, b = medium
    benchmark(esc_column_spgemm, a, b)


def test_wallclock_heap_small(benchmark, small):
    a, b = small
    benchmark(heap_spgemm, a, b)


def test_wallclock_hash_small(benchmark, small):
    a, b = small
    benchmark(hash_spgemm, a, b)


def test_wallclock_hashvec_small(benchmark, small):
    a, b = small
    benchmark(hashvec_spgemm, a, b)


def test_wallclock_spa_small(benchmark, small):
    a, b = small
    benchmark(spa_spgemm, a, b)


def test_wallclock_scipy_oracle_medium(benchmark, medium):
    from repro.kernels import scipy_spgemm_oracle

    a, b = medium
    benchmark(scipy_spgemm_oracle, a, b)
