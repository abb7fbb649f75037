"""Wall-clock comparison of the executable Python kernels.

These timings are *relative* (single-process kernels on this host),
not the paper's hardware numbers — the performance figures come from
the simulator benches.  What this file shows is how PB, the column
ESC kernel and scipy compare on a medium input, and how far the one
panel kernel that heap / hash / hashvec / spa run sits from the four
per-column interpreted loop references on a small one.
"""

import pytest

import repro
from repro.core import pb_spgemm
from repro.kernels import (
    esc_column_spgemm,
    hash_spgemm_loop,
    hashvec_spgemm_loop,
    heap_spgemm_loop,
    panel_spgemm,
    spa_spgemm_loop,
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


def test_wallclock_panel_small(benchmark, small):
    a, b = small
    benchmark(panel_spgemm, a, b)


@pytest.mark.parametrize(
    "loop",
    [heap_spgemm_loop, hash_spgemm_loop, hashvec_spgemm_loop, spa_spgemm_loop],
    ids=["heap", "hash", "hashvec", "spa"],
)
def test_wallclock_loop_small(benchmark, small, loop):
    a, b = small
    benchmark(loop, a, b)


def test_wallclock_scipy_oracle_medium(benchmark, medium):
    from repro.kernels import scipy_spgemm_oracle

    a, b = medium
    benchmark(scipy_spgemm_oracle, a, b)
