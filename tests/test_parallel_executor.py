"""Tests of the real process-pool backend (``repro.parallel``).

Bit-identity is the contract: ``PBConfig(executor="process")`` must
produce byte-for-byte the same CSR product as the serial pipeline for
every bin mapping and every registered semiring, on both ER and R-MAT
inputs.  The smoke tests keep >=2 real workers in the tier-1 run so
executor regressions fail fast; the fallback tests pin the documented
degradation conditions via ``PBResult.executor_used``.
"""

import importlib
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PBConfig
from repro.core.pb_spgemm import pb_spgemm_detailed
from repro.errors import ConfigError
from repro.generators import erdos_renyi, rmat
from repro.kernels import chunk_ranges
from repro.parallel import process_backend_available, semiring_token
from repro._util import balanced_ranges
from repro.parallel.executor import ProcessEngine
from repro.parallel import shm
from repro.parallel.shm import SharedArena, attach
from repro.semiring import PLUS_TIMES, Semiring, available_semirings
from tests.util import random_coo

needs_pool = pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)

# The module, not the function ``repro.core`` re-exports under its name.
PB_MODULE = importlib.import_module("repro.core.pb_spgemm")

MAPPINGS = ("range", "modulo", "balanced")
SEMIRINGS = sorted(available_semirings())


def _config(mapping="range", **kw):
    """PBConfig with enough bins for real fan-out (modulo disables packing)."""
    kw.setdefault("nbins", 16)
    return PBConfig(bin_mapping=mapping, pack_keys=(mapping != "modulo"), **kw)


def _assert_bit_identical(ser, par):
    assert par.executor_used == "process"
    assert ser.c.shape == par.c.shape
    np.testing.assert_array_equal(ser.c.indptr, par.c.indptr)
    np.testing.assert_array_equal(ser.c.indices, par.c.indices)
    assert ser.c.data.tobytes() == par.c.data.tobytes()


@pytest.fixture(scope="module")
def mats():
    return {
        "er": erdos_renyi(1 << 9, edge_factor=4, seed=11),
        "rmat": rmat(9, edge_factor=4, seed=7),
    }


@pytest.mark.parallel
@needs_pool
class TestBitIdentity:
    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("kind", ("er", "rmat"))
    def test_every_bin_mapping(self, mats, kind, mapping):
        a = mats[kind]
        cfg = _config(mapping)
        ser = pb_spgemm_detailed(a.to_csc(), a.to_csr(), config=cfg)
        par = pb_spgemm_detailed(
            a.to_csc(), a.to_csr(), config=cfg.with_(nthreads=3, executor="process")
        )
        _assert_bit_identical(ser, par)
        assert par.radix_passes == ser.radix_passes
        assert np.array_equal(par.tuples_per_bin, ser.tuples_per_bin)

    @pytest.mark.parametrize("name", SEMIRINGS)
    def test_every_semiring(self, mats, name):
        a = mats["rmat"]
        ser = pb_spgemm_detailed(
            a.to_csc(), a.to_csr(), semiring=name, config=_config()
        )
        par = pb_spgemm_detailed(
            a.to_csc(),
            a.to_csr(),
            semiring=name,
            config=_config(nthreads=2, executor="process"),
        )
        _assert_bit_identical(ser, par)

    def test_rectangular_and_tiny_chunks(self, monkeypatch):
        monkeypatch.setattr(PB_MODULE, "DEFAULT_CHUNK_FLOPS", 17)
        rng = np.random.default_rng(3)
        a = random_coo(rng, 60, 90, 400, duplicates=True)
        b = random_coo(rng, 90, 40, 400, duplicates=True)
        cfg = _config(nbins=8)
        ser = pb_spgemm_detailed(a.to_csc(), b.to_csr(), config=cfg)
        par = pb_spgemm_detailed(
            a.to_csc(), b.to_csr(), config=cfg.with_(nthreads=2, executor="process")
        )
        # A chunk budget far below flop forces many expand tasks per worker;
        # the fixed flop-prefix offsets must keep the stream identical.
        _assert_bit_identical(ser, par)


@pytest.mark.parallel
@needs_pool
class TestProcessProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(("er", "rmat")),
        mapping=st.sampled_from(MAPPINGS),
        sr=st.sampled_from(SEMIRINGS),
        chunk=st.sampled_from((19, 4096)),
    )
    def test_process_identical_to_serial(self, seed, kind, mapping, sr, chunk):
        a = (
            erdos_renyi(1 << 7, edge_factor=3, seed=seed)
            if kind == "er"
            else rmat(7, edge_factor=3, seed=seed)
        )
        cfg = _config(mapping, nbins=8)
        with mock.patch.object(PB_MODULE, "DEFAULT_CHUNK_FLOPS", chunk):
            ser = pb_spgemm_detailed(
                a.to_csc(), a.to_csr(), semiring=sr, config=cfg
            )
            par = pb_spgemm_detailed(
                a.to_csc(),
                a.to_csr(),
                semiring=sr,
                config=cfg.with_(nthreads=2, executor="process"),
            )
        _assert_bit_identical(ser, par)


def _nap_pid(delay: float) -> int:
    """Worker task: sleep (so both workers must exist) and report the pid."""
    time.sleep(delay)
    return os.getpid()


@pytest.mark.parallel
@needs_pool
class TestSmoke:
    def test_pool_spawns_two_distinct_workers(self):
        # Two concurrent sleeping tasks cannot share a worker, so the
        # pool must have spun up >= 2 real child processes.
        with ProcessEngine(2) as engine:
            assert engine.nworkers == 2
            futures = [engine._pool.submit(_nap_pid, 0.2) for _ in range(2)]
            pids = {f.result() for f in futures}
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_end_to_end_records_worker_timings(self):
        a = erdos_renyi(1 << 8, edge_factor=4, seed=3)
        ser = pb_spgemm_detailed(a.to_csc(), a.to_csr())
        par = pb_spgemm_detailed(
            a.to_csc(),
            a.to_csr(),
            config=PBConfig(nthreads=2, executor="process"),
        )
        _assert_bit_identical(ser, par)
        for key in ("expand_workers", "sort_compress_workers"):
            times = par.phase_seconds[key]
            assert times and all(t >= 0 for t in times)
        # Scalar phase keys must not include the per-worker lists.
        scalar = {k: v for k, v in par.phase_seconds.items() if not k.endswith("_workers")}
        assert set(scalar) == {"symbolic", "expand", "sort_compress", "convert"}


class TestFallbacks:
    def test_invalid_executor_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            PBConfig(executor="threads")

    def test_nthreads_one_stays_serial(self):
        a = erdos_renyi(64, edge_factor=2, seed=0)
        res = pb_spgemm_detailed(
            a.to_csc(), a.to_csr(), config=PBConfig(executor="process")
        )
        assert res.executor_used == "serial"

    def test_empty_product_short_circuits(self):
        from repro.matrix import CSCMatrix, CSRMatrix

        a = CSCMatrix.empty((8, 8))
        b = CSRMatrix.empty((8, 8))
        res = pb_spgemm_detailed(
            a, b, config=PBConfig(nthreads=4, executor="process")
        )
        assert res.executor_used == "serial"
        assert res.c.nnz == 0

    def test_semiring_tokens(self):
        # Registered semirings travel by name; unregistered picklable
        # ones by value; lambda-built ones force the serial fallback.
        assert semiring_token(PLUS_TIMES) == "plus_times"
        anon = Semiring("anon", np.add, np.multiply, 0.0)
        assert semiring_token(anon) is anon
        closure = Semiring("closure", np.add, lambda x, y: x * y, 0.0)
        assert semiring_token(closure) is None

    def test_unpicklable_semiring_falls_back(self):
        closure = Semiring("closure", np.add, lambda x, y: x * y, 0.0)
        rng = np.random.default_rng(9)
        a = random_coo(rng, 32, 32, 128)
        res = pb_spgemm_detailed(
            a.to_csc(),
            a.to_csr(),
            semiring=closure,
            config=PBConfig(nthreads=2, executor="process"),
        )
        assert res.executor_used == "serial"
        ref = pb_spgemm_detailed(a.to_csc(), a.to_csr())
        np.testing.assert_allclose(res.c.to_dense(), ref.c.to_dense(), atol=1e-12)


class TestWorkDecomposition:
    def test_balanced_groups_partition(self):
        w = np.array([5.0, 1, 1, 1, 8, 1, 1])
        groups = balanced_ranges(w, 3)
        assert 1 <= len(groups) <= 3
        assert groups[0][0] == 0 and groups[-1][1] == len(w)
        for (_, a_hi), (b_lo, _) in zip(groups, groups[1:]):
            assert a_hi == b_lo

    def test_balanced_groups_degenerate(self):
        assert balanced_ranges(np.array([]), 4) == []
        zero = balanced_ranges(np.zeros(5), 2)
        assert zero[0][0] == 0 and zero[-1][1] == 5
        singles = balanced_ranges(np.ones(3), 10)
        assert singles == [(0, 1), (1, 2), (2, 3)]

    def test_chunk_ranges_cover_all_flops(self):
        per_k = np.array([3, 0, 5, 2, 0, 7, 1])
        ranges = list(chunk_ranges(per_k, 6))
        assert ranges[0][0] == 0 and ranges[-1][1] == len(per_k)
        for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
            assert a_hi == b_lo
        # Every range holds work, and total work is preserved.
        assert all(per_k[lo:hi].sum() > 0 for lo, hi in ranges)
        assert sum(int(per_k[lo:hi].sum()) for lo, hi in ranges) == per_k.sum()

    def test_chunk_ranges_empty_and_invalid(self):
        assert list(chunk_ranges(np.zeros(4, dtype=np.int64), 8)) == []
        with pytest.raises(ValueError, match="chunk_flops"):
            list(chunk_ranges(np.array([1, 2]), 0))


@needs_pool
class TestSharedArena:
    def test_share_and_take_roundtrip(self):
        x = np.arange(10, dtype=np.int64)
        with SharedArena() as arena:
            view = arena.share("x", x)
            np.testing.assert_array_equal(view, x)
            spec = arena.spec("x")
            assert spec.shape == (10,) and spec.nbytes == x.nbytes
            taken = arena.take("x")
        np.testing.assert_array_equal(taken, x)  # copy survives close

    def test_attach_sees_parent_writes(self):
        # Simulate the fork-worker tracker state so the in-process
        # attach leaves the parent's registration alone.
        shm.set_tracker_inherited(True)
        try:
            with SharedArena() as arena:
                view = arena.allocate("out", (6,), np.float64)
                mapped, seg = attach(arena.spec("out"))
                view[...] = np.arange(6.0)
                np.testing.assert_array_equal(mapped, np.arange(6.0))
                seg.close()
        finally:
            shm.set_tracker_inherited(False)

    def test_zero_length_allocation(self):
        with SharedArena() as arena:
            v = arena.allocate("empty", (0,), np.float64)
            assert v.size == 0

    def test_duplicate_key_rejected(self):
        with SharedArena() as arena:
            arena.allocate("x", (3,), np.int64)
            with pytest.raises(KeyError, match="x"):
                arena.allocate("x", (3,), np.int64)

    def test_close_idempotent(self):
        arena = SharedArena()
        arena.allocate("x", (4,), np.int64)
        arena.close()
        arena.close()
