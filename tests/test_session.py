"""Tests of persistent execution sessions (``repro.session``).

The session contract: one warm worker pool reused across multiplies
(spawned once, grown on demand), shared-memory arenas recycled through
the session's :class:`~repro.parallel.shm.ArenaPool` instead of being
allocated/unlinked per call, and — above all — products bit-identical
to ``executor="serial"`` for every registered semiring, pipelined or
barriered.  The pool serves only the numpy pipeline: the engine tests
switch the compiled tier off (``numpy_pipeline``), and with it on, a
process session runs compiled on threads and never spawns.
"""

import numpy as np
import pytest

import repro
from repro import PBConfig, Session
from repro.core.pb_spgemm import _pb_run
from repro.errors import ConfigError
from repro.generators import erdos_renyi, rmat
from repro.kernels.dispatch import algorithm_metadata
from repro.parallel import process_backend_available
from repro.parallel.executor import ProcessEngine
from repro.parallel.shm import ArenaPool
from repro.semiring import PLUS_TIMES, Semiring, available_semirings

pytestmark = pytest.mark.session

needs_pool = pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)

SEMIRINGS = sorted(available_semirings())


@pytest.fixture(scope="module")
def mats():
    return {
        "er": erdos_renyi(1 << 9, edge_factor=4, seed=11),
        "rmat": rmat(9, edge_factor=4, seed=7),
    }


def _proc_config(**kw):
    kw.setdefault("nbins", 16)
    kw.setdefault("nthreads", 2)
    kw.setdefault("executor", "process")
    return PBConfig(**kw)


def _assert_identical(serial, other):
    assert serial.shape == other.shape
    np.testing.assert_array_equal(serial.indptr, other.indptr)
    np.testing.assert_array_equal(serial.indices, other.indices)
    assert serial.data.tobytes() == other.data.tobytes()


# ---------------------------------------------------------------------------
# Bit-identity: the session changes when pools/buffers exist, never results
# ---------------------------------------------------------------------------

@needs_pool
@pytest.mark.parametrize("sr", SEMIRINGS)
def test_session_bit_identical_all_semirings(mats, sr):
    a = mats["er"]
    serial = repro.multiply(a, a, semiring=sr, config=PBConfig(nbins=16))
    with Session(_proc_config()) as s:
        warm1 = s.multiply(a, a, semiring=sr)
        warm2 = s.multiply(a, a, semiring=sr)  # recycled arenas
    _assert_identical(serial, warm1)
    _assert_identical(serial, warm2)


@needs_pool
@pytest.mark.parametrize("pipeline", ["auto", "barrier"])
def test_session_pipeline_modes_identical(mats, pipeline):
    a = mats["rmat"]
    serial = repro.multiply(a, a, config=PBConfig(nbins=16))
    with Session(_proc_config(pipeline=pipeline)) as s:
        c = s.multiply(a, a)
    _assert_identical(serial, c)


@needs_pool
@pytest.mark.parametrize("mapping", ["range", "modulo", "balanced"])
def test_session_bin_mappings_identical(mats, mapping):
    a = mats["er"]
    cfg = _proc_config(bin_mapping=mapping, pack_keys=(mapping != "modulo"))
    serial = repro.multiply(
        a, a, config=cfg.with_(executor="serial", nthreads=1)
    )
    with Session(cfg) as s:
        c = s.multiply(a, a)
    _assert_identical(serial, c)


# ---------------------------------------------------------------------------
# Warm pool: spawned once, reused, grown on demand
# ---------------------------------------------------------------------------

@needs_pool
@pytest.mark.usefixtures("numpy_pipeline")
def test_pool_spawned_once_across_multiplies(mats):
    a = mats["er"]
    with Session(_proc_config()) as s:
        assert not s.is_warm()  # lazy: nothing spawned yet
        for _ in range(3):
            s.multiply(a, a)
        assert s.is_warm()
        engine = s._engine
        assert engine.spawn_count == 1
        assert s.stats.multiplies == 3
        assert s.stats.engine_multiplies == 3
        assert s.multiply(a, a) is not None
        assert s._engine is engine  # same engine object throughout
    assert not s.is_warm()


@needs_pool
@pytest.mark.usefixtures("numpy_pipeline")
def test_pool_grows_never_shrinks(mats):
    a = mats["er"]
    with Session(_proc_config(nthreads=2)) as s:
        s.multiply(a, a)
        assert s._engine.nworkers == 2
        s.multiply(a, a, config=_proc_config(nthreads=3))
        assert s._engine.nworkers == 3
        assert s._engine.spawn_count == 2
        # A narrower request afterwards does not respawn.
        s.multiply(a, a, config=_proc_config(nthreads=2))
        assert s._engine.nworkers == 3
        assert s._engine.spawn_count == 2


@needs_pool
@pytest.mark.usefixtures("numpy_pipeline")
def test_warm_up_and_multiply_many(mats):
    a = mats["er"]
    serial = repro.multiply(a, a, config=PBConfig(nbins=16))
    with Session(_proc_config(), warm=True) as s:
        assert s.is_warm()
        out = s.multiply_many([(a, a), (a, a)])
    assert len(out) == 2
    for c in out:
        _assert_identical(serial, c)


@needs_pool
@pytest.mark.usefixtures("numpy_pipeline")
def test_arena_recycling_hits(mats):
    a = mats["er"]
    with Session(_proc_config()) as s:
        s.multiply(a, a)
        first = s.arena_pool.stats()
        s.multiply(a, a)
        s.multiply(a, a)
        after = s.arena_pool.stats()
    # Steady-state multiplies lease from the free lists, not the OS.
    assert after["hits"] > first["hits"]
    assert after["misses"] == first["misses"]
    # Every lease was returned, and close() unlinked what was parked.
    assert s.stats.arena_stats["released"] == s.stats.arena_stats["leases"]
    assert s.stats.arena_stats["unlinked"] == s.stats.arena_stats["misses"]


@needs_pool
def test_compiled_session_never_spawns(mats):
    """With the compiled pipeline available, a process session runs
    every plain multiply in process on threads: no pool is spawned,
    grown or booked, even by ``warm_up``."""
    from repro.kernels import jit

    if not jit.jit_available():
        pytest.skip("no JIT engine on this machine")
    a = mats["rmat"]
    serial = repro.multiply(a, a, config=PBConfig(nbins=16))
    with Session(_proc_config(), warm=True) as s:
        for _ in range(2):
            _assert_identical(serial, s.multiply(a, a))
        res = s.multiply_detailed(a, a)
        s.multiply(a, a, config=_proc_config(nthreads=3))
        s.multiply_many([(a, a), (a, a)])
        assert res.pipeline == "compiled"
        assert res.executor_used in ("threads", "serial")
        assert s.stats.engine_spawns == 0
        assert s.stats.engine_multiplies == 0
        assert not s.is_warm()
        assert s.engine_for() is None
        assert s.stats.jit_warmup_s >= 0.0 and jit.jit_status()["warmed"]


# ---------------------------------------------------------------------------
# Lifecycle and validation
# ---------------------------------------------------------------------------

@needs_pool
@pytest.mark.usefixtures("numpy_pipeline")
def test_engine_close_idempotent_and_safe_after_free_arenas(mats):
    """Satellite regression: close() after free_arenas(), then close()
    again, must be no-ops — a private engine sees exactly this sequence:
    the pb pipeline's finally block frees the arenas, then engine_scope
    closes the pool."""
    a = mats["er"].to_csc()
    b = mats["er"].to_csr()
    engine = ProcessEngine(2)
    res = _pb_run(a, b, PLUS_TIMES, _proc_config(), engine)
    assert res.executor_used == "process"
    engine.free_arenas()
    engine.close()
    engine.close()  # second close: no-op, no raise
    assert engine._closed
    with pytest.raises(RuntimeError, match="closed"):
        engine.ensure_workers(4)


@needs_pool
def test_session_close_idempotent(mats):
    s = Session(_proc_config())
    s.multiply(mats["er"], mats["er"])
    s.close()
    s.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        s.engine_for()


def test_validate_session_rejects_serial_fallback_config():
    with pytest.raises(ConfigError, match="nthreads >= 2"):
        Session(PBConfig(executor="process", nthreads=1))
    # The same config is fine *outside* a session (documented fallback).
    assert PBConfig(executor="process", nthreads=1).executor == "process"


def test_session_with_serial_config_has_no_engine():
    with Session(PBConfig(nbins=16)) as s:
        a = erdos_renyi(1 << 8, edge_factor=4, seed=3)
        c = s.multiply(a, a)
        assert not s.is_warm()
        assert s.engine_for() is None
        assert s.stats.engine_multiplies == 0
    serial = repro.multiply(a, a, config=PBConfig(nbins=16))
    _assert_identical(serial, c)


def test_pipeline_config_validation():
    with pytest.raises(ConfigError, match="pipeline"):
        PBConfig(pipeline="bogus")
    with pytest.raises(ConfigError, match="pipeline"):
        PBConfig(executor="process", nthreads=2, pipeline="pipelined")
    assert PBConfig(executor="process", nthreads=2, pipeline="barrier")


def test_supports_session_metadata():
    meta = algorithm_metadata()
    for name in ("pb", "tiled", "sharded"):
        assert meta[name]["supports_session"] is True
    assert all("supports_session" in m for m in meta.values())
    assert meta["hash"]["supports_session"] is False


@needs_pool
def test_unpicklable_semiring_never_books_the_engine(mats):
    """A semiring that cannot travel to workers runs serially, so the
    session neither spawns its pool nor counts an engine multiply."""
    closure = Semiring("custom_lambda", np.add, lambda x, y: x * y, 0.0)
    a = mats["er"]
    with Session(_proc_config()) as s:
        c = s.multiply(a, a, semiring=closure)
        assert s.stats.engine_multiplies == 0
        assert not s.is_warm()
    _assert_identical(
        repro.multiply(a, a, semiring=closure, config=PBConfig(nbins=16)), c
    )


@needs_pool
@pytest.mark.usefixtures("numpy_pipeline")
def test_kernel_entries_without_config_run_under_session_config(mats):
    """A kernel-level call with ``session=`` and no ``config=`` runs
    under the session's config — on its warm engine — exactly as
    :meth:`Session.multiply` does."""
    from repro.core import (
        partitioned_pb_spgemm,
        pb_spgemm_detailed,
        sharded_spgemm_detailed,
        tiled_spgemm_detailed,
    )
    from repro.core.blocks import fused_multiply_detailed

    a_csc, a_csr = mats["er"].to_csc(), mats["er"].to_csr()
    ref = repro.multiply(a_csc, a_csr, config=PBConfig(nbins=16))
    with Session(_proc_config()) as s:
        res = pb_spgemm_detailed(a_csc, a_csr, session=s)
        assert res.executor_used == "process"
        assert s.stats.engine_multiplies == 1
        tiled = tiled_spgemm_detailed(a_csc, a_csr, session=s)
        assert tiled.executor_used == "process"
        assert s.stats.engine_multiplies == 2
        partitioned_pb_spgemm(a_csc, a_csr, session=s)
        assert s.stats.engine_multiplies == 3
        sharded = sharded_spgemm_detailed(a_csc, a_csr, session=s)
        assert sharded.tiled.executor_used == "process"
        assert s.stats.engine_multiplies == 4
        (fused, _), detail = fused_multiply_detailed(
            [(a_csc, a_csr), (a_csc, a_csr)], session=s
        )
        assert detail.executor_used == "process"
        assert s.stats.engine_multiplies == 5
    _assert_identical(ref, res.c)
    _assert_identical(ref, tiled.c)
    _assert_identical(ref, fused)


# ---------------------------------------------------------------------------
# ArenaPool unit behavior
# ---------------------------------------------------------------------------

@needs_pool
def test_arena_pool_size_classes():
    assert ArenaPool.size_class(1) == ArenaPool.MIN_CLASS_BYTES
    assert ArenaPool.size_class(4097) == 8192
    assert ArenaPool.size_class(8192) == 8192
    pool = ArenaPool()
    seg, fresh = pool.lease(6000)
    assert fresh and seg.size >= 6000
    pool.release(seg)
    seg2, fresh2 = pool.lease(6000)
    assert not fresh2  # recycled, same size class
    pool.release(seg2)
    pool.close()
    assert pool.stats()["unlinked"] == 1
    pool.close()  # idempotent


@needs_pool
@pytest.mark.usefixtures("numpy_pipeline")
def test_session_auto_plan_prices_warm_pool(mats, tmp_path):
    """algorithm='auto' on a warm session keys and prices plans
    separately from cold calls."""
    from repro.planner import plan as make_plan
    from repro.planner.calibrate import default_profile

    a = mats["er"]
    cfg = _proc_config(plan_cache_dir=str(tmp_path))
    cold = make_plan(a.to_csc(), a.to_csr(), config=cfg)
    warm = make_plan(a.to_csc(), a.to_csr(), config=cfg, warm_pool=True)
    assert cold.cache_key != warm.cache_key
    assert warm.cache_key.endswith(":warm]")
    prof = default_profile()
    pb_cold = next(c for c in cold.candidates if c.algorithm == "pb")
    pb_warm = next(c for c in warm.candidates if c.algorithm == "pb")
    delta = pb_cold.predicted_seconds - pb_warm.predicted_seconds
    assert delta == pytest.approx(prof.pool_startup_s - prof.warm_dispatch_s)
    # End to end: auto inside a warm session executes and matches the
    # chosen algorithm run directly.
    with Session(cfg) as s:
        s.warm_up()
        c = s.multiply(a, a, algorithm="auto")
        again = s.multiply(a, a, algorithm="auto")
    _assert_identical(c, again)
