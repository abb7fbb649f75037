"""Threaded compiled PB (``PBConfig.nthreads``, ``repro.parallel.threads``).

The contract: a multiply on 2, 3 or 7 threads equals the one-thread
compiled pipeline and the numpy pipeline bit for bit, whatever the
semiring, bin mapping, key width, local-bin setting or shape — including
more threads than bins or than nonempty columns.  The differential
property draws the block-core ``problems`` and lowers the thread
policy's work floor so even tiny products split; with the compiled tier
off (``REPRO_JIT_DISABLE=1``) the same property checks the numpy
fallbacks against each other.  No test starts more than a handful of
threads.
"""

import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import PBConfig, Session
from repro.core.pb_spgemm import pb_spgemm_detailed
from repro.core.sharded import sharded_config
from repro.kernels import jit
from repro.parallel import process_backend_available, threads
from repro.parallel.threads import MIN_FLOP_PER_THREAD, ThreadTeam, thread_count

from tests.test_block_core import _bit_equal, problems


def _split_everything():
    """Patches that let the policy split any product: a one-tuple work
    floor and 64 usable CPUs (the team still starts at most
    ``nthreads - 1`` pool threads)."""
    return (
        mock.patch.object(threads, "MIN_FLOP_PER_THREAD", 1),
        mock.patch.object(threads, "usable_cpus", lambda: 64),
    )


# ---------------------------------------------------------------------------
# The thread-count policy (pure)
# ---------------------------------------------------------------------------

class TestThreadCount:
    def test_one_thread_requested(self):
        assert thread_count(1, 10**12, cpus=64) == 1

    def test_capped_by_cpus(self):
        assert thread_count(8, 10**12, cpus=2) == 2
        assert thread_count(10**6, 10**12, cpus=3) == 3

    def test_huge_request_starts_nothing(self):
        before = threading.active_count()
        assert thread_count(10**6, 10**12) == threads.usable_cpus()
        assert threading.active_count() == before

    def test_capped_by_work(self):
        assert thread_count(8, 3 * MIN_FLOP_PER_THREAD + 5, cpus=64) == 3
        assert thread_count(8, MIN_FLOP_PER_THREAD - 1, cpus=64) == 1
        assert thread_count(8, 0, cpus=64) == 1

    def test_usable_cpus_is_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert threads.usable_cpus() == len(os.sched_getaffinity(0))
        assert threads.usable_cpus() >= 1


# ---------------------------------------------------------------------------
# The team
# ---------------------------------------------------------------------------

class TestThreadTeam:
    def test_results_in_task_order_with_per_slot_seconds(self):
        with ThreadTeam(3) as team:
            assert team.map(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]
            assert team.map(lambda x: -x, [1, 2]) == [-1, -2]
            seconds = team.take_seconds()
        assert len(seconds) == 3 and all(t >= 0 for t in seconds)
        assert team.take_seconds() == []

    def test_single_thread_never_starts_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-thread team started a pool")

        monkeypatch.setattr(threads, "ThreadPoolExecutor", no_pool)
        with ThreadTeam(1) as team:
            assert team.map(lambda x: x + 1, [41]) == [42]
        with ThreadTeam(4) as team:
            assert team.map(lambda x: x, []) == []

    def test_more_tasks_than_threads_rejected(self):
        with pytest.raises(ValueError, match="team of 2"):
            ThreadTeam(2).map(lambda x: x, [1, 2, 3])

    def test_error_waits_for_every_task(self):
        done = []

        def task(i):
            if i == 0:
                raise RuntimeError("task 0 failed")
            threading.Event().wait(0.05)
            done.append(i)

        with pytest.raises(RuntimeError, match="task 0"), ThreadTeam(3) as team:
            team.map(task, [0, 1, 2])
        assert sorted(done) == [1, 2]

    def test_close_joins_the_pool_threads(self):
        before = set(threading.enumerate())
        with ThreadTeam(3) as team:
            assert team.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
            started = set(threading.enumerate()) - before
        assert 1 <= len(started) <= 2  # idle pool threads are reused
        assert not any(t.is_alive() for t in started)


# ---------------------------------------------------------------------------
# Differential: threads vs one thread vs the numpy pipeline
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    problems(),
    st.sampled_from([2, 3, 7]),
    st.sampled_from(["range", "balanced"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, 1, 3]),
)
def test_threads_match_one_thread_and_numpy(
    problem, nthreads, mapping, pack, local_bins, nbins
):
    a, b, sr = problem
    one = PBConfig(
        bin_mapping=mapping, pack_keys=pack, use_local_bins=local_bins, nbins=nbins
    )
    floor, cpus = _split_everything()
    with floor, cpus:
        res = pb_spgemm_detailed(a, b, sr, one.with_(nthreads=nthreads))
    single = pb_spgemm_detailed(a, b, sr, one)
    with jit.disabled():
        ref = pb_spgemm_detailed(a, b, sr, one)
    _bit_equal(res.c, ref.c)
    _bit_equal(single.c, ref.c)
    assert np.array_equal(res.tuples_per_bin, ref.tuples_per_bin)
    assert res.radix_passes == ref.radix_passes
    if res.pipeline == "compiled":
        assert single.executor_used == "serial"
        if res.flop > 1:
            assert res.executor_used == "threads"
            for key in ("expand_workers", "sort_compress_workers"):
                secs = res.phase_seconds[key]
                assert 1 <= len(secs) <= nthreads and min(secs) >= 0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from([2, 3, 7]))
def test_process_executor_runs_compiled_threads(problem, nthreads):
    """``executor="process"`` on a compiled-eligible multiply runs the
    threaded compiled pipeline: no engine, same product."""
    if not jit.jit_available():
        pytest.skip("no JIT engine on this machine")
    a, b, sr = problem
    cfg = PBConfig(executor="process", nthreads=nthreads)
    floor, cpus = _split_everything()
    with floor, cpus, mock.patch(
        "repro.parallel.executor.ProcessEngine",
        side_effect=AssertionError("spawned a process engine"),
    ):
        res = pb_spgemm_detailed(a, b, sr, cfg)
    assert res.pipeline == "compiled"
    assert res.executor_used == ("threads" if res.flop > 1 else "serial")
    _bit_equal(res.c, pb_spgemm_detailed(a, b, sr).c)


def test_large_product_splits_without_patches():
    """Above the work floor the real policy splits: an R-MAT product
    of a few million tuples on two threads (one pool thread)."""
    if not jit.jit_available():
        pytest.skip("no JIT engine on this machine")
    if threads.usable_cpus() < 2:
        pytest.skip("one usable CPU: the policy runs inline")
    a = repro.rmat(12, edge_factor=8, seed=3)
    cfg = PBConfig(nthreads=2, use_local_bins=False)
    res = pb_spgemm_detailed(a.to_csc(), a.to_csr(), config=cfg)
    assert res.flop >= 2 * MIN_FLOP_PER_THREAD
    assert res.executor_used == "threads"
    _bit_equal(res.c, pb_spgemm_detailed(a.to_csc(), a.to_csr()).c)


# ---------------------------------------------------------------------------
# Sessions and shards
# ---------------------------------------------------------------------------

def test_session_threads_match_serial():
    a = repro.rmat(9, edge_factor=6, seed=5)
    serial = repro.multiply(a, a)
    floor, cpus = _split_everything()
    with floor, cpus, Session(PBConfig(executor="process", nthreads=3)) as s:
        for sr in ("plus_times", "min_plus"):
            _bit_equal(s.multiply(a, a, semiring=sr), repro.multiply(a, a, semiring=sr))
        _bit_equal(s.multiply(a, a), serial)
        if jit.jit_available():
            assert s.stats.engine_spawns == 0


def test_sharded_config_pins_one_thread():
    cfg = sharded_config(PBConfig(nthreads=4, executor="process"), 2)
    assert (cfg.shards, cfg.executor, cfg.nthreads) == (2, "serial", 1)


@pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)
def test_threaded_then_sharded_leaves_no_extra_threads():
    """A threaded multiply joins its pool threads before it returns; a
    sharded multiply with the same ``nthreads`` afterwards forks its
    shards, completes, and starts no thread in this process."""
    a = repro.erdos_renyi(1 << 10, edge_factor=8, seed=9)
    before = threading.active_count()
    floor, cpus = _split_everything()
    with floor, cpus:
        threaded = repro.multiply(a, a, config=PBConfig(nthreads=2))
    assert threading.active_count() == before
    sharded = repro.multiply(a, a, shards=2, config=PBConfig(nthreads=2))
    _bit_equal(sharded, threaded)
    assert threading.active_count() == before
