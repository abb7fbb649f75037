"""Tests for the multi-process sharded engine (``repro.core.sharded``).

The load-bearing contract is bit-identity: the sharded multiply must
equal the monolithic ``pb_spgemm`` bit-for-bit on every semiring, for
every shard count, panel grid and shape (k > n included), no matter in
which order the shards finish — because the k dimension is never split
and the parent merges tiles in deterministic (row, column) order, not
arrival order — and without any shard being recovered.  Around that:
shard planning, recovery by cause (a Python exception re-raised in the
parent, a signal death recomputed with a warning), the ``--shards
auto`` heuristic, planner pricing, serve routing, and the CLI conflict
checks.
"""

import contextlib
import glob
import io
import multiprocessing as mp
import os
import warnings

import numpy as np
import pytest

from repro import PBConfig, multiply
from repro.core import pb_spgemm
from repro.core.sharded import (
    FAULT_ENV,
    MAX_AUTO_SHARDS,
    plan_shards,
    resolve_shards,
    sharded_config,
    sharded_peak_bytes,
    sharded_spgemm,
    sharded_spgemm_detailed,
)
from repro.core import sharded as sharded_mod
from repro.errors import ConfigError, ShapeError
from repro.generators import erdos_renyi
from repro.kernels.tile_merge import accumulate_partials, hstack_tiles
from repro.matrix import CSCMatrix, CSRMatrix
from repro.matrix.ops import col_slice, row_slice
from repro.parallel import process_backend_available
from repro.semiring import available_semirings, get_semiring

from tests.util import random_coo

pytestmark = pytest.mark.sharded

needs_pool = pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)

SEMIRINGS = sorted(available_semirings())


def _bit_equal(c, ref):
    assert c.shape == ref.shape
    assert np.array_equal(c.indptr, ref.indptr)
    assert np.array_equal(c.indices, ref.indices)
    assert np.array_equal(c.data, ref.data)


@pytest.fixture(scope="module")
def operands():
    a = erdos_renyi(512, 6, seed=11, fmt="csc")
    b = erdos_renyi(512, 6, seed=12, fmt="csr")
    return a, b


# ---------------------------------------------------------------------------
# bit-identity
# ---------------------------------------------------------------------------


@needs_pool
@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_bit_identical_all_semirings(operands, semiring):
    a, b = operands
    ref = pb_spgemm(a, b, semiring)
    res = sharded_spgemm_detailed(a, b, semiring, PBConfig(shards=2))
    assert res.fallback is None
    assert res.recovered_shards == 0
    _bit_equal(res.c, ref)


@needs_pool
@pytest.mark.parametrize(
    "config",
    [
        PBConfig(shards=3),  # uneven row split
        PBConfig(shards=2, tile_cols=150),  # multi-panel
        PBConfig(shards=2, tile_cols=150, memory_budget=150_000),  # + budget
    ],
    ids=["three-shards", "panels", "parent-merge"],
)
def test_bit_identical_topologies(operands, config):
    a, b = operands
    ref = pb_spgemm(a, b, "plus_times")
    res = sharded_spgemm_detailed(a, b, "plus_times", config)
    assert res.fallback is None
    assert res.recovered_shards == 0
    _bit_equal(res.c, ref)
    assert sorted(s.sid for s in res.shard_stats) == list(
        range(res.plan.grid_rows)
    )


@needs_pool
def test_ragged_rectangular(operands):
    coo_a = random_coo(np.random.default_rng(5), 97, 53, 400)
    coo_b = random_coo(np.random.default_rng(6), 53, 71, 380)
    a, b = coo_a.to_csc(), coo_b.to_csr()
    ref = pb_spgemm(a, b, "min_plus")
    res = sharded_spgemm_detailed(a, b, "min_plus", PBConfig(shards=3))
    assert res.recovered_shards == 0
    _bit_equal(res.c, ref)


@needs_pool
def test_k_greater_than_n_no_recovery():
    """600x900 @ 900x300: workers must see A as (m, k), panels as (k, w).

    With the wrong operand shapes every shard crashed and the parent
    silently recomputed all of them; the product was still right, so
    only ``recovered_shards`` shows the difference.
    """
    a = random_coo(np.random.default_rng(51), 600, 900, 6000).to_csc()
    b = random_coo(np.random.default_rng(52), 900, 300, 3000).to_csr()
    ref = pb_spgemm(a, b, "plus_times")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a recovery would warn
        res = sharded_spgemm_detailed(a, b, "plus_times", PBConfig(shards=2))
    assert res.fallback is None
    assert res.recovered_shards == 0
    _bit_equal(res.c, ref)


@needs_pool
def test_single_panel_parent_merge_copies_out_of_sink(operands):
    """One column panel: ``hstack_tiles`` returns the streamed tile
    itself, a view into a shared-memory sink that is released (and
    recycled for the next shard's tile) right after the merge."""
    a, b = operands
    ref = pb_spgemm(a, b, "plus_times")
    res = sharded_spgemm_detailed(a, b, "plus_times", PBConfig(shards=2))
    assert res.plan.grid_cols == 1
    assert res.recovered_shards == 0
    _bit_equal(res.c, ref)


def test_shape_mismatch_raises():
    a = erdos_renyi(16, 2, seed=1, fmt="csc")
    b = erdos_renyi(32, 2, seed=2, fmt="csr")
    with pytest.raises(ShapeError):
        sharded_spgemm(a, b, config=PBConfig(shards=2))


@needs_pool
def test_empty_product_falls_back():
    a = CSCMatrix.empty((40, 40))
    b = erdos_renyi(40, 2, seed=3, fmt="csr")
    res = sharded_spgemm_detailed(a, b, "plus_times", PBConfig(shards=2))
    assert res.fallback is not None
    assert res.c.nnz == 0 and res.c.shape == (40, 40)


def test_single_shard_falls_back_to_tiled(operands):
    a, b = operands
    res = sharded_spgemm_detailed(a, b, "plus_times", PBConfig(shards=1))
    assert res.fallback == "shards resolve to 1"
    assert res.tiled is not None
    _bit_equal(res.c, pb_spgemm(a, b, "plus_times"))


# ---------------------------------------------------------------------------
# out-of-order panel arrival (satellite: merge determinism)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_hstack_merge_ignores_arrival_order(semiring):
    """Shards finish in arbitrary order; the merged product may not care.

    The parent's merge is position-keyed, not arrival-keyed: compute
    each row panel's tiles, then assemble panels under several arrival
    permutations and demand bit-equality with the monolithic product —
    including float ``plus_times``, whose ⊕ is not associative, because
    every output position still folds the same k-ordered sequence.
    """
    sr = get_semiring(semiring)
    a = erdos_renyi(120, 5, seed=21, fmt="csc")
    b = erdos_renyi(120, 5, seed=22, fmt="csr")
    ref = pb_spgemm(a, b, sr)
    a_csr = a.to_csr()
    b_csc = b.to_csr().to_csc()
    row_edges = [0, 37, 61, 120]
    col_edges = [0, 50, 83, 120]

    def assemble(arrival):
        panels = {}
        for i in arrival:  # completion order varies; results may not
            a_i = row_slice(a_csr, row_edges[i], row_edges[i + 1]).to_csc()
            tiles = []
            for j in range(len(col_edges) - 1):
                b_j = col_slice(b_csc, col_edges[j], col_edges[j + 1]).to_csr()
                tiles.append(pb_spgemm(a_i, b_j, sr))
            panels[i] = hstack_tiles(
                tiles, col_edges[:-1], row_edges[i + 1] - row_edges[i], 120, sr
            )
        # assembly is always ascending-sid, whatever the arrival order
        indptr = [np.zeros(1, dtype=np.int64)]
        indices, data, off = [], [], 0
        for i in range(len(row_edges) - 1):
            blk = panels[i]
            indptr.append(blk.indptr[1:] + off)
            indices.append(blk.indices)
            data.append(blk.data)
            off += blk.nnz
        return CSRMatrix(
            (120, 120),
            np.concatenate(indptr),
            np.concatenate(indices),
            np.concatenate(data),
            validate=False,
        )

    for arrival in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        _bit_equal(assemble(arrival), ref)


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_accumulate_partials_out_of_order(semiring):
    """k-split partials: list order is the fold order, and it shows.

    For idempotent-⊕ semirings the stack order cannot matter; for the
    float ``plus_times`` ⊕ it can — the guarantee is *determinism in
    list order*, which is why a future 3D k-split must stack partials
    in k order, and why the 2D sharded engine (k never split) is exempt
    from the question entirely.
    """
    sr = get_semiring(semiring)
    coo_a = random_coo(np.random.default_rng(31), 40, 60, 500)
    coo_b = random_coo(np.random.default_rng(32), 60, 35, 500)
    a_csr, b_csc = coo_a.to_csr(), coo_b.to_csc()
    k0 = 29
    parts = []
    for lo, hi in ((0, k0), (k0, 60)):
        a_half = col_slice(a_csr.to_csc(), lo, hi)
        b_half = row_slice(b_csc.to_csr(), lo, hi)
        parts.append(pb_spgemm(a_half, b_half, sr))
    in_order = accumulate_partials(list(parts), sr)
    reversed_ = accumulate_partials(list(reversed(parts)), sr)
    again = accumulate_partials(list(parts), sr)
    # deterministic: same list -> same bits
    _bit_equal(again, in_order)
    assert np.array_equal(in_order.indices, reversed_.indices)
    if semiring == "plus_times":
        # same values up to reassociation of the k split...
        assert np.allclose(in_order.data, reversed_.data)
    else:
        # ...and bit-equal under idempotent/exact ⊕, either order
        _bit_equal(reversed_, in_order)


# ---------------------------------------------------------------------------
# shard planning
# ---------------------------------------------------------------------------


def test_resolve_shards_values():
    assert resolve_shards(None) == 1
    assert resolve_shards(4) == 4
    assert resolve_shards(4, m=3) == 3  # clamped to rows
    assert resolve_shards(1) == 1


def test_resolve_shards_auto(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # plenty of memory: core count wins
    assert resolve_shards("auto", m=10_000, flop=10**7, memory_budget=None) == 4
    # small problems do not shard: spawn cost dominates
    assert resolve_shards("auto", m=10_000, flop=1000) == 1
    # memory pressure raises the count: working set 48 * 1e7 = 480 MB,
    # per-process budget 100 MB -> needs >= 5 shards
    assert (
        resolve_shards("auto", m=10_000, flop=10**7, memory_budget=100_000_000)
        == 5
    )
    # ...capped at MAX_AUTO_SHARDS
    assert (
        resolve_shards("auto", m=10_000, flop=10**9, memory_budget=10_000_000)
        == MAX_AUTO_SHARDS
    )


def test_plan_shards_balances_rows():
    m, n = 100, 80
    row_flops = np.ones(m, dtype=np.int64)
    plan = plan_shards(n, row_flops, 4, PBConfig())
    assert plan.grid_rows == 4
    assert plan.row_edges[0] == 0 and plan.row_edges[-1] == m
    sizes = np.diff(plan.row_edges)
    assert max(sizes) - min(sizes) <= 1  # uniform flop -> even rows
    assert plan.grid_cols == 1


def test_plan_shards_budget_drives_columns():
    m = n = 1000
    row_flops = np.full(m, 1000, dtype=np.int64)
    cfg = PBConfig(shards=4, memory_budget=2_000_000)
    plan = plan_shards(n, row_flops, 4, cfg)
    # per-shard flop 250k -> working 12 MB vs usable 1 MB -> 12 panels
    assert plan.grid_cols == 12
    assert plan.col_edges[0] == 0 and plan.col_edges[-1] == n


def test_sharded_config_downgrades_process():
    cfg = sharded_config(PBConfig(executor="process", nthreads=4), 2)
    assert cfg.shards == 2 and cfg.executor == "serial"


def test_config_validation():
    with pytest.raises(ConfigError):
        PBConfig(shards=0)
    with pytest.raises(ConfigError):
        PBConfig(shards="many")
    with pytest.raises(ConfigError):
        PBConfig(shards=2, executor="process", nthreads=2)
    assert PBConfig(shards="auto").shards == "auto"


def test_sharded_peak_bytes_shrinks_with_shards():
    one = sharded_peak_bytes(10**7, 1000, 1000, 1, 1)
    four = sharded_peak_bytes(10**7, 1000, 1000, 4, 1)
    assert four < one


# ---------------------------------------------------------------------------
# recovery by cause (satellite: crash hygiene)
# ---------------------------------------------------------------------------


def _shm_names():
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))


@needs_pool
@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs the fork start method"
)
def test_shard_exception_reraised_in_parent(operands, monkeypatch):
    """A Python exception in a shard is a bug: the parent re-raises it
    with the worker traceback, never recomputes it, and leaves no
    shared-memory segment or live worker behind."""
    from repro.core import blocks

    def bomb(*args, **kwargs):
        raise ValueError("kernel bomb")

    a, b = operands
    before = _shm_names()
    monkeypatch.setattr(blocks, "_pb_run", bomb)  # forked shards inherit it
    with pytest.raises(ValueError, match="kernel bomb") as info:
        sharded_spgemm_detailed(a, b, "plus_times", PBConfig(shards=2))
    assert "kernel bomb" in str(info.value.__cause__)
    assert "in shard" in str(info.value.__cause__)
    assert not mp.active_children()
    assert _shm_names() - before == set()


class _NoUnpickle(Exception):
    """Pickles fine, but unpickling calls ``__init__`` with one argument."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@needs_pool
@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs the fork start method"
)
def test_shard_unpicklable_exception_still_surfaces(operands, monkeypatch):
    """An exception that pickles but cannot unpickle reaches the parent
    as a RuntimeError carrying its repr, not as an unpickling error."""
    from repro.core import blocks

    def bomb(*args, **kwargs):
        raise _NoUnpickle("kernel bomb", "tile")

    a, b = operands
    before = _shm_names()
    monkeypatch.setattr(blocks, "_pb_run", bomb)
    with pytest.raises(RuntimeError, match="_NoUnpickle.*kernel bomb") as info:
        sharded_spgemm_detailed(a, b, "plus_times", PBConfig(shards=2))
    assert "in shard" in str(info.value.__cause__)
    assert not mp.active_children()
    assert _shm_names() - before == set()


@needs_pool
def test_shard_killed_at_start_recovers(operands):
    a, b = operands
    ref = pb_spgemm(a, b, "plus_times")
    os.environ[FAULT_ENV] = "start:1"
    try:
        with pytest.warns(RuntimeWarning, match="shard 1 died by SIGKILL"):
            res = sharded_spgemm_detailed(a, b, "plus_times", PBConfig(shards=3))
    finally:
        del os.environ[FAULT_ENV]
    assert res.recovered_shards == 1
    assert [s.sid for s in res.shard_stats if s.recovered] == [1]
    _bit_equal(res.c, ref)


@needs_pool
def test_shard_killed_with_parent_spill_no_orphans(tmp_path, operands, monkeypatch):
    """SIGKILL a shard while the parent stages merged row panels
    through its spill store: the product is still right (panel
    recomputed in process) and no ``.npz`` outlives the multiply."""
    a, b = operands
    ref = pb_spgemm(a, b, "plus_times")
    stores = []

    class RecordingStore(sharded_mod.SpillStore):
        def close(self):
            stores.append(self.spilled_entries)
            super().close()

    monkeypatch.setattr(sharded_mod, "SpillStore", RecordingStore)
    cfg = PBConfig(
        shards=3, tile_cols=128, memory_budget=20_000, spill_dir=str(tmp_path)
    )
    os.environ[FAULT_ENV] = "start:0"
    try:
        with pytest.warns(RuntimeWarning, match="shard 0"):
            res = sharded_spgemm_detailed(a, b, "plus_times", cfg)
    finally:
        del os.environ[FAULT_ENV]
    assert res.recovered_shards == 1
    assert stores and stores[-1] > 0, "parent never spilled a panel"
    assert not glob.glob(str(tmp_path / "*.npz")), "orphaned stage files"
    _bit_equal(res.c, ref)


# ---------------------------------------------------------------------------
# front-door wiring: multiply / session / planner / serve / CLI
# ---------------------------------------------------------------------------


@needs_pool
def test_multiply_shards_kwarg(operands):
    a, b = operands
    ref = pb_spgemm(a, b, "plus_times")
    _bit_equal(multiply(a, b, shards=2), ref)
    # config-borne shards upgrade pb to the sharded path too
    _bit_equal(multiply(a, b, config=PBConfig(shards=2)), ref)


def test_multiply_shards_rejects_other_algorithms(operands):
    a, b = operands
    with pytest.raises(ConfigError):
        multiply(a, b, algorithm="hash", shards=2)


@needs_pool
def test_session_books_sharded_multiplies(operands):
    from repro.session import Session

    a, b = operands
    ref = pb_spgemm(a, b, "plus_times")
    with Session(config=PBConfig(shards=2)) as s:
        _bit_equal(s.multiply(a, b, algorithm="sharded"), ref)
        _bit_equal(s.multiply(a, b, algorithm="sharded"), ref)
        assert s.stats.sharded_multiplies == 2
        pool = s.runtime_stats()["arena_pool"]
        assert pool["outstanding"] == 0  # broadcast/return segs returned
        assert pool["hits"] > 0  # the second multiply recycled segments


def test_planner_prices_sharded(operands):
    from repro.planner import plan

    a, b = operands
    p = plan(a, b, config=PBConfig(shards=4))
    cands = {c.algorithm: c for c in p.candidates}
    assert "sharded" in cands
    sharded = cands["sharded"]
    assert sharded.executor == "sharded"
    assert sharded.overrides.get("shards") == 4
    assert sharded.predicted_peak_bytes > 0


def test_planner_gates_sharded_off_process_executor(operands):
    from repro.planner import plan

    a, b = operands
    p = plan(a, b, config=PBConfig(executor="process", nthreads=2))
    assert all(c.algorithm != "sharded" for c in p.candidates)


def test_scheduler_solo_tuples():
    from repro.serve.scheduler import BatchScheduler, ServeRequest

    def mk(rid, tuples):
        return ServeRequest(
            id=rid, a_csc=None, b_csr=None, algorithm="pb",
            semiring="plus_times", tuples=tuples,
        )

    sched = BatchScheduler(
        None, max_batch=8, max_batch_tuples=10**9, solo_tuples=1000
    )
    for r in (mk(1, 10), mk(2, 5000), mk(3, 20), mk(4, 30)):
        assert sched.submit(r) is None
    w1 = sched._next_wave()  # head is small and fusable...
    assert [r.id for r in w1.requests] == [1, 3, 4]  # ...big one skipped
    w2 = sched._next_wave()
    assert [r.id for r in w2.requests] == [2]  # the giant rides alone
    assert sched.gauges()["solo_tuples"] == 1000


@needs_pool
def test_serve_routes_large_requests_to_shards(operands):
    """``serve --shards 2 --shard-tuples 0`` really shards a request:
    the reply is ok, reports two shards and no fallback, and its
    product is bit-identical to ``pb_spgemm``."""
    import asyncio

    from repro.serve import MultiplyServer, ServeClient, ServeConfig

    a, b = operands
    ref = pb_spgemm(a, b, "plus_times")
    before = _shm_names()

    async def scenario():
        server = await MultiplyServer(
            PBConfig(), ServeConfig(port=0, shards=2, shard_tuples=0)
        ).start()
        try:
            async with await ServeClient.connect(*server.address) as client:
                return await client.multiply(a, b), await client.stats()
        finally:
            await server.close()

    reply, stats = asyncio.run(scenario())
    assert reply.plan["algorithm"] == "sharded"
    assert reply.plan["shards"] == 2
    assert reply.plan["fallback"] is None
    _bit_equal(reply.c, ref)
    # the shard route runs through the session's accounting
    assert stats["session"]["multiplies"] == 1
    assert stats["session"]["sharded_multiplies"] == 1
    assert _shm_names() - before == set()


def test_cli_shards_conflicts(tmp_path, operands):
    from repro.cli import main
    from repro.matrix.io import write_matrix_market

    a, _ = operands
    path = str(tmp_path / "a.mtx")
    write_matrix_market(a.to_csr(), path)
    cases = [
        ["matrix", "multiply", path, "--shards", "2", "--executor", "process",
         "--nthreads", "2"],
        ["matrix", "multiply", path, "--shards", "2", "--tile-rows", "10"],
        ["matrix", "multiply", path, "--shards", "zero"],
        ["matrix", "multiply", path, "--shards", "0"],
        ["matrix", "multiply", path, "--shards", "2", "--algorithm", "heap"],
    ]
    for argv in cases:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2, argv
        assert err.getvalue().strip(), argv


@needs_pool
def test_cli_shards_runs(tmp_path, operands, capsys):
    from repro.cli import main
    from repro.matrix.io import write_matrix_market

    a, _ = operands
    path = str(tmp_path / "a.mtx")
    write_matrix_market(a.to_csr(), path)
    assert main(["matrix", "multiply", path, "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "shards=2" in out
