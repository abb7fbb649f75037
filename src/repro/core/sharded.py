"""Multi-process sharded SpGEMM: the block core with one process per row panel.

The tiled engine (:mod:`repro.core.tiled`) bounds one process's peak
memory but runs every tile of the grid in that one process.  This
driver runs the same block core (:mod:`repro.core.blocks`, DESIGN.md
§16) across worker processes ("shards"): each shard owns one
flop-balanced row panel of the grid, the operands travel once through
shared memory, and each shard runs its tiles as small serial PB
multiplies — the owner-computes 2D decomposition of Buluç & Gilbert,
with B column panels broadcast instead of cyclically shifted because
every shard shares the same physical memory.

Topology and protocol
---------------------
* The parent splits A's rows into ``shards`` contiguous ranges of
  roughly equal flop (:func:`repro._util.balanced_ranges`, the split
  of the balanced bin mapping) and picks ONE column-panel split for
  everybody (:func:`repro.core.blocks.col_panels_for`).
* A (CSR) and every column panel of B (CSR, converted once in the
  parent) are published as shared-memory segments leased from an
  :class:`~repro.parallel.shm.ArenaPool` — a session's recycling pool
  when one is passed, a private pool otherwise.  Each segment set
  carries its matrix's shape, so workers rebuild exactly the parent's
  ``(m, k)`` and ``(k, width)`` operands, zero-copy; nothing large is
  ever pickled.
* Each shard computes its tiles in ascending column order and streams
  every non-empty tile back through a size handshake: the worker
  reports the tile's nnz, the parent leases a pool segment and replies
  with its spec, the worker copies the tile in.
* The parent is the only merge side: when a shard reports done, the
  parent runs the semiring-aware column merge
  (:func:`repro.kernels.tile_merge.hstack_tiles`) over its tiles and
  stages the row panel; assembly is the core's preallocated-CSR copy
  in ascending row order no matter when shards finish.  Output is
  therefore bit-identical to ``pb_spgemm`` on every semiring.

Memory contract
---------------
``memory_budget`` is **per process**: each shard's private working set
(one tile's expand/sort arenas, ``TILE_WORKING_BYTES_PER_FLOP`` per
tuple) is sized to fit it, which is the whole point — four shards
under a 256 MiB budget own 1 GiB of aggregate headroom and can run a
coarse, spill-free grid where a single budgeted process must run a
fine grid and round-trip its staging through disk.  The parent's
staging cache is therefore sized to the *aggregate* grant
(``shards * memory_budget``): that memory was already granted to the
shard group, and the handoff must not force panels through disk just
because the parent is one process.  The assembled product itself
remains the irreducible in-memory floor, exactly as for tiled.

Degradation and recovery
------------------------
The sharded driver falls back to the in-process tiled path (and says
so in ``ShardedResult.fallback``) when shards resolve to 1, when the
platform lacks POSIX shared memory, when the semiring is an
unregistered object that cannot travel to a worker, when the product
is empty, or when the flop-balanced row split yields a single range.
Recovery depends on the cause of a shard's death.  A shard that
raises a Python exception has hit a bug: its exception and traceback
travel to the parent, which re-raises it after reaping the other
shards and releasing every shared segment.  A shard killed by a
signal (SIGKILL, the OOM killer) met an environmental fault: the
parent warns (``RuntimeWarning`` naming the shard and the signal),
recomputes the shard's row panel in process with the same tile loop,
and counts it in ``ShardedResult.recovered_shards``.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import queue as queue_mod
import signal
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from .._util import balanced_ranges
from ..errors import ShapeError
from ..kernels.tile_merge import hstack_tiles
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..matrix.ops import row_slice
from ..matrix.stats import flops_per_row
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .blocks import (
    CSR_ENTRY_BYTES,
    TILE_WORKING_BYTES_PER_FLOP,
    BlockGrid,
    assemble_rows,
    col_panels_for,
    row_panel_tiles,
    split_col_panels,
    uniform_edges,
)
from .config import PBConfig, effective_config
from .tiled import SpillStore, tiled_spgemm_detailed

#: ``shards="auto"`` never derives more than this many workers.
MAX_AUTO_SHARDS = 8

#: Below this many flops sharding cannot amortize process startup and
#: ``"auto"`` resolves to 1 (the in-process tiled fallback).
MIN_SHARD_FLOP = 1 << 18

#: Environment hook for lifecycle tests ONLY: ``"start:<sid>"`` makes
#: shard ``sid`` SIGKILL itself right after attaching the operands.
#: Exercises the signal-death recovery path deterministically; never
#: set in production.
FAULT_ENV = "REPRO_SHARDED_TEST_FAULT"

_CSR_PARTS = ("indptr", "indices", "data")


def resolve_shards(
    shards: int | str | None,
    *,
    m: int | None = None,
    flop: int | None = None,
    memory_budget: int | None = None,
) -> int:
    """Resolve a ``PBConfig.shards`` value to a concrete worker count.

    An explicit int passes through (clamped to the row count — a shard
    with no rows is pointless).  ``"auto"`` starts from
    ``os.cpu_count()``, then *raises* the count — memory pressure is a
    reason for more shards, not fewer, because every extra shard
    shrinks the per-process working set — until the modeled working
    set per shard (``TILE_WORKING_BYTES_PER_FLOP * flop / shards``)
    fits the per-process budget, capped at :data:`MAX_AUTO_SHARDS`.
    Problems below :data:`MIN_SHARD_FLOP` resolve to 1: process
    startup would dominate.  ``None`` resolves to 1 (sharding off).
    """
    if shards is None:
        return 1
    if isinstance(shards, int):
        n = shards
    else:  # "auto" (PBConfig validation admits nothing else)
        if flop is not None and flop < MIN_SHARD_FLOP:
            return 1
        n = max(1, os.cpu_count() or 1)
        if memory_budget is not None and flop:
            working = TILE_WORKING_BYTES_PER_FLOP * float(flop)
            need = math.ceil(working / max(memory_budget, 1))
            n = max(n, need)
        n = min(n, MAX_AUTO_SHARDS)
    if m is not None:
        n = min(n, max(int(m), 1))
    return max(1, n)


def sharded_config(config: PBConfig | None, shards: int | str | None) -> PBConfig:
    """A config routed to the sharded path, conflicts resolved.

    Sets ``shards`` and pins the one-thread serial pipeline the shards
    actually run (``executor="serial"``, ``nthreads=1``): shards are
    the parallelism, so neither a process pool nor a thread team runs
    inside one — the helper serve and the front door call instead of
    re-deriving the compatibility rules of ``PBConfig``.
    """
    cfg = config or PBConfig()
    return cfg.with_(shards=shards, executor="serial", nthreads=1)


def sharded_peak_bytes(
    flop: int,
    nnz_a: int,
    nnz_b: int,
    shards: int,
    grid_cols: int,
) -> float:
    """Modeled peak bytes of the busiest *shard* process.

    The planner's feasibility gate compares this — not the parent's
    assembly floor — against ``memory_budget``, because the per-shard
    working set is what sharding actually bounds.  Shared operand
    pages still count (RSS charges them to every toucher), plus one
    tile's working set under an even flop split.
    """
    inputs = CSR_ENTRY_BYTES * float(nnz_a + nnz_b)
    tile_flop = float(flop) / max(shards * grid_cols, 1)
    return inputs + TILE_WORKING_BYTES_PER_FLOP * tile_flop


@dataclass
class ShardStats:
    """What one shard reports back with its final message."""

    sid: int
    seconds: float = 0.0
    peak_rss_bytes: int = 0
    tiles_computed: int = 0
    tiles_empty: int = 0
    spilled_tiles: int = 0  # always 0: shards stream tiles, never stage them
    recovered: bool = False  # panel recomputed in-parent after a signal death


@dataclass
class ShardedResult:
    """The product plus everything observable about the sharded run."""

    c: CSRMatrix
    plan: BlockGrid | None = None  # one row panel per shard
    shard_stats: list = field(default_factory=list)
    broadcast_bytes: int = 0
    returned_bytes: int = 0
    total_flop: int = 0
    recovered_shards: int = 0
    fallback: str | None = None  # reason the in-process tiled path ran
    tiled: object | None = None  # TiledResult when fallback is not None
    seconds: float = 0.0
    merge_seconds: float = 0.0


def plan_shards(
    n: int,
    row_flops: np.ndarray,
    shards: int,
    config: PBConfig,
) -> BlockGrid:
    """Resolve the shard grid (the sharded policy point).

    Rows: ``shards`` contiguous ranges balanced by per-row flop, one
    row panel per shard.  Columns: the core's column-split policy
    (:func:`repro.core.blocks.col_panels_for`) applied to the busiest
    shard's flop, shared by every shard.
    """
    row_flops = np.asarray(row_flops, dtype=np.float64)
    ranges = balanced_ranges(row_flops, shards)
    row_edges = (0,) + tuple(hi for _, hi in ranges) if ranges else (0, 0)
    max_shard_flop = max(
        (float(np.sum(row_flops[lo:hi])) for lo, hi in ranges), default=0.0
    )
    gc = col_panels_for(n, max_shard_flop, config)
    return BlockGrid(row_edges, uniform_edges(n, math.ceil(n / gc)))


def _share_csr(arena, name: str, mat: CSRMatrix) -> tuple:
    """Publish one CSR in ``arena``; returns its pickle-cheap handle."""
    for part in _CSR_PARTS:
        arena.share(f"{name}_{part}", getattr(mat, part))
    return mat.shape, {part: arena.spec(f"{name}_{part}") for part in _CSR_PARTS}


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _attach_csr(stack: contextlib.ExitStack, handle: tuple) -> CSRMatrix:
    """Map a :func:`_share_csr` handle for the lifetime of ``stack``."""
    from ..parallel.shm import AttachedArrays

    shape, specs = handle
    arrays = stack.enter_context(AttachedArrays(specs))
    return CSRMatrix(
        shape, arrays["indptr"], arrays["indices"], arrays["data"], validate=False
    )


def _send_block(queue, ctrl, tag, mat: CSRMatrix) -> None:
    """Stream one CSR block to the parent via the size handshake."""
    from ..parallel.shm import AttachedArrays

    queue.put(("blk", tag, mat.shape, int(mat.nnz)))
    with AttachedArrays(ctrl.recv()) as views:
        for part in _CSR_PARTS:
            arr = getattr(mat, part)
            views[part][: len(arr)] = arr


def _shard_main(
    sid: int,
    rows: tuple[int, int],
    a_handle: tuple,
    b_handles: list,
    sr_token,
    config: PBConfig,
    queue,
    ctrl,
) -> None:
    """One shard: attach, multiply its row panel's tiles, stream them back.

    A Python exception is a bug, not an environmental fault: it is sent
    to the parent with its traceback and the shard exits with code 1.
    """
    import resource

    from ..parallel.executor import _worker_init

    try:
        _worker_init()  # resource-tracker inheritance probe (fork vs spawn)
        t0 = time.perf_counter()
        stats = ShardStats(sid=sid)
        sr = get_semiring(sr_token)
        with contextlib.ExitStack() as stack:
            a = _attach_csr(stack, a_handle)
            if os.environ.get(FAULT_ENV) == f"start:{sid}":
                os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover
            a_i = row_slice(a, *rows).to_csc()
            # Attach and fault every B panel before the RSS baseline:
            # the budget bounds the multiply's working set *beyond* the
            # operand-resident footprint (the same semantics as the
            # tiled bench's child measurement), so shared operand pages
            # must be resident before the high-water mark is read.
            b_panels = [_attach_csr(stack, h) for h in b_handles]
            for b_j in b_panels:
                for arr in (b_j.indices, b_j.data):
                    if arr.size:
                        arr[:: max(1, 4096 // arr.itemsize)].sum()
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            tiles = row_panel_tiles(a_i, b_panels, sr, config)
            for j, (_, c_ij) in enumerate(tiles):
                if c_ij is None:
                    stats.tiles_empty += 1
                    continue
                stats.tiles_computed += 1
                _send_block(queue, ctrl, (sid, j), c_ij)
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        stats.peak_rss_bytes = max(0, rss1 - rss0) * 1024
        stats.seconds = time.perf_counter() - t0
        queue.put(("done", sid, stats.__dict__))
    except Exception as exc:
        try:
            # Full round trip: some exceptions pickle but fail to
            # unpickle, which would raise in the parent's queue.get.
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(repr(exc))
        queue.put(("error", sid, exc, traceback.format_exc()))
        sys.exit(1)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _RemoteTraceback(Exception):
    """A shard's formatted traceback, chained as the re-raised cause."""


class _BlockSink:
    """Parent-side landing zone for one streamed CSR block."""

    def __init__(self, pool, shape, nnz: int):
        from ..parallel.shm import SharedArena

        self.shape = shape
        self.nnz = int(nnz)
        self.arena = SharedArena(pool=pool)
        self.arena.allocate("indptr", (shape[0] + 1,), INDEX_DTYPE)
        self.arena.allocate("indices", (max(self.nnz, 1),), INDEX_DTYPE)
        self.arena.allocate("data", (max(self.nnz, 1),), VALUE_DTYPE)

    def specs(self) -> dict:
        return {k: self.arena.spec(k) for k in _CSR_PARTS}

    def matrix(self) -> CSRMatrix:
        """Zero-copy view of the landed block (valid until release)."""
        return CSRMatrix(
            self.shape,
            self.arena.view("indptr"),
            self.arena.view("indices")[: self.nnz],
            self.arena.view("data")[: self.nnz],
            validate=False,
        )

    def release(self) -> None:
        self.arena.close()

    @property
    def nbytes(self) -> int:
        return 8 * (self.shape[0] + 1) + CSR_ENTRY_BYTES * self.nnz


def sharded_spgemm_detailed(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    session=None,
) -> ShardedResult:
    """C = A · B across shard processes; see the module docstring.

    ``session`` — a :class:`repro.session.Session` whose
    :class:`~repro.parallel.shm.ArenaPool` the broadcast and return
    segments are leased from (they recycle across multiplies); without
    one, a private pool lives for this call.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    cfg = effective_config(config, session)
    sr = get_semiring(semiring)
    m, n = a_csc.shape[0], b_csr.shape[1]

    t_start = time.perf_counter()
    total_flop = int(a_csc.col_nnz() @ b_csr.row_nnz())

    nshards = resolve_shards(
        cfg.shards, m=m, flop=total_flop, memory_budget=cfg.memory_budget
    )

    def _fallback(reason: str) -> ShardedResult:
        sub = tiled_spgemm_detailed(a_csc, b_csr, sr, cfg, session=session)
        return ShardedResult(
            c=sub.c,
            total_flop=total_flop,
            fallback=reason,
            tiled=sub,
            seconds=time.perf_counter() - t_start,
        )

    from ..parallel import process_backend_available
    from ..parallel.executor import _mp_context, semiring_token

    if nshards <= 1:
        return _fallback("shards resolve to 1")
    if not process_backend_available():
        return _fallback("no POSIX shared memory on this platform")
    sr_token = semiring_token(sr)
    if sr_token is None:
        return _fallback("semiring cannot travel to workers")
    if total_flop == 0:
        return _fallback("empty product")

    from ..parallel.shm import ArenaPool, SharedArena

    a_csr = a_csc.to_csr()
    grid = plan_shards(n, flops_per_row(a_csc, b_csr), nshards, cfg)
    if grid.grid_rows <= 1:
        return _fallback("row split degenerates to one shard")
    worker_cfg = sharded_config(cfg, None).with_(tile_rows=None, tile_cols=None)

    pool = session.arena_pool if session is not None else ArenaPool()
    own_pool = session is None
    result = ShardedResult(c=CSRMatrix.empty((m, n)), plan=grid,
                           total_flop=total_flop)
    bcast = SharedArena(pool=pool)
    # Merged row panels wait here (parent memory, spill-backed past the
    # aggregate grant of the shard group).
    store = SpillStore(
        cfg.spill_dir,
        None if cfg.memory_budget is None else grid.grid_rows * cfg.memory_budget,
    )
    ctx = _mp_context()
    procs: list = []
    pipes: list = []
    sinks: dict[tuple[int, int], _BlockSink] = {}  # (sid, j) -> landed tile
    panel_nnz: dict[int, int] = {}
    merge_seconds = 0.0

    def _stage_panel(sid: int, tiles: list) -> None:
        """Column-merge one shard's tiles and stage the row panel."""
        nonlocal merge_seconds
        t0 = time.perf_counter()
        lo, hi = grid.row_edges[sid], grid.row_edges[sid + 1]
        merged = hstack_tiles(tiles, grid.col_starts, hi - lo, n, sr)
        if any(merged is tile for tile in tiles):
            # One-panel shortcut: hstack_tiles returned a tile itself,
            # and a streamed tile is a view that dies with its sink.
            merged = merged.copy()
        merge_seconds += time.perf_counter() - t0
        panel_nnz[sid] = merged.nnz
        store.put(f"panel-{sid}", merged)

    try:
        # --- broadcast -----------------------------------------------------
        b_panels = split_col_panels(b_csr, grid.col_edges)
        a_handle = _share_csr(bcast, "a", a_csr)
        b_handles = [_share_csr(bcast, f"b{j}", p) for j, p in enumerate(b_panels)]
        result.broadcast_bytes = sum(
            getattr(mat, part).nbytes
            for mat in [a_csr, *b_panels]
            for part in _CSR_PARTS
        )

        # --- launch --------------------------------------------------------
        # Stagger: at most ``inflight`` shards run concurrently.  On a
        # machine with fewer cores than shards, running them all at once
        # just time-slices one core and thrashes its cache — sharding's
        # win there is the per-process memory headroom, which staggering
        # keeps while avoiding the oversubscription tax.
        queue = ctx.Queue()
        inflight = min(grid.grid_rows, max(1, os.cpu_count() or 1))
        for sid, lo, hi in grid.row_panels():
            recv_end, send_end = ctx.Pipe(duplex=False)
            procs.append(ctx.Process(
                target=_shard_main,
                args=(sid, (lo, hi), a_handle, b_handles, sr_token,
                      worker_cfg, queue, recv_end),
                daemon=True,
            ))
            pipes.append(send_end)
        launched = 0

        def _launch_upto(limit: int) -> None:
            nonlocal launched
            while launched < grid.grid_rows and sum(
                1 for sp in procs[:launched] if sp.is_alive()
            ) < limit:
                procs[launched].start()
                launched += 1

        _launch_upto(inflight)

        # --- stream + merge ------------------------------------------------
        done: set[int] = set()
        killed: dict[int, int] = {}  # sid -> signal number
        failure: BaseException | None = None

        while len(done) + len(killed) < grid.grid_rows:
            exited = [
                sid for sid, p in enumerate(procs[:launched])
                if sid not in done and sid not in killed
                and p.exitcode is not None
            ]
            # Reap signal deaths: a SIGKILLed worker never reports, so
            # the wait must poll liveness instead of blocking forever.
            for sid in exited:
                if procs[sid].exitcode < 0:
                    killed[sid] = -procs[sid].exitcode
            # Top-up launches every pass: a finished shard's "done" can
            # arrive while its process is still exiting, so the launch
            # must be retried once liveness actually drops.
            _launch_upto(inflight)
            if len(done) + len(killed) == grid.grid_rows:
                break
            try:
                msg = queue.get(timeout=0.2)
            except queue_mod.Empty:
                # A shard's messages are flushed before it exits, so a
                # shard that had exited before this wait and left the
                # queue empty died outside its error handler.
                silent = [sid for sid in exited if sid not in killed]
                if silent:
                    failure = RuntimeError(
                        f"shard {silent[0]} exited with code "
                        f"{procs[silent[0]].exitcode} without reporting"
                    )
                    break
                continue
            kind = msg[0]
            if kind == "blk":
                _, tag, shape, nnz = msg
                sink = sinks[tag] = _BlockSink(pool, shape, nnz)
                result.returned_bytes += sink.nbytes
                try:
                    pipes[tag[0]].send(sink.specs())
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass  # the shard died; the liveness poll reaps it
            elif kind == "done":
                _, sid, stats = msg
                if sid in killed:
                    # Signalled after its last put: already counted as
                    # killed, and recovery recomputes (and frees) it.
                    continue
                result.shard_stats.append(ShardStats(**stats))
                landed = [sinks.pop((sid, j), None) for j in range(grid.grid_cols)]
                _stage_panel(sid, [None if s is None else s.matrix() for s in landed])
                for s in landed:
                    if s is not None:
                        s.release()
                done.add(sid)
                # "done" is the shard's last message: join it now so the
                # next staggered launch sees the slot free immediately.
                procs[sid].join(timeout=2.0)
                _launch_upto(inflight)
            elif kind == "error":
                _, sid, failure, tb = msg
                failure.__cause__ = _RemoteTraceback(f"in shard {sid}:\n{tb}")
                break
        if failure is not None:
            raise failure  # after ``finally`` reaps shards and frees shm

        for p in procs:
            if p.pid is not None:
                p.join(timeout=5.0)

        # --- recovery of signal deaths ------------------------------------
        for sid, signum in sorted(killed.items()):
            warnings.warn(
                f"shard {sid} died by {signal.Signals(signum).name}; "
                "recomputing its row panel in the parent",
                RuntimeWarning,
                stacklevel=2,
            )
            for tag in [t for t in sinks if t[0] == sid]:
                sinks.pop(tag).release()
            t0 = time.perf_counter()
            a_i = row_slice(a_csr, grid.row_edges[sid], grid.row_edges[sid + 1])
            tiles = row_panel_tiles(a_i.to_csc(), b_panels, sr, worker_cfg)
            _stage_panel(sid, [tile for _, tile in tiles])
            result.shard_stats.append(
                ShardStats(
                    sid=sid, seconds=time.perf_counter() - t0, recovered=True
                )
            )
            result.recovered_shards += 1

        # --- assembly ------------------------------------------------------
        result.c = assemble_rows(
            (m, n),
            grid.row_edges,
            [panel_nnz[sid] for sid in range(grid.grid_rows)],
            lambda sid: store.pop(f"panel-{sid}"),
        )
        result.shard_stats.sort(key=lambda s: s.sid)
    finally:
        for p in procs:
            if p.pid is not None and p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for pipe in pipes:
            pipe.close()
        for sink in sinks.values():
            sink.release()
        store.close()
        bcast.close()
        if own_pool:
            pool.close()

    if session is not None:
        session.stats.sharded_multiplies += 1
    result.merge_seconds = merge_seconds
    result.seconds = time.perf_counter() - t_start
    return result


def sharded_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    session=None,
) -> CSRMatrix:
    """C = A · B across shards; see :func:`sharded_spgemm_detailed`."""
    return sharded_spgemm_detailed(
        a_csc, b_csr, semiring, config, session=session
    ).c
