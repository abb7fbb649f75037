"""Process-pool execution backend for PB-SpGEMM's numpy pipeline.

This is where ``PBConfig(executor="process")`` lands when the compiled
pipeline cannot run (no compiler, ``modulo`` mapping, non-float64
values, a custom semiring): a real ``ProcessPoolExecutor`` running the
two heavy phases of Algorithm 2 concurrently, exploiting the same
independence the simulator's virtual-thread schedules model.  A
multiply the compiled pipeline can run never gets here: it runs on
``nthreads`` threads in the calling process
(:mod:`repro.parallel.threads`).

* **Expand** — outer products partition cleanly over column ranges of
  A.  The symbolic phase knows each column's exact tuple count, so
  every chunk owns a disjoint ``[o_lo, o_hi)`` slice of the output
  stream and workers write their tuples straight into one shared-memory
  allocation of ``flop`` tuples.  The result is *bit-identical* to the
  serial concatenation no matter how the chunks are grouped.
* **Sort + compress** — global bins cover disjoint row ranges, so each
  bin sorts and compresses independently (the paper's ``parallel for``
  over bins).  Workers map the binned tuple arrays from shared memory,
  process a contiguous flop-balanced group of bins, and return the
  (much smaller) compressed triples.

Operand and tuple arrays travel through ``multiprocessing.shared_memory``
(see :mod:`repro.parallel.shm`) — workers never deserialize the large
arrays.  Worker tasks are plain module-level functions so both ``fork``
and ``spawn`` start methods work; ``fork`` is preferred when available
(cheap on Linux).

Fallback contract (also documented on :class:`repro.core.PBConfig`):
``executor="process"`` runs in process when the compiled pipeline can
serve the multiply, and silently degrades to the serial numpy path when
``nthreads == 1``, when the platform lacks POSIX shared memory, or when
the semiring is an unregistered object that cannot be pickled.
:func:`uses_workers` is the one place that decides, and
:func:`engine_scope` (through :func:`resolve_engine`) the one place a
multiply gets its engine.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

from .._util import balanced_ranges
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .shm import HAVE_SHARED_MEMORY, ArenaPool, ArraySpec, AttachedArrays, SharedArena

__all__ = [
    "process_backend_available",
    "semiring_token",
    "uses_workers",
    "resolve_engine",
    "engine_scope",
    "ProcessEngine",
]


def process_backend_available() -> bool:
    """True when this platform can run the process executor at all."""
    return HAVE_SHARED_MEMORY


def _noop_task() -> int:
    """Trivial worker task: warm-up / dispatch-latency probe."""
    return 0


def semiring_token(semiring: Semiring):
    """Pickle-cheap reference to a semiring, or ``None`` if impossible.

    Registered semirings travel as their name (workers re-resolve via
    :func:`repro.semiring.get_semiring`); unregistered ones travel by
    value when picklable.  ``None`` tells the caller to fall back to
    serial execution.
    """
    try:
        if get_semiring(semiring.name) is semiring:
            return semiring.name
    except KeyError:
        pass
    try:
        pickle.dumps(semiring)
        return semiring
    except Exception:
        return None


def _mp_context(start_method: str | None = None):
    if start_method is not None:
        return mp.get_context(start_method)
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


def _worker_init() -> None:
    """Pool initializer: record whether this worker forked off the
    parent's resource tracker (see :mod:`repro.parallel.shm`)."""
    from . import shm

    try:
        from multiprocessing import resource_tracker

        inherited = getattr(resource_tracker._resource_tracker, "_fd", None) is not None
    except Exception:  # pragma: no cover - CPython-internal layout change
        inherited = False
    shm.set_tracker_inherited(inherited)


# ---------------------------------------------------------------------------
# Worker tasks (module-level: must be picklable under spawn)
# ---------------------------------------------------------------------------

def _expand_task(payload) -> float:
    """Expand a group of column ranges into the shared output slices."""
    specs, a_shape, b_shape, sr_token, ranges = payload
    from ..kernels.outer_expand import _expand_range
    from ..matrix.csc import CSCMatrix
    from ..matrix.csr import CSRMatrix

    t0 = time.perf_counter()
    with AttachedArrays(specs) as arr:
        a = CSCMatrix(
            a_shape, arr["a_indptr"], arr["a_indices"], arr["a_data"], validate=False
        )
        b = CSRMatrix(
            b_shape, arr["b_indptr"], arr["b_indices"], arr["b_data"], validate=False
        )
        sr = get_semiring(sr_token)
        for k_lo, k_hi, o_lo, o_hi in ranges:
            rows, cols, vals = _expand_range(a, b, k_lo, k_hi, sr, with_values=True)
            arr["out_rows"][o_lo:o_hi] = rows
            arr["out_cols"][o_lo:o_hi] = cols
            arr["out_vals"][o_lo:o_hi] = vals
    return time.perf_counter() - t0


def _sort_compress_task(payload):
    """Sort+compress a contiguous group of bins.

    Bins arrive as already-packed (key, value) pairs from the parent's
    fused distribute; each bin runs the counting-scatter radix sort
    directly on its key slice.  The group's bins ascend, so
    concatenating their compressed triples preserves bin order;
    returning one triple per *group* (instead of per bin) keeps the
    result pickle small even with thousands of bins.
    """
    specs, layout, sr_token, bins = payload
    from ..core.binning import unpack_keys
    from ..kernels.compress import compress_keyed
    from ..kernels.radix import sort_tuples

    t0 = time.perf_counter()
    out_rows, out_cols, out_vals = [], [], []
    passes = 0
    with AttachedArrays(specs) as arr:
        sr = get_semiring(sr_token)
        keys, vals = arr["bin_keys"], arr["bin_vals"]
        for binid, lo, hi in bins:
            skeys, svals, p = sort_tuples(keys[lo:hi], vals[lo:hi], key_bits=layout.key_bits)
            ckeys, cvals = compress_keyed(skeys, svals, sr)
            crows, ccols = unpack_keys(layout, ckeys, binid)
            passes = max(passes, p)
            out_rows.append(crows)
            out_cols.append(ccols)
            out_vals.append(cvals)
    result = (
        bins[0][0],  # first bin id: the parent's group sort key
        np.concatenate(out_rows),
        np.concatenate(out_cols),
        np.concatenate(out_vals),
        passes,
    )
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class ProcessEngine:
    """Worker pool + shared-memory arenas for PB multiplications.

    Multiplies get one only from :func:`resolve_engine`: either private
    to one multiply (or one block grid) and closed by
    :func:`engine_scope`, or kept *warm* by a
    :class:`repro.session.Session` across many multiplies — spawned
    once, lazily resized upward via :meth:`ensure_workers`, with arenas
    leased from the session's :class:`~repro.parallel.shm.ArenaPool` so
    buffers recycle instead of being allocated and unlinked per call.

    Use as a context manager; arenas stay alive until
    :meth:`free_arenas`/:meth:`close` so the views returned by
    :meth:`expand` remain valid while the parent distributes tuples to
    bins.  :meth:`close` is idempotent and safe after
    :meth:`free_arenas` (a double shutdown is a no-op).
    """

    def __init__(
        self,
        nworkers: int,
        arena_pool: ArenaPool | None = None,
        start_method: str | None = None,
    ):
        if not process_backend_available():
            raise RuntimeError("process executor unavailable on this platform")
        self.nworkers = max(2, int(nworkers))
        self._arena_pool = arena_pool
        self._start_method = start_method
        self._arenas: list[SharedArena] = []
        self._expand_arena: SharedArena | None = None
        self._closed = False
        self.spawn_count = 0
        self._spawn_pool(self.nworkers)

    def _spawn_pool(self, nworkers: int) -> None:
        # Start the parent's tracker *before* workers exist, so forked
        # workers reliably inherit it (the _worker_init probe keys on it).
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - CPython-internal
            pass
        self.nworkers = nworkers
        self._pool = ProcessPoolExecutor(
            max_workers=nworkers,
            mp_context=_mp_context(self._start_method),
            initializer=_worker_init,
        )
        self.spawn_count += 1

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ensure_workers(self, nworkers: int) -> None:
        """Grow the pool to at least ``nworkers`` (never shrinks).

        A session's multiplies may request varying thread counts; the
        pool is only respawned when the request exceeds the current
        size, so back-to-back multiplies at the same width never pay a
        spawn.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        nworkers = max(2, int(nworkers))
        if nworkers > self.nworkers:
            self._pool.shutdown(wait=True)
            self._spawn_pool(nworkers)

    @property
    def is_broken(self) -> bool:
        """True when the pool has lost a worker and can no longer accept
        work (``BrokenProcessPool`` territory) — the owner must respawn."""
        return bool(getattr(self._pool, "_broken", False))

    def stats(self) -> dict:
        """Cheap snapshot of pool runtime counters.

        ``workers_alive`` counts the pool's worker processes that are
        currently running — after a worker death it reads below
        ``nworkers`` until the owner respawns the pool.
        """
        procs = getattr(self._pool, "_processes", None) or {}
        return {
            "nworkers": self.nworkers,
            "workers_alive": sum(1 for p in procs.values() if p.is_alive()),
            "spawns": self.spawn_count,
            "broken": self.is_broken,
            "closed": self._closed,
        }

    def warm_up(self) -> None:
        """Block until at least one worker answers a round trip."""
        self._pool.submit(_noop_task).result()

    def dispatch_latency(self, reps: int = 3) -> float:
        """Measured seconds of one warm no-op round trip (best of reps)."""
        self.warm_up()
        best = float("inf")
        for _ in range(max(1, reps)):
            t0 = time.perf_counter()
            self._pool.submit(_noop_task).result()
            best = min(best, time.perf_counter() - t0)
        return best

    def close(self) -> None:
        """Release arenas and shut the pool down (idempotent; safe
        after :meth:`free_arenas`).  The session-owned arena *pool* is
        not closed here — the session decides when its cache dies."""
        if self._closed:
            return
        self._closed = True
        self.free_arenas()
        self._pool.shutdown(wait=True)

    def free_arenas(self) -> None:
        """Release shared memory early (invalidates expand views).

        Pool-backed arenas return their segments to the session's
        :class:`ArenaPool` for the next lease; owned arenas unlink.
        """
        for arena in self._arenas:
            arena.close()
        self._arenas.clear()
        self._expand_arena = None

    def _new_arena(self) -> SharedArena:
        arena = SharedArena(pool=self._arena_pool)
        self._arenas.append(arena)
        return arena

    # -- phase 2: expand ---------------------------------------------------
    def expand(
        self,
        a_csc,
        b_csr,
        per_k: np.ndarray,
        sr_token,
        chunk_flops: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
        """Parallel outer-product expansion into shared memory.

        Returns ``(rows, cols, vals, worker_seconds)``; the arrays are
        views into an arena owned by this engine — copy or consume them
        before :meth:`close`/:meth:`free_arenas`.
        """
        from ..kernels.outer_expand import chunk_ranges

        prefix = np.concatenate([[0], np.cumsum(per_k, dtype=np.int64)])
        flop = int(prefix[-1])
        # Subdivide enough for every worker even when flop < chunk_flops;
        # output offsets are fixed per column, so chunking never changes
        # the result.
        eff_chunk = max(1, min(int(chunk_flops), -(-flop // self.nworkers)))
        ranges = [
            (k_lo, k_hi, int(prefix[k_lo]), int(prefix[k_hi]))
            for k_lo, k_hi in chunk_ranges(per_k, eff_chunk)
        ]

        arena = self._new_arena()
        self._expand_arena = arena
        arena.share("a_indptr", a_csc.indptr)
        arena.share("a_indices", a_csc.indices)
        arena.share("a_data", a_csc.data)
        arena.share("b_indptr", b_csr.indptr)
        arena.share("b_indices", b_csr.indices)
        arena.share("b_data", b_csr.data)
        out_rows = arena.allocate("out_rows", (flop,), INDEX_DTYPE)
        out_cols = arena.allocate("out_cols", (flop,), INDEX_DTYPE)
        out_vals = arena.allocate("out_vals", (flop,), VALUE_DTYPE)

        specs = {
            k: arena.spec(k)
            for k in (
                "a_indptr", "a_indices", "a_data",
                "b_indptr", "b_indices", "b_data",
                "out_rows", "out_cols", "out_vals",
            )
        }
        weights = [o_hi - o_lo for _, _, o_lo, o_hi in ranges]
        groups = balanced_ranges(weights, self.nworkers)
        futures = [
            self._pool.submit(
                _expand_task,
                (specs, a_csc.shape, b_csr.shape, sr_token, ranges[lo:hi]),
            )
            for lo, hi in groups
        ]
        times = [f.result() for f in futures]
        return out_rows, out_cols, out_vals, times

    # -- phases 3+4: per-bin sort + compress --------------------------------
    def _bin_groups(self, bin_starts: np.ndarray):
        """Non-empty bins as ``(bin, lo, hi)`` plus tuple-balanced bin
        groups: 2x oversubscribed, so the pool's FIFO absorbs skewed
        bins the way the simulator's LPT schedule does."""
        bins = [
            (b, int(bin_starts[b]), int(bin_starts[b + 1]))
            for b in range(len(bin_starts) - 1)
            if bin_starts[b + 1] > bin_starts[b]
        ]
        weights = [hi - lo for _, lo, hi in bins]
        return bins, balanced_ranges(weights, self.nworkers * 2)

    def sort_compress(
        self,
        layout,
        bin_starts: np.ndarray,
        b_keys: np.ndarray,
        b_vals: np.ndarray,
        sr_token,
    ) -> tuple[list[tuple], int, list[float]]:
        """Fan non-empty bins out over the pool.

        ``b_keys``/``b_vals`` are the packed per-bin (key, value) pairs
        the fused distribute produced — half the transport bytes of the
        old (rows, cols, vals) triple.  Returns
        ``(groups, passes, worker_seconds)`` where ``groups`` is a
        bin-order list of ``(crows, ccols, cvals)`` triples — one per
        contiguous bin group — whose concatenation equals the serial
        per-bin concatenation.
        """
        arena = self._new_arena()
        arena.share("bin_keys", b_keys)
        arena.share("bin_vals", b_vals)
        specs = {k: arena.spec(k) for k in ("bin_keys", "bin_vals")}

        bins, groups = self._bin_groups(bin_starts)
        futures = [
            self._pool.submit(
                _sort_compress_task, (specs, layout, sr_token, bins[lo:hi])
            )
            for lo, hi in groups
        ]
        return self._collect_sorted(futures)

    def _collect_sorted(self, futures):
        """Gather sort/compress futures back into bin order."""
        collected = []
        times: list[float] = []
        for f in futures:
            result, elapsed = f.result()
            times.append(elapsed)
            collected.append(result)
        collected.sort(key=lambda r: r[0])  # bin order
        passes = max((r[4] for r in collected), default=0)
        groups = [(r[1], r[2], r[3]) for r in collected]
        return groups, passes, times

    # -- phases 2b+3+4 pipelined: distribute ∥ sort + compress --------------
    def pipelined_sort_compress(
        self,
        layout,
        keys: np.ndarray,
        vals: np.ndarray,
        order: np.ndarray,
        bin_starts: np.ndarray,
        sr_token,
        after_place=None,
    ) -> tuple[list[tuple], int, list[float]]:
        """Overlap bucket placement with per-bin sort/compress.

        Instead of materializing the fully-distributed ``(key, value)``
        arrays and *then* fanning bins out (a barrier between the
        distribute and sort phases), the parent gathers each worker
        group's slice of the placement permutation directly into the
        shared bin arrays and submits that group's sort/compress task
        immediately — workers sort early bin groups while the parent is
        still placing later ones, and ``after_place`` (typically
        releasing the expand arena back to the session's pool) runs
        before the result wait rather than after it.

        ``keys``/``order``/``bin_starts`` come from
        :func:`repro.core.binning.distribute_plan`; because the same
        stable permutation is applied slice-by-slice, per-bin streams —
        and therefore the product — are bit-identical to the barriered
        path.  Returns the same ``(groups, passes, worker_seconds)``
        triple as :meth:`sort_compress`.
        """
        flop = len(keys)
        arena = self._new_arena()
        b_keys = arena.allocate("bin_keys", (flop,), keys.dtype)
        b_vals = arena.allocate("bin_vals", (flop,), vals.dtype)
        specs = {k: arena.spec(k) for k in ("bin_keys", "bin_vals")}

        bins, groups = self._bin_groups(bin_starts)
        futures = []
        for lo, hi in groups:
            span_lo, span_hi = bins[lo][1], bins[hi - 1][2]
            idx = order[span_lo:span_hi]
            np.take(keys, idx, out=b_keys[span_lo:span_hi])
            np.take(vals, idx, out=b_vals[span_lo:span_hi])
            futures.append(
                self._pool.submit(
                    _sort_compress_task,
                    (specs, layout, sr_token, bins[lo:hi]),
                )
            )
        if after_place is not None:
            after_place()
        return self._collect_sorted(futures)

    def free_expand_arena(self) -> None:
        """Release just the expand arena (keeps later-phase arenas)."""
        arena = getattr(self, "_expand_arena", None)
        if arena is not None and arena in self._arenas:
            self._arenas.remove(arena)
            arena.close()
        self._expand_arena = None


# ---------------------------------------------------------------------------
# The resolver: process or serial, and which engine
# ---------------------------------------------------------------------------

def uses_workers(config, semiring: Semiring = PLUS_TIMES, dtypes=()) -> bool:
    """True when a multiply under ``config`` over ``semiring``, with
    operand value ``dtypes``, runs on worker processes — the one
    process-or-in-process decision.

    Workers serve only the numpy pipeline: a multiply the compiled
    pipeline can run (:func:`repro.core.pb_spgemm.compiled_blocker`)
    runs it in this process, on ``config.nthreads`` threads.  Every
    other fallback of ``PBConfig.executor`` lives here too: a serial
    executor, ``nthreads < 2``, a platform without POSIX shared memory,
    and a semiring that cannot travel to workers.
    """
    if not (
        config.executor == "process"
        and config.nthreads > 1
        and process_backend_available()
        and semiring_token(semiring) is not None
    ):
        return False
    from ..core.pb_spgemm import compiled_blocker

    return compiled_blocker(config, semiring, dtypes) is not None


def resolve_engine(config, semiring: Semiring, session, dtypes=()):
    """The :class:`ProcessEngine` one multiply runs on, or ``None``.

    With a :class:`repro.session.Session`, the session's warm engine,
    spawned on first use and grown to ``config.nthreads``; without
    one, a new private engine the caller must close.  Counts nothing.
    """
    if session is not None and session._closed:
        raise RuntimeError("session is closed")
    if not uses_workers(config, semiring, dtypes):
        return None
    pooled = session is not None
    engine = session._engine if pooled else None
    if engine is None:
        engine = ProcessEngine(
            config.nthreads,
            arena_pool=session.arena_pool if pooled else None,
            start_method=session._start_method if pooled else None,
        )
        if not pooled:
            return engine
        session._resources["engine"] = engine
    else:
        engine.ensure_workers(config.nthreads)
    session.stats.engine_spawns = session._engine_spawns_base + engine.spawn_count
    return engine


@contextmanager
def engine_scope(config, semiring: Semiring, session=None, dtypes=()):
    """Yield the engine one multiply (or one whole block grid) runs on,
    or ``None`` to run in this process (see :func:`uses_workers`).

    A session's warm engine stays running afterwards and the multiply
    is booked in ``session.stats.engine_multiplies``; a private engine
    (no session) is closed on exit.  Private engines own their arenas
    — unlinked on release, never parked in an :class:`ArenaPool` — so
    a standalone multiply's footprint ends with it.
    """
    engine = resolve_engine(config, semiring, session, dtypes)
    private = engine is not None and session is None
    if engine is not None and not private:
        session.stats.engine_multiplies += 1
    try:
        yield engine
    finally:
        if private:
            engine.close()
