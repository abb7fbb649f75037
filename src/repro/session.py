"""repro.session — persistent execution sessions (warm pools + arena
recycling).

``PBConfig(executor="process")`` historically paid a fixed per-multiply
tax the paper's OpenMP threads never see: a fresh ``ProcessPoolExecutor``
spawned and torn down inside every :func:`repro.core.pb_spgemm` call,
plus fresh shared-memory arenas created and unlinked per call — the
calibrated planner even measures that spawn as per-call overhead.  The
workloads this library targets (MCL, AMG, PageRank, matrix powers in
:mod:`repro.apps`) call SpGEMM in a loop, so the tax is paid hundreds of
times per run.

A :class:`Session` amortizes all of it, mirroring the persistent-pool /
buffer-reuse designs of GraphBLAS-style libraries
(SuiteSparse:GraphBLAS, CombBLAS):

* **Warm worker pool** — one
  :class:`~repro.parallel.executor.ProcessEngine`, spawned lazily on the
  first process-executor multiply and reused by every subsequent one;
  grown (never shrunk) when a multiply requests more workers.
* **Arena recycling** — a size-classed
  :class:`~repro.parallel.shm.ArenaPool`: expand/distribute buffers are
  leased and returned instead of created and unlinked, so steady-state
  multiplies touch already-faulted pages and never hit
  ``shm_open``/``ftruncate``.
* **Pipelined bin processing** — with the engine warm, PB's distribute
  and sort phases overlap (``PBConfig.pipeline``): each bin group's
  sort/compress task is submitted the moment its slice of the placement
  lands in shared memory.

Results are bit-identical to ``executor="serial"`` for every semiring —
the session only changes *when* pools and buffers are created, never
what is computed.

Usage::

    import repro

    with repro.Session(repro.PBConfig(executor="process", nthreads=4)) as s:
        c1 = s.multiply(a, a)                  # spawns the pool
        c2 = s.multiply(c1, a)                 # reuses it (warm)
        batch = s.multiply_many([(a, a), (c1, c1)], semiring="min_plus")
    # close() shut the pool down and unlinked every pooled segment

``repro.multiply(a, b, session=s)`` threads an existing session through
the normal front door; ``algorithm="auto"`` inside a warm session prices
process candidates at the measured warm-dispatch latency instead of the
pool-spawn cost (:mod:`repro.planner.calibrate`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .core.config import PBConfig
from .semiring import PLUS_TIMES, Semiring

__all__ = ["Session", "SessionStats"]


@dataclass
class SessionStats:
    """Observable counters of one session's lifetime."""

    multiplies: int = 0
    engine_multiplies: int = 0  # multiplies that ran on the warm engine
    engine_spawns: int = 0  # pool (re)spawns, incl. lazy resizes
    engine_restarts: int = 0  # engines replaced after a worker death
    fused_waves: int = 0  # batches executed as one stacked PB multiply
    fused_requests: int = 0  # individual multiplies served by fused waves
    sharded_multiplies: int = 0  # multiplies run on the sharded executor
    jit_warmup_s: float = 0.0  # one-time JIT compile/load paid at construction
    arena_stats: dict = field(default_factory=dict)  # ArenaPool counters

    def to_dict(self) -> dict:
        return {
            "multiplies": self.multiplies,
            "engine_multiplies": self.engine_multiplies,
            "engine_spawns": self.engine_spawns,
            "engine_restarts": self.engine_restarts,
            "fused_waves": self.fused_waves,
            "fused_requests": self.fused_requests,
            "sharded_multiplies": self.sharded_multiplies,
            "jit_warmup_s": self.jit_warmup_s,
            "arena_stats": dict(self.arena_stats),
        }


def _close_resources(resources: dict) -> None:
    """Finalizer target: tear down whatever the session still holds.

    Runs via ``weakref.finalize`` when a session is garbage-collected
    without ``close()`` (and at interpreter exit otherwise), so pooled
    shared-memory segments are unlinked even on sloppy teardown —
    no ``resource_tracker`` leak warnings.
    """
    engine = resources.get("engine")
    if engine is not None:
        try:
            engine.close()
        except Exception:  # pragma: no cover - interpreter-exit races
            pass
    pool = resources.get("pool")
    if pool is not None:
        try:
            pool.close()
        except Exception:  # pragma: no cover - interpreter-exit races
            pass


class Session:
    """Long-lived execution context for many SpGEMM multiplies.

    Parameters
    ----------
    config:
        Default :class:`~repro.core.config.PBConfig` for this session's
        multiplies (per-call ``config=`` overrides it).  Validated with
        :meth:`PBConfig.validate_session` — e.g. ``executor="process"``
        with ``nthreads=1`` is rejected here instead of silently
        falling back to serial on every call.
    start_method:
        Multiprocessing start method for the warm pool (``"fork"`` /
        ``"spawn"``; ``None`` prefers fork where available).
    warm:
        Spawn and warm the pool immediately instead of on first use —
        moves the one-time spawn cost to construction time.

    A session is also usable with ``executor="serial"`` configs: the
    batch API still works, there is simply no pool to keep warm.
    """

    def __init__(
        self,
        config: PBConfig | None = None,
        *,
        start_method: str | None = None,
        warm: bool = False,
    ):
        self.config = (config or PBConfig()).validate_session()
        self._start_method = start_method
        self._closed = False
        self.stats = SessionStats()
        # Spawns of engines that were since replaced after a worker
        # death; resolve_engine adds the live engine's own count on top.
        self._engine_spawns_base = 0
        pool = None
        from .parallel import process_backend_available

        if process_backend_available():
            from .parallel.shm import ArenaPool

            pool = ArenaPool()
        # The finalizer must not keep ``self`` alive; resources live in
        # a plain dict both the session and the finalizer can see.
        self._resources: dict = {"engine": None, "pool": pool}
        self._finalizer = weakref.finalize(self, _close_resources, self._resources)
        # Warm-up hygiene (DESIGN.md §14): when the session's config
        # selects any *_jit backend, compile/load the JIT tier now — at
        # construction, off the request path — so the first multiply's
        # phase timings never absorb compiler time.  The cost is
        # recorded on stats; pb_spgemm's own idempotent warmup then
        # reads ~0 and reports it under phase_seconds["jit_warmup_s"].
        if self.config.uses_jit:
            from .kernels import jit as _jit

            self.stats.jit_warmup_s = _jit.warmup()
        if warm:
            self.warm_up()

    # -- engine management --------------------------------------------------
    @property
    def _engine(self):
        return self._resources["engine"]

    @property
    def arena_pool(self):
        """The session's :class:`~repro.parallel.shm.ArenaPool` (or
        ``None`` when the platform lacks shared memory)."""
        return self._resources["pool"]

    def engine_for(self, config: PBConfig | None = None):
        """The warm :class:`~repro.parallel.executor.ProcessEngine` a
        plain-semiring multiply under ``config`` runs on, or ``None``
        when that multiply resolves to serial.

        Spawns the pool on first use and grows it when
        ``config.nthreads`` exceeds the current width.  Counts no
        multiply: :func:`~repro.parallel.executor.engine_scope` books
        each multiply that runs on the engine.
        """
        from .parallel.executor import resolve_engine

        return resolve_engine(config or self.config, PLUS_TIMES, self)

    def is_warm(self) -> bool:
        """True when the pool has been spawned and is still running."""
        engine = self._resources["engine"]
        return engine is not None and not engine._closed

    def warm_up(self) -> "Session":
        """Spawn the pool now (if the config wants one) and block until
        a worker answers; returns ``self`` for chaining."""
        engine = self.engine_for(self.config)
        if engine is not None:
            engine.warm_up()
        return self

    # -- multiplication -----------------------------------------------------
    def _run(self, call, requests: int = 1):
        """Run one multiply (or one fused wave of ``requests``), retried
        once on a fresh pool if a worker dies.

        On ``BrokenProcessPool`` the failed attempt's engine and sharded
        counts are rolled back and the broken engine is discarded:
        closing it returns its arenas to the session's pool (the parent
        owns every segment, so nothing leaks in ``/dev/shm`` even though
        workers vanished) and the next multiply spawns a replacement.
        A second death propagates; the replacement still serves later
        calls.
        """
        from concurrent.futures.process import BrokenProcessPool

        self.stats.multiplies += requests
        for attempt in (0, 1):
            booked = (self.stats.engine_multiplies, self.stats.sharded_multiplies)
            try:
                return call()
            except BrokenProcessPool:
                self.stats.engine_multiplies, self.stats.sharded_multiplies = booked
                engine = self._resources["engine"]
                if engine is not None:
                    self._engine_spawns_base += engine.spawn_count
                    try:
                        engine.close()
                    except Exception:  # pragma: no cover - broken pool teardown
                        pass
                    self._resources["engine"] = None
                    self.stats.engine_restarts += 1
                if attempt:
                    raise

    def multiply(
        self,
        a,
        b,
        algorithm="pb",
        semiring: Semiring | str = PLUS_TIMES,
        config: PBConfig | None = None,
        **kwargs,
    ):
        """C = A · B through :func:`repro.multiply`, on this session.

        Identical signature and semantics to the front door; the
        session supplies the warm engine (for session-capable
        algorithms under ``executor="process"``) and warm-vs-cold
        pricing to ``algorithm="auto"``.  If a pool worker dies
        mid-multiply, the multiply is retried once on a fresh pool; a
        second death propagates.
        """
        from .api import multiply as _multiply

        return self._run(
            lambda: _multiply(
                a,
                b,
                algorithm=algorithm,
                semiring=semiring,
                config=config,
                session=self,
                **kwargs,
            )
        )

    def multiply_detailed(
        self,
        a,
        b,
        semiring: Semiring | str = PLUS_TIMES,
        config: PBConfig | None = None,
    ):
        """One PB multiply with full instrumentation, on this session.

        Returns the :class:`~repro.core.pb_spgemm.PBResult` (product at
        ``.c`` plus ``phase_seconds`` etc.) — the per-request
        observability a multiply server reports.  Same worker-death
        retry contract as :meth:`multiply`.
        """
        from .api import _coerce
        from .core.pb_spgemm import pb_spgemm_detailed

        a_csc = _coerce(a, "A", "csc")
        b_csr = _coerce(b, "B", "csr")
        return self._run(
            lambda: pb_spgemm_detailed(
                a_csc, b_csr, semiring=semiring, config=config, session=self
            )
        )

    def multiply_many(self, pairs, **kwargs) -> list:
        """Multiply a batch of ``(a, b)`` operand pairs on this session.

        A batch of two or more plain PB multiplies (keyword arguments
        limited to ``semiring=`` / ``config=``) is executed as a
        *single* block-diagonally stacked PB run
        (:func:`repro.core.blocks.fused_multiply_detailed`) — one
        symbolic/expand/distribute/sort pipeline amortized over the
        whole wave, bit-identical per pair to the standalone products.
        Any other batch runs as a loop of :meth:`multiply` calls, each
        receiving the keyword arguments.  Returns the products in order.
        """
        pairs = list(pairs)
        if len(pairs) >= 2 and set(kwargs) <= {"semiring", "config"}:
            results, _detail = self.multiply_many_detailed(pairs, **kwargs)
            return results
        return [self.multiply(a, b, **kwargs) for a, b in pairs]

    def multiply_many_detailed(
        self,
        pairs,
        semiring: Semiring | str = PLUS_TIMES,
        config: PBConfig | None = None,
    ):
        """Fused wave with instrumentation: ``(products, wave_detail)``.

        Executes the batch as one stacked PB multiply and returns the
        per-pair products plus the wave's
        :class:`~repro.core.pb_spgemm.PBResult` (phase timings are
        wave-level — shared by every pair).  Same worker-death retry
        contract as :meth:`multiply`: the wave is re-run once on a
        fresh pool before the failure propagates.
        """
        from .api import _coerce
        from .core.blocks import fused_multiply_detailed

        coerced = [
            (_coerce(a, "A", "csc"), _coerce(b, "B", "csr")) for a, b in pairs
        ]
        self.stats.fused_waves += 1
        self.stats.fused_requests += len(coerced)
        return self._run(
            lambda: fused_multiply_detailed(
                coerced, semiring=semiring, config=config, session=self
            ),
            requests=len(coerced),
        )

    def runtime_stats(self) -> dict:
        """Live observability snapshot: session counters plus the
        engine's and arena pool's own ``stats()`` (``None`` when the
        respective resource does not exist yet).  Cheap — counters and
        gauges only, no syscalls beyond ``Process.is_alive`` checks."""
        snap = self.stats.to_dict()
        engine = self._resources["engine"]
        pool = self._resources["pool"]
        snap["engine"] = engine.stats() if engine is not None else None
        snap["arena_pool"] = pool.stats() if pool is not None else None
        return snap

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink every pooled segment
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _close_resources(self._resources)
        pool = self._resources["pool"]
        if pool is not None:
            self.stats.arena_stats = pool.stats()
        self._resources["engine"] = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("warm" if self.is_warm() else "cold")
        return (
            f"Session({state}, executor={self.config.executor!r}, "
            f"nthreads={self.config.nthreads}, multiplies={self.stats.multiplies})"
        )
