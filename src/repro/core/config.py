"""Configuration of the PB-SpGEMM pipeline (the paper's tunables).

The paper exposes two primary knobs — the number of global bins
(``nbins``, Fig. 6b) and the local-bin width (``Lbinwidth``, Fig. 6a,
default 512 bytes) — plus several design decisions this reproduction
makes ablatable (DESIGN.md §6): bin mapping, key packing and local
bins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError

#: Paper default: 512-byte thread-private local bins (Sec. V-A).
DEFAULT_LOCAL_BIN_BYTES = 512
#: COO tuple footprint used for bin sizing: 4B row + 4B col + 8B value.
TUPLE_BYTES = 16
#: The paper sizes global bins to fit L2; Skylake-SP has 1 MiB L2/core.
DEFAULT_L2_TARGET_BYTES = 1024 * 1024
#: Fewest tuples per bin, on average, that :func:`resolve_nbins` keeps
#: when it raises the bin count to drop a radix pass.
MIN_TUPLES_PER_BIN = 512


@dataclass(frozen=True)
class PBConfig:
    """Parameters of :func:`repro.core.pb_spgemm`.

    Attributes
    ----------
    nbins:
        Number of global bins.  ``None`` (default) lets the symbolic
        phase choose: enough that a bin's tuples fit
        :data:`DEFAULT_L2_TARGET_BYTES` (Alg. 3 line 6), then, without
        local bins, raised by up to 4x where that lands the packed key
        on a byte boundary and saves a radix pass; see
        :func:`resolve_nbins`.
    local_bin_bytes:
        Width of each thread-private local bin in bytes (Fig. 6a;
        paper default 512).
    bin_mapping:
        ``"range"`` — contiguous equal row ranges per bin (Fig. 4's
        layout; enables key packing); ``"modulo"`` — ``rowid % nbins``
        as written in Alg. 2 line 9 (ablation; disables packing);
        ``"balanced"`` — variable row ranges equalizing tuples per bin
        (the Sec. V-C load-balance remedy for skewed inputs).
    pack_keys:
        Squeeze (local_row, col) into 32-bit keys when they fit
        (Sec. III-D); ``False`` forces 64-bit keys / 8 radix passes.
    use_local_bins:
        Thread-private local bins of ``local_bin_bytes`` (Fig. 5):
        ``True`` makes the compiled pipeline's expand append tuples to
        them and copy each full one to its global bin; ``False``
        (default) writes every tuple to its global bin directly.  The
        expansion order already writes nnz(B(k,:)) consecutive tuples
        to one bin, so the local-bin copy measured as pure overhead on
        every input tried (DESIGN.md §6).  The cost model and trace
        simulator model the same switch and price the paper's
        ``True`` unless given a config.  The numeric result is the
        same either way, and the numpy pipeline ignores it.
    nthreads:
        Thread count of the compiled PB pipeline
        (:mod:`repro.parallel.threads`), under either executor, for
        standalone multiplies, sessions and tiles alike: flop-balanced
        column chunks expand and contiguous bin ranges sort and
        compress in parallel, bit-identical to one thread.  The
        threads actually used are capped by the usable CPUs and by the
        work (tiny multiplies run inline; see
        :func:`~repro.parallel.threads.thread_count`).  Where only the
        numpy pipeline can run, it is the process-pool size under
        ``executor="process"`` and unused otherwise.  The simulator's
        per-thread work decompositions read it too.
    plan_cache_dir:
        Directory for the planner's persistent state (machine profile
        JSON + plan cache); ``None`` (default) falls back to the
        ``REPRO_PLAN_CACHE_DIR`` environment variable, and to a
        process-local in-memory cache when that is unset either.
        Only consulted by ``algorithm="auto"`` / :mod:`repro.planner`,
        which uses the machine profile saved there by ``repro
        calibrate`` and the :mod:`repro.machine.presets` model when
        none has been saved.
    executor:
        Where the numpy pipeline runs when the compiled one cannot (no
        compiler, ``modulo`` mapping, non-float64 values, a custom
        semiring): ``"serial"`` (default) — in this process, through
        the compiled pipeline's expand → sort → compress → row-pointer
        body; ``"process"`` — expand and per-bin sort/compress on a
        process pool with shared-memory array transport
        (:mod:`repro.parallel`).  A multiply the compiled pipeline can
        run never uses the pool: it runs in process on ``nthreads``
        threads under either value.  Results are bit-identical.  The
        pool is skipped when ``nthreads == 1``, when the platform lacks
        POSIX shared memory, or when the semiring is an unregistered
        object that cannot be pickled.
    tile_rows / tile_cols:
        Tile dimensions of the tiled out-of-core engine
        (:mod:`repro.core.tiled`): rows of A per row panel and columns
        of B per column panel.  ``None`` (default) lets the driver
        derive a grid from ``memory_budget`` (or run monolithically,
        1×1, when no budget is set either).  Ignored by every other
        algorithm.
    memory_budget:
        Soft peak-memory target in bytes for ``algorithm="tiled"`` and
        for the planner's ``algorithm="auto"`` feasibility gate: the
        tiled driver sizes its grid so per-tile working memory fits the
        budget and spills staged tile products beyond it; the planner
        rejects candidates whose predicted peak exceeds it.  ``None``
        (default) disables both.
    spill_dir:
        Staging directory for spilled tile products (``.npz`` files).
        ``None`` (default) creates a private temporary directory on
        first spill and removes it when the multiply finishes.
        Spilling only activates when ``memory_budget`` is set.
    shards:
        Worker-process count of the multi-process sharded tiled engine
        (:mod:`repro.core.sharded`): each shard owns a contiguous,
        flop-balanced tile-row range of the grid and runs its tiles as
        serial PB multiplies, so ``memory_budget`` bounds every
        *shard's* peak rather than one process's.  ``None`` (default)
        — sharding off; an ``int >= 1`` pins the shard count (1
        degrades to the in-process tiled path); ``"auto"`` derives the
        count from ``os.cpu_count()`` and the memory budget
        (:func:`repro.core.sharded.resolve_shards`).  Mutually
        exclusive with ``executor="process"``: shards *are* the
        process-level parallelism, and nesting a process pool inside
        every shard would oversubscribe the machine.  Ignored by every
        algorithm except ``"sharded"`` (and ``"auto"`` planning).
    pipeline:
        Bin-processing schedule under the process executor:
        ``"auto"`` (default) — pipelined when a process engine runs
        (each bin group's sort/compress task is submitted as soon as
        its slice of the distribute placement lands in shared memory,
        overlapping placement with worker sorting; the serial pipeline
        has nothing to overlap); ``"barrier"`` — the phase-barriered
        schedule (distribute completes before any sort task is
        submitted; the ablation).  Both schedules are bit-identical.
    """

    nbins: int | None = None
    local_bin_bytes: int = DEFAULT_LOCAL_BIN_BYTES
    bin_mapping: str = "range"
    pack_keys: bool = True
    use_local_bins: bool = False
    nthreads: int = 1
    executor: str = "serial"
    pipeline: str = "auto"
    tile_rows: int | None = None
    tile_cols: int | None = None
    shards: int | str | None = None
    memory_budget: int | None = None
    spill_dir: str | None = None
    plan_cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.nbins is not None and self.nbins < 1:
            raise ConfigError(f"nbins must be >= 1 or None, got {self.nbins}")
        if self.local_bin_bytes < TUPLE_BYTES:
            raise ConfigError(
                f"local_bin_bytes must hold at least one {TUPLE_BYTES}-byte "
                f"tuple, got {self.local_bin_bytes}"
            )
        if self.bin_mapping not in ("range", "modulo", "balanced"):
            raise ConfigError(
                "bin_mapping must be 'range', 'modulo' or 'balanced', "
                f"got {self.bin_mapping!r}"
            )
        if self.nthreads < 1:
            raise ConfigError(f"nthreads must be >= 1, got {self.nthreads}")
        if self.executor not in ("serial", "process"):
            raise ConfigError(
                f"executor must be 'serial' or 'process', got {self.executor!r}"
            )
        if self.pipeline not in ("auto", "barrier"):
            raise ConfigError(
                f"pipeline must be 'auto' or 'barrier', got {self.pipeline!r}"
            )
        if self.bin_mapping == "modulo" and self.pack_keys:
            raise ConfigError(
                "key packing requires contiguous bin ranges; use "
                "bin_mapping='range' or pack_keys=False"
            )
        if self.tile_rows is not None and self.tile_rows < 1:
            raise ConfigError(
                f"tile_rows must be >= 1 or None, got {self.tile_rows}"
            )
        if self.tile_cols is not None and self.tile_cols < 1:
            raise ConfigError(
                f"tile_cols must be >= 1 or None, got {self.tile_cols}"
            )
        if self.shards is not None:
            if isinstance(self.shards, str):
                if self.shards != "auto":
                    raise ConfigError(
                        f"shards must be an int >= 1, 'auto' or None, "
                        f"got {self.shards!r}"
                    )
            elif not isinstance(self.shards, int) or self.shards < 1:
                raise ConfigError(
                    f"shards must be an int >= 1, 'auto' or None, "
                    f"got {self.shards!r}"
                )
            if self.executor == "process":
                raise ConfigError(
                    "shards and executor='process' are mutually exclusive: "
                    "shards are the process-level parallelism (each shard "
                    "runs its tiles serially), and a nested process pool "
                    "per shard would oversubscribe the machine"
                )
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ConfigError(
                f"memory_budget must be >= 1 byte or None, "
                f"got {self.memory_budget}"
            )
        if self.spill_dir is not None and not isinstance(self.spill_dir, str):
            raise ConfigError(
                f"spill_dir must be a str path or None, "
                f"got {type(self.spill_dir).__name__}"
            )
        if self.plan_cache_dir is not None and not isinstance(
            self.plan_cache_dir, str
        ):
            raise ConfigError(
                f"plan_cache_dir must be a str path or None, "
                f"got {type(self.plan_cache_dir).__name__}"
            )

    def with_(self, **changes) -> "PBConfig":
        """Functional update (dataclasses.replace with validation)."""
        return replace(self, **changes)

    def validate_session(self) -> "PBConfig":
        """Session-aware validation (:class:`repro.session.Session`).

        A session exists to amortize process-pool spawn and recycle
        shared-memory arenas, so config combinations that silently
        defeat that purpose are rejected here rather than degraded:

        * ``executor="process"`` with ``nthreads == 1`` asks for a pool
          that would never run (one thread, or the serial numpy
          pipeline, on *every* multiply), so it is an error in a
          session (outside a session the documented silent fallback
          stands).

        Returns ``self`` so construction sites can chain it.
        """
        if self.executor == "process" and self.nthreads < 2:
            raise ConfigError(
                "a session with executor='process' needs nthreads >= 2; "
                f"got nthreads={self.nthreads} (which would silently fall "
                "back to serial on every multiply, never touching the "
                "warm pool)"
            )
        return self


def effective_config(config: "PBConfig | None", session=None) -> "PBConfig":
    """``config``, else the session's, else the defaults: the config of
    every kernel-level entry that takes ``session=``."""
    if config is not None:
        return config
    return session.config if session is not None else PBConfig()


def index_bits(extent: int) -> int:
    """Bits of one packed-key field (Sec. III-D) holding ids in
    ``[0, extent)``; at least one."""
    return max(int(extent - 1).bit_length(), 1) if extent else 1


def resolve_nbins(
    flop: int, nrows: int, ncols: int, config: "PBConfig | None" = None
) -> int:
    """THE place ``nbins=None`` resolves to a concrete bin count.

    Paper Alg. 3 line 6 + Sec. V-A: enough bins that one bin's tuples
    fit the L2 budget (assuming tuples spread evenly), rounded up to a
    power of two so bin ids come from cheap shifts, clamped to the
    paper's practical [1K, 2K] band ("for most practical matrices, we
    use 1K or 2K bins") and to the row count.

    With packed ``range`` or ``balanced`` keys the count then moves onto
    a digit boundary: of the power-of-two counts from that L2-fit count
    up to 4x it, never above ``nrows`` and keeping at least
    :data:`MIN_TUPLES_PER_BIN` tuples per bin on average, take the one
    whose packed key needs the fewest byte passes
    (:func:`repro.kernels.radix.passes_for_bits`, the passes the
    compiled 8-bit-digit sort runs), the fewest bins on a tie.
    More bins shorten the local-row field, so ER 2^14 squared goes from
    1K bins and 18-bit keys (3 passes) to 4K bins and 16-bit keys (2);
    a 13-column-bit R-MAT already has 16-bit keys at 1K bins and keeps
    them.  ``modulo`` mapping (its keys hold the whole row id),
    ``pack_keys=False`` (8 passes whatever the count), local bins
    (every thread holds ``nbins * local_bin_bytes`` of them, which the
    L2-fit count keeps within L2, Fig. 6b) and an explicit
    ``config.nbins`` (clamped to ``nrows``) pass through.  The cost
    model prices the paper's local bins, so its bin counts, and the
    simulated figures, stay the paper's.

    Every consumer — the executable symbolic phase
    (:func:`repro.core.symbolic.symbolic_phase`, shared by the compiled
    and numpy pipelines) and the analytic cost model
    (:func:`repro.costmodel.bytes_model.pb_phase_costs`) — calls this
    function, so the simulated and executed bin counts can never drift
    apart.
    """
    m = max(int(nrows), 1)
    if config is not None and config.nbins is not None:
        return min(config.nbins, m)
    tuples_per_bin = DEFAULT_L2_TARGET_BYTES // TUPLE_BYTES
    needed = max(1, -(-int(flop) // tuples_per_bin))
    pow2 = 1 << max(0, (needed - 1)).bit_length()
    nbins = min(max(pow2, 1024), 2048, m)
    cfg = config or PBConfig()
    if not cfg.pack_keys or cfg.bin_mapping == "modulo" or cfg.use_local_bins:
        return nbins
    from ..kernels.radix import passes_for_bits

    def passes(nb: int) -> int:
        return passes_for_bits(index_bits(-(-m // nb)) + index_bits(ncols))

    best = nbins
    for nb in (2 * nbins, 4 * nbins):
        if nb > m or int(flop) < MIN_TUPLES_PER_BIN * nb:
            break
        if passes(nb) < passes(best):
            best = nb
    return best
