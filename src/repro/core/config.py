"""Configuration of the PB-SpGEMM pipeline (the paper's tunables).

The paper exposes two primary knobs — the number of global bins
(``nbins``, Fig. 6b) and the local-bin width (``Lbinwidth``, Fig. 6a,
default 512 bytes) — plus several design decisions this reproduction
makes ablatable (DESIGN.md §6): bin mapping, key packing and the
per-phase kernel backends.
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


@dataclass(frozen=True)
class PBConfig:
    """Parameters of :func:`repro.core.pb_spgemm`.

    Attributes
    ----------
    nbins:
        Number of global bins.  ``None`` (default) lets the symbolic
        phase choose so a bin's tuples fit
        :data:`DEFAULT_L2_TARGET_BYTES` (Alg. 3 line 6); see
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
    sort_backend:
        ``"radix"`` — the counting-scatter LSD sort (paper, default);
        ``"argsort"`` — the pre-optimization byte-argsort radix kept
        as an ablation; ``"mergesort"`` — comparison-sort ablation;
        ``"radix_jit"`` — the compiled fused histogram+scatter LSD
        sort of the JIT tier (:mod:`repro.kernels.jit`; falls back to
        ``"radix"`` with one structured warning when no JIT engine is
        available).  All produce bit-identical products.
    distribute_backend:
        ``"counting"`` (default) — bucket placement via narrow-dtype
        counting sort; ``"argsort"`` — the pre-optimization stable
        argsort placement (ablation); ``"counting_jit"`` — the JIT
        tier's fused counting placement (scatters keys and values
        without materializing the permutation; falls back to
        ``"counting"``).  Identical stable result.
    expand_backend:
        ``"arena"`` (default) — serial expand writes chunks straight
        into one flop-sized arena at flop-prefix offsets;
        ``"concat"`` — the pre-optimization list-of-chunks +
        ``np.concatenate`` path (ablation).  Identical stream.  Also
        consumed by ``esc_column`` (chunked column-major arena vs. the
        one-shot whole-stream expand).
    column_backend:
        Execution strategy of the column kernels (heap / hash /
        hashvec / spa): ``"panel"`` (default) — panel-vectorized gather
        + segmented semiring reduction
        (:mod:`repro.kernels.column_panel`); ``"loop"`` — the faithful
        per-output-column Python accumulators (ablation);
        ``"panel_jit"`` — the panel path with the compiled per-panel
        sort + segmented fold of the JIT tier (falls back to
        ``"panel"``).  Bit-identical products.
    use_local_bins:
        Model/trace the thread-private local-bin stage.  Turning this
        off does not change the numeric result (the executable path is
        vectorized either way) but changes the simulated traffic and
        the generated traces — it is the Fig. 5 ablation switch.
    nthreads:
        Worker count.  With ``executor="serial"`` it only feeds the
        simulator's per-thread work decompositions; with
        ``executor="process"`` it is the real process-pool size.
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
        ``"serial"`` (default) — single-process numpy pipeline;
        ``"process"`` — run expand and per-bin sort/compress on a
        process pool with shared-memory array transport
        (:mod:`repro.parallel`).  Results are bit-identical.  Falls
        back to serial when ``nthreads == 1``, when the platform lacks
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
    sort_backend: str = "radix"
    distribute_backend: str = "counting"
    expand_backend: str = "arena"
    column_backend: str = "panel"
    use_local_bins: bool = True
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
        if self.sort_backend not in ("radix", "argsort", "mergesort", "radix_jit"):
            raise ConfigError(
                "sort_backend must be 'radix', 'argsort', 'mergesort' or "
                f"'radix_jit', got {self.sort_backend!r}"
            )
        if self.distribute_backend not in ("counting", "argsort", "counting_jit"):
            raise ConfigError(
                "distribute_backend must be 'counting', 'argsort' or "
                f"'counting_jit', got {self.distribute_backend!r}"
            )
        if self.expand_backend not in ("arena", "concat"):
            raise ConfigError(
                "expand_backend must be 'arena' or 'concat', "
                f"got {self.expand_backend!r}"
            )
        if self.column_backend not in ("panel", "loop", "panel_jit"):
            raise ConfigError(
                "column_backend must be 'panel', 'loop' or 'panel_jit', "
                f"got {self.column_backend!r}"
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

        * ``executor="process"`` with ``nthreads == 1`` would fall back
          to serial on *every* multiply — the warm pool would never be
          used — so it is an error in a session (outside a session the
          documented silent fallback stands).

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

    @property
    def uses_jit(self) -> bool:
        """Whether any configured backend belongs to the JIT tier.

        Consulted by :class:`repro.session.Session` (warm-up at
        construction) and ``pb_spgemm_detailed`` (the ``jit_warmup_s``
        phase stopwatch) so compile time is paid off the request path
        and never folded into a multiply's phase timings.
        """
        return (
            self.sort_backend == "radix_jit"
            or self.distribute_backend == "counting_jit"
            or self.column_backend == "panel_jit"
        )


def effective_config(config: "PBConfig | None", session=None) -> "PBConfig":
    """``config``, else the session's, else the defaults: the config of
    every kernel-level entry that takes ``session=``."""
    if config is not None:
        return config
    return session.config if session is not None else PBConfig()


def resolve_nbins(flop: int, nrows: int, config: "PBConfig | None" = None) -> int:
    """THE place ``nbins=None`` resolves to a concrete bin count.

    Paper Alg. 3 line 6 + Sec. V-A: enough bins that one bin's tuples
    fit the L2 budget (assuming tuples spread evenly), rounded up to a
    power of two so bin ids come from cheap shifts, clamped to the
    paper's practical [1K, 2K] band ("for most practical matrices, we
    use 1K or 2K bins") and to the row count.  An explicit
    ``config.nbins`` passes through (clamped to ``nrows``).

    Every consumer — the executable symbolic phase
    (:func:`repro.core.symbolic.symbolic_phase`, shared by the serial
    and process executors), the analytic cost model
    (:func:`repro.costmodel.bytes_model.pb_phase_costs`) and the
    planner — calls this function, so the simulated, planned and
    executed bin counts can never drift apart.
    """
    m = max(int(nrows), 1)
    if config is not None and config.nbins is not None:
        return min(config.nbins, m)
    tuples_per_bin = DEFAULT_L2_TARGET_BYTES // TUPLE_BYTES
    needed = max(1, -(-int(flop) // tuples_per_bin))
    pow2 = 1 << max(0, (needed - 1)).bit_length()
    return min(max(pow2, 1024), 2048, m)
