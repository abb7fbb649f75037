"""Candidate ranking: sketch × profile → scored algorithm choices.

This is where the paper's model becomes a decision procedure.  Every
registered algorithm (``kernels.dispatch`` — heap / hash / hashvec /
spa / esc_column / pb) is priced by plugging the workload's structural
stats into the existing bytes/roofline machinery
(:func:`repro.costmodel.bytes_model.algorithm_phase_costs` timed by
:func:`repro.simulate.engine.simulate_phases`) against the calibrated
:class:`~repro.planner.calibrate.MachineProfile`.

PB additionally gets its two paper knobs tuned from the cache model
(Fig. 6) instead of a static default: candidate ``nbins`` (powers of
two around the L2-fit point) and ``local_bin_bytes`` widths are swept
through :func:`~repro.costmodel.bytes_model.pb_phase_costs` and the
cheapest pair becomes the plan's config override.

Executor choice consumes the registry's ``supports_process`` metadata:
algorithms that can run on the process pool are priced at the requested
worker count plus a fixed pool overhead; the rest are priced
single-threaded.  Where the compiled PB pipeline can run, PB and tiled
are instead priced on the threads it would use
(:func:`repro.parallel.threads.thread_count`), with no pool overhead.
The pool overhead depends on how the pool is provisioned: a standalone
process-executor multiply spawns (and tears down) its own pool, so it
is charged the calibrated ``pool_startup_s`` every call; a
multiply on a warm :class:`repro.session.Session` reuses an
already-running pool and is charged only ``warm_dispatch_s``
(``rank(..., warm_pool=True)``).  A session's *first* multiply is still
priced cold — the spawn genuinely happens there; it is simply never
paid again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import DEFAULT_LOCAL_BIN_BYTES, PBConfig, resolve_nbins
from ..core.tiled import monolithic_peak_bytes, tiled_peak_bytes
from ..costmodel.bytes_model import ENTRY_BYTES, algorithm_phase_costs, pb_phase_costs
from ..costmodel.phases import PhaseCost, WorkloadStats, workload_stats
from ..kernels.dispatch import ALGORITHMS
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..simulate.engine import simulate_phases
from .calibrate import MachineProfile
from .sketch import Sketch

#: Local-bin widths swept for PB (Fig. 6a's x-axis, bracketing the
#: paper's 512-byte default).
LOCAL_BIN_SWEEP = (256, 512, 1024)

#: Grid dimensions swept when pricing ``algorithm="tiled"`` (powers of
#: two, the same shape of sweep ``nbins`` gets).
TILE_GRID_SWEEP = (1, 2, 4, 8, 16, 32)

#: Modeled fixed cycles per tile: panel slicing, the per-tile symbolic
#: phase, and Python dispatch overhead around each small PB multiply.
#: This is what stops the sweep from over-tiling — past the budget's
#: needs, more tiles only add this term.
PER_TILE_CYCLES = 150_000.0


@dataclass(frozen=True)
class CandidateScore:
    """One priced (algorithm, executor) candidate.

    ``reason`` is ``None`` for the winner; every loser carries a short
    human-readable why-rejected string (the ``repro plan`` table).
    """

    algorithm: str
    executor: str
    nthreads: int
    predicted_seconds: float
    predicted_dram_bytes: float
    phase_seconds: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    reason: str | None = None
    #: Modeled peak resident bytes (0.0 on pre-tiling cache records,
    #: which also never carried a memory budget to gate against).
    predicted_peak_bytes: float = 0.0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "executor": self.executor,
            "nthreads": self.nthreads,
            "predicted_seconds": self.predicted_seconds,
            "predicted_dram_bytes": self.predicted_dram_bytes,
            "predicted_peak_bytes": self.predicted_peak_bytes,
            "phase_seconds": dict(self.phase_seconds),
            "overrides": dict(self.overrides),
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateScore":
        return cls(
            algorithm=data["algorithm"],
            executor=data.get("executor", "serial"),
            nthreads=int(data.get("nthreads", 1)),
            predicted_seconds=float(data["predicted_seconds"]),
            predicted_dram_bytes=float(data.get("predicted_dram_bytes", 0.0)),
            phase_seconds=dict(data.get("phase_seconds", {})),
            overrides=dict(data.get("overrides", {})),
            reason=data.get("reason"),
            predicted_peak_bytes=float(data.get("predicted_peak_bytes", 0.0)),
        )


def _nbins_candidates(flop: int, nrows: int, config: PBConfig) -> list[int]:
    """Powers of two bracketing the L2-fit resolution (Fig. 6b sweep)."""
    center = resolve_nbins(flop, nrows, config)
    cands = sorted(
        {
            max(1, min(c, max(nrows, 1)))
            for c in (center // 4, center // 2, center, center * 2, center * 4)
            if c >= 1
        }
    )
    return cands


def _tune_pb(
    stats: WorkloadStats,
    machine,
    config: PBConfig,
    nthreads: int,
    sockets: int = 1,
) -> tuple[float, float, dict, dict]:
    """Sweep (nbins, local_bin_bytes); best combination.

    Knobs the caller already pinned in ``config`` are honored (their
    sweep collapses to the pinned value), so the returned overrides
    only ever fill blanks.
    """
    nbins_cands = (
        [min(config.nbins, max(stats.n_rows, 1))]
        if config.nbins is not None
        else _nbins_candidates(stats.flop, stats.n_rows, config)
    )
    lbb_cands = (
        [config.local_bin_bytes]
        if config.local_bin_bytes != DEFAULT_LOCAL_BIN_BYTES
        else list(LOCAL_BIN_SWEEP)
    )
    best = None
    for nbins in nbins_cands:
        for lbb in lbb_cands:
            cfg = config.with_(nbins=nbins, local_bin_bytes=lbb)
            phases = pb_phase_costs(stats, machine, cfg, nbins=nbins)
            reports = simulate_phases(phases, machine, nthreads, sockets)
            total = sum(p.seconds for p in reports)
            if best is None or total < best[0]:
                dram = sum(p.dram_bytes for p in reports)
                per_phase = {p.name: p.seconds for p in reports}
                best = (total, dram, per_phase, {"nbins": nbins, "local_bin_bytes": lbb})
    total, dram, per_phase, knobs = best
    overrides = {}
    if config.nbins is None:
        overrides["nbins"] = knobs["nbins"]
    if config.local_bin_bytes == DEFAULT_LOCAL_BIN_BYTES:
        overrides["local_bin_bytes"] = knobs["local_bin_bytes"]
    return total, dram, per_phase, overrides


def _panel_peak_bytes(stats: WorkloadStats) -> float:
    """Modeled peak bytes of the panel-vectorized column algorithms.

    The panel path materializes at most ``DEFAULT_PANEL_TUPLES`` (or
    the whole flop, if smaller) expanded tuples at a time on top of the
    operands and the product — the column kernels were already
    memory-bounded before tiling existed.
    """
    from ..kernels.column_panel import DEFAULT_PANEL_TUPLES

    from ..core.blocks import CSR_ENTRY_BYTES, TILE_WORKING_BYTES_PER_FLOP

    inputs = CSR_ENTRY_BYTES * 2.0 * (stats.nnz_a + stats.nnz_b)
    panel = TILE_WORKING_BYTES_PER_FLOP * float(
        min(stats.flop, DEFAULT_PANEL_TUPLES)
    )
    return inputs + panel + CSR_ENTRY_BYTES * float(stats.nnz_c)


def _grid_dims(extent: int, pinned_tile: int | None) -> list[int]:
    """Candidate panel counts for one grid dimension."""
    extent = max(int(extent), 1)
    if pinned_tile is not None:
        return [max(1, -(-extent // max(1, min(pinned_tile, extent))))]
    return [d for d in TILE_GRID_SWEEP if d <= extent] or [1]


def _max_tile_flop(stats: WorkloadStats, gr: int, gc: int) -> float:
    """Busiest tile's flop under the grid, from the row/col marginals.

    ``flops_per_row[i] * flops_per_col[j] / flop`` is the expected
    tile load when row and column structure are independent; taking
    the max panel marginals upper-bounds the skewed case well enough
    for a feasibility gate.
    """
    total = float(max(stats.flop, 1))
    if gr <= 1 and gc <= 1:
        return float(stats.flop)
    row_starts = np.linspace(0, len(stats.flops_per_row), gr + 1).astype(int)[:-1]
    col_starts = np.linspace(0, len(stats.flops_per_col), gc + 1).astype(int)[:-1]
    max_row = (
        float(np.add.reduceat(stats.flops_per_row, row_starts).max())
        if len(stats.flops_per_row)
        else 0.0
    )
    max_col = (
        float(np.add.reduceat(stats.flops_per_col, col_starts).max())
        if len(stats.flops_per_col)
        else 0.0
    )
    return max_row * max_col / total


def _tune_tiled(
    stats: WorkloadStats,
    machine,
    config: PBConfig,
    nthreads: int,
) -> tuple[float, float, dict, dict, float]:
    """Sweep the tile grid; returns the PB tuple plus the peak bytes.

    The per-tile pipeline is the monolithic PB pipeline over the same
    total tuple stream, so the base cost reuses :func:`_tune_pb`'s
    swept optimum; each candidate grid then adds a ``tiling`` phase —
    the restreamed operand passes ((gc−1)·A, (gr−1)·B), the merge
    stage's read+write of C, and :data:`PER_TILE_CYCLES` per tile —
    and the cheapest *budget-feasible* grid wins.  With no
    ``memory_budget`` every grid is feasible and the 1×1 grid's zero
    overhead wins, which is exactly right: tiling is pure cost until
    memory is the constraint.

    Pinned ``config.tile_rows`` / ``tile_cols`` collapse their
    dimension of the sweep (the `_tune_pb` convention); the returned
    overrides only ever fill blanks.
    """
    pb_total, pb_dram, pb_phases, pb_overrides = _tune_pb(
        stats, machine, config, nthreads
    )
    budget = config.memory_budget
    m, n = stats.n_rows, stats.n_cols
    gr_cands = _grid_dims(m, config.tile_rows)
    gc_cands = _grid_dims(n, config.tile_cols)
    best = None  # (infeasible, total, peak, gr, gc, phase_s, dram)
    for gr in gr_cands:
        for gc in gc_cands:
            ntiles = gr * gc
            read = (
                (gc - 1) * ENTRY_BYTES * stats.nnz_a
                + (gr - 1) * ENTRY_BYTES * stats.nnz_b
                + (ENTRY_BYTES * stats.nnz_c if ntiles > 1 else 0)
            )
            write = ENTRY_BYTES * stats.nnz_c if ntiles > 1 else 0
            overhead = PhaseCost(
                name="tiling",
                dram_read_bytes=float(read),
                dram_write_bytes=float(write),
                compute_cycles=ntiles * PER_TILE_CYCLES,
                schedule="static_block",
                overlap="max",
            )
            # Per-tile fixed work is serial driver overhead, not
            # worker-parallel: price it single-threaded.
            reports = simulate_phases([overhead], machine, 1)
            extra = sum(p.seconds for p in reports)
            extra_dram = sum(p.dram_bytes for p in reports)
            peak = tiled_peak_bytes(
                stats.flop,
                stats.nnz_a,
                stats.nnz_b,
                stats.nnz_c,
                gr,
                gc,
                max_tile_flop=_max_tile_flop(stats, gr, gc),
            )
            infeasible = budget is not None and peak > budget
            key = (infeasible, pb_total + extra, peak)
            if best is None or key < best[0]:
                best = (key, gr, gc, extra, extra_dram, peak)
    key, gr, gc, extra, extra_dram, peak = best
    total = pb_total + extra
    phase_seconds = dict(pb_phases)
    if extra > 0.0:
        phase_seconds["tiling"] = extra
    overrides = dict(pb_overrides)
    if config.tile_rows is None:
        overrides["tile_rows"] = max(1, -(-max(m, 1) // gr))
    if config.tile_cols is None:
        overrides["tile_cols"] = max(1, -(-max(n, 1) // gc))
    return total, pb_dram + extra_dram, phase_seconds, overrides, peak


#: Shard counts swept when ``PBConfig.shards`` leaves the count open.
SHARD_SWEEP = (2, 4, 8)


def _tune_sharded(
    stats: WorkloadStats,
    machine,
    config: PBConfig,
    profile: MachineProfile,
) -> tuple[float, float, dict, dict, float, int]:
    """Sweep shard counts; returns the PB tuple + peak bytes + shards.

    Extends the tiled pricing with the sharded executor's own terms:

    * **compute** — the swept PB optimum divided by the *effective*
      parallelism ``min(shards, cores)``; extra shards beyond the core
      count only shrink per-process working sets, they don't add speed
      (the driver staggers them for exactly this reason).
    * **panel broadcast** — one shared-memory write + one read of A and
      the B panels (``ENTRY_BYTES * (nnz_a + nnz_b)`` each way), plus
      the streamed return and merge of C (2× its bytes) and the final
      assembly write.
    * **spawn** — the calibrated ``pool_startup_s`` every call: the
      sharded driver forks its own worker set per multiply; there is no
      warm-pool discount.
    * **per-tile overhead** — :data:`PER_TILE_CYCLES` for each of the
      ``shards × grid_cols`` tiles.

    The returned peak is the busiest *shard's* modeled resident bytes
    (:func:`repro.core.sharded.sharded_peak_bytes`) or the parent's
    assembly floor, whichever is larger — the feasibility gate then
    compares it against the per-process ``memory_budget``, which is
    how ``algorithm="auto"`` picks sharded exactly when fan-out is
    what makes the budget satisfiable.
    """
    from ..core.blocks import col_panels_for
    from ..core.sharded import resolve_shards, sharded_peak_bytes

    pb_total, pb_dram, pb_phases, pb_overrides = _tune_pb(stats, machine, config, 1)
    budget = config.memory_budget
    cores = max(1, machine.total_cores)
    if isinstance(config.shards, int):
        shard_cands = [min(config.shards, max(stats.n_rows, 1))]
    elif config.shards == "auto":
        shard_cands = [
            resolve_shards(
                "auto",
                m=stats.n_rows,
                flop=stats.flop,
                memory_budget=budget,
            )
        ]
    else:
        shard_cands = [s for s in SHARD_SWEEP if s <= max(stats.n_rows, 1)] or [1]
    best = None
    for s in shard_cands:
        # The driver's column split, for an even flop split over s shards.
        gc = col_panels_for(stats.n_cols, float(stats.flop) / max(s, 1), config)
        transport = PhaseCost(
            name="shard_transport",
            dram_read_bytes=float(
                ENTRY_BYTES * (stats.nnz_a + stats.nnz_b)  # workers read
                + ENTRY_BYTES * stats.nnz_c  # parent merges returns
            ),
            dram_write_bytes=float(
                ENTRY_BYTES * (stats.nnz_a + stats.nnz_b)  # broadcast copy
                + 2.0 * ENTRY_BYTES * stats.nnz_c  # return + assembly
            ),
            compute_cycles=s * gc * PER_TILE_CYCLES,
            schedule="static_block",
            overlap="max",
        )
        reports = simulate_phases([transport], machine, 1)
        extra = sum(p.seconds for p in reports) + profile.pool_startup_s
        extra_dram = sum(p.dram_bytes for p in reports)
        compute = pb_total / min(s, cores)
        shard_peak = sharded_peak_bytes(
            stats.flop, stats.nnz_a, stats.nnz_b, s, gc
        )
        parent_floor = ENTRY_BYTES * float(
            stats.nnz_a + stats.nnz_b + stats.nnz_c
        )
        peak = max(shard_peak, parent_floor)
        infeasible = budget is not None and peak > budget
        key = (infeasible, compute + extra, peak)
        if best is None or key < best[0]:
            best = (key, s, gc, compute, extra, extra_dram, peak)
    key, s, gc, compute, extra, extra_dram, peak = best
    phase_seconds = dict(pb_phases)
    phase_seconds["shard_transport"] = extra
    overrides = dict(pb_overrides)
    overrides["shards"] = s
    if config.tile_cols is None and gc > 1:
        overrides["tile_cols"] = max(1, -(-max(stats.n_cols, 1) // gc))
    return (
        compute + extra,
        pb_dram + extra_dram,
        phase_seconds,
        overrides,
        peak,
        s,
    )


def rank(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    sk: Sketch,
    profile: MachineProfile,
    config: PBConfig | None = None,
    process_ok: bool = False,
    warm_pool: bool = False,
    threads_ok: bool = False,
) -> list[CandidateScore]:
    """Price every registered algorithm; cheapest first.

    ``process_ok`` says whether a process pool is actually an option
    for this call (config asks for it *and* the platform supports it);
    the registry's ``supports_process`` metadata then decides which
    candidates may use it.  ``warm_pool`` says a session's pool is
    already running, so process candidates pay the calibrated
    warm-dispatch latency instead of the pool-spawn cost.
    ``threads_ok`` says the compiled PB pipeline can run this call, so
    PB and tiled run (and are priced) on ``thread_count(cfg.nthreads,
    flop)`` threads.
    """
    cfg = config or PBConfig()
    stats = workload_stats(a_csc, b_csr, nnz_c=sk.nnz_c, seed=sk.seed)
    machine = profile.machine_spec()
    column_scale = profile.column_compute_scale()
    # Price the backend dispatch will actually run (panel unless the
    # config pins the loop ablation) — the loop's Table II model
    # (latency-bound A bursts, accumulator spill) mis-prices the
    # streaming panel path by several-fold.
    column_backend = cfg.column_backend or "panel"
    want_threads = max(1, cfg.nthreads)
    scored: list[CandidateScore] = []
    budget = cfg.memory_budget
    from ..parallel import process_backend_available
    from ..parallel.threads import thread_count

    shardable = process_backend_available()
    pb_threads = thread_count(want_threads, stats.flop) if threads_ok else 1
    for name, info in sorted(ALGORITHMS.items()):
        use_process = process_ok and info.supports_process and want_threads > 1
        nthreads = min(want_threads, machine.total_cores) if use_process else 1
        executor = "process" if use_process else "serial"
        if name in ("pb", "tiled") and pb_threads > 1:
            nthreads, executor = pb_threads, "threads"
        if name == "sharded":
            # Feasibility gate: the sharded executor needs POSIX shared
            # memory, and a config that asked for the (mutually
            # exclusive) process executor keeps it out of the running.
            if not shardable or cfg.executor == "process":
                continue
            total, dram, per_phase, overrides, peak, s = _tune_sharded(
                stats, machine, cfg, profile
            )
            scored.append(
                CandidateScore(
                    algorithm=name,
                    executor="sharded",
                    nthreads=s,
                    predicted_seconds=total,
                    predicted_dram_bytes=dram,
                    phase_seconds=per_phase,
                    overrides=overrides,
                    predicted_peak_bytes=peak,
                )
            )
            continue
        if name == "pb" and info.supports_config:
            total, dram, per_phase, overrides = _tune_pb(
                stats, machine, cfg, nthreads
            )
            peak = monolithic_peak_bytes(
                stats.flop, stats.nnz_a, stats.nnz_b, stats.nnz_c
            )
        elif name == "tiled" and info.supports_config:
            total, dram, per_phase, overrides, peak = _tune_tiled(
                stats, machine, cfg, nthreads
            )
        else:
            # Column candidates, priced on the calibrated rate of the
            # panel as it runs by default (compiled when it can be).
            phases = algorithm_phase_costs(
                name,
                stats,
                machine,
                cfg,
                column_compute_scale=column_scale,
                column_backend=column_backend,
            )
            reports = simulate_phases(phases, machine, nthreads)
            total = sum(p.seconds for p in reports)
            dram = sum(p.dram_bytes for p in reports)
            per_phase = {p.name: p.seconds for p in reports}
            overrides = {}
            peak = (
                monolithic_peak_bytes(
                    stats.flop, stats.nnz_a, stats.nnz_b, stats.nnz_c
                )
                if name == "esc_column"  # expands the whole tuple stream
                else _panel_peak_bytes(stats)
            )
        if use_process:
            total += profile.warm_dispatch_s if warm_pool else profile.pool_startup_s
        scored.append(
            CandidateScore(
                algorithm=name,
                executor=executor,
                nthreads=nthreads,
                predicted_seconds=total,
                predicted_dram_bytes=dram,
                phase_seconds=per_phase,
                overrides=overrides,
                predicted_peak_bytes=peak,
            )
        )
    # Budget feasibility orders before speed: with a memory budget set,
    # a candidate whose modeled peak exceeds it loses to every feasible
    # one no matter how fast it looks — this is the auto-selection
    # lever that flips pb → tiled when the monolithic working set
    # cannot fit.
    def _infeasible(c: CandidateScore) -> bool:
        return budget is not None and c.predicted_peak_bytes > budget

    scored.sort(key=lambda c: (_infeasible(c), c.predicted_seconds, c.algorithm))
    winner = scored[0]
    out = [winner]
    for c in scored[1:]:
        ratio = c.predicted_seconds / max(winner.predicted_seconds, 1e-12)
        notes = []
        if _infeasible(c):
            notes.append(
                f"predicted peak {c.predicted_peak_bytes / 1e6:.0f} MB "
                f"exceeds memory budget {budget / 1e6:.0f} MB"
            )
        if ratio >= 1.005:
            notes.append(
                f"predicted {ratio:.2f}x slower than {winner.algorithm}"
            )
        elif not notes:
            notes.append(f"tied with {winner.algorithm}; loses the name tiebreak")
        if (
            cfg.executor == "process"
            and want_threads > 1
            and not ALGORITHMS[c.algorithm].supports_process
        ):
            notes.append("no process-executor support; priced serially")
        out.append(
            CandidateScore(
                algorithm=c.algorithm,
                executor=c.executor,
                nthreads=c.nthreads,
                predicted_seconds=c.predicted_seconds,
                predicted_dram_bytes=c.predicted_dram_bytes,
                phase_seconds=c.phase_seconds,
                overrides=c.overrides,
                reason="; ".join(notes),
                predicted_peak_bytes=c.predicted_peak_bytes,
            )
        )
    return out
