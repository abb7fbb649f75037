"""Per-algorithm traffic and compute accounting (paper Tables II & III).

Builders translate a :class:`~repro.costmodel.phases.WorkloadStats`
into the list of :class:`~repro.costmodel.phases.PhaseCost` records the
simulation engine times.  The byte counts follow the paper exactly:

PB-SpGEMM (Table III):
  symbolic — streams the two pointer arrays;
  expand   — reads b·(nnz(A)+nnz(B)) streamed, writes b·flop streamed
             (degraded by local-bin flush efficiency, Fig. 6a);
  sort     — reads b·flop streamed; shuffles 4·b·flop in cache
             (or spills when a bin exceeds the cache budget, Fig. 6b);
  compress — reads b·flop in cache, writes b·nnz(C) streamed.

Column algorithms (Table II, first row):
  one fused phase — streams B once and C once, reads A *irregularly*
  flop/d(A) times as random bursts with cache-line waste when
  d(A)·12 < 64 (the "×" entries of Table II), plus the accumulator's
  per-flop compute.

Column ESC (Table II, second row): the column access pattern of A plus
the ESC write + re-read of Ĉ.
"""

from __future__ import annotations

import numpy as np

from ..core.config import TUPLE_BYTES, PBConfig, resolve_nbins
from ..machine.spec import MachineSpec
from . import compute as C
from .phases import PhaseCost, WorkloadStats

#: Bytes of one CSC/CSR entry (4-byte index + 8-byte value).
ENTRY_BYTES = 12
#: Pointer-array element width.
PTR_BYTES = 8
#: The configuration the paper evaluates: tuples staged in
#: thread-private local bins (Fig. 5).  The executed default scatters
#: directly (``PBConfig.use_local_bins``); the model reproduces the
#: paper's figures, so it prices this setting unless told otherwise.
PAPER_CONFIG = PBConfig(use_local_bins=True)


def _local_bin_write_efficiency(config: PBConfig, machine: MachineSpec, nbins: int) -> float:
    """Fraction of expand-write bandwidth doing useful tuple bytes.

    Each local-bin flush moves ``w`` useful bytes plus a fixed overhead
    (global-bin tail read-for-ownership etc.), so efficiency is
    ``w / (w + overhead)`` — rising toward 1 as the bin widens, the
    Fig. 6a curve.  Without local bins every tuple write is its own
    partial-line transaction: efficiency ``TUPLE_BYTES / line``.
    Oversized local-bin sets that exceed L2 thrash and lose the benefit
    progressively (the Fig. 6b expand droop).
    """
    line = machine.line_bytes
    if not config.use_local_bins:
        return TUPLE_BYTES / line
    w = float(config.local_bin_bytes)
    eff = w / (w + C.LOCAL_BIN_FLUSH_OVERHEAD_BYTES)
    footprint = w * nbins  # local bins of one thread
    l2 = machine.l2_per_core_bytes()
    if footprint > l2:
        # Thrashing: local bins evict before filling; efficiency decays
        # toward the no-local-bin floor.
        decay = l2 / footprint
        floor = TUPLE_BYTES / line
        eff = floor + (eff - floor) * decay
    return eff


def _bin_residency(flop: int, nbins: int, machine: MachineSpec):
    """Classify where an average bin lives during sort: L2, L3 or DRAM."""
    bin_bytes = flop * TUPLE_BYTES / max(nbins, 1)
    if bin_bytes <= machine.l2_per_core_bytes():
        return "L2", 1.0
    if bin_bytes <= machine.llc_bytes(1) / machine.cores_per_socket:
        return "L3", C.L3_SPILL_FACTOR
    return "DRAM", C.L3_SPILL_FACTOR


def pb_phase_costs(
    stats: WorkloadStats,
    machine: MachineSpec,
    config: PBConfig | None = None,
    nbins: int | None = None,
) -> list[PhaseCost]:
    """Phase costs of PB-SpGEMM (Alg. 2) on ``machine``, under
    ``config`` (default :data:`PAPER_CONFIG`, the paper's setting)."""
    cfg = config or PAPER_CONFIG
    b = TUPLE_BYTES
    flop = stats.flop
    if nbins is None:
        # Same resolution the executable symbolic phase uses — one
        # documented policy, repro.core.config.resolve_nbins.
        nbins = resolve_nbins(flop, stats.n_rows, stats.n_cols, cfg)
    bin_loads = stats.bin_loads(nbins).astype(np.float64)

    symbolic = PhaseCost(
        name="symbolic",
        dram_read_bytes=PTR_BYTES * (stats.k + 1) * 2,
        compute_cycles=4.0 * stats.k,
        schedule="static_block",
        overlap="max",
        stream_kernel="copy",
    )

    write_eff = _local_bin_write_efficiency(cfg, machine, nbins)
    expand = PhaseCost(
        name="expand",
        dram_read_bytes=ENTRY_BYTES * (stats.nnz_a + stats.nnz_b),
        dram_write_bytes=b * flop / max(write_eff, 1e-9),
        compute_cycles=C.PB_EXPAND_CYCLES_PER_FLOP * flop,
        work_items=stats.flops_per_k.astype(np.float64),
        # Outer products are distributed dynamically (whole columns of A
        # per task); one hub outer product still bounds the makespan —
        # the R-MAT load imbalance of Sec. V-C.
        schedule="lpt",
        overlap="max",
        stream_kernel="triad",
    )

    residency, spill = _bin_residency(flop, nbins, machine)
    key_bytes = 4 if (cfg.pack_keys and cfg.bin_mapping == "range") else 8
    # The LSD radix sort does one byte pass per key byte.
    passes = key_bytes
    sort_read = b * flop
    sort_cycles = C.PB_SORT_CYCLES_PER_FLOP_PER_PASS * passes * flop * spill
    if residency == "DRAM" and C.DRAM_SPILL:
        # Oversized bins: radix passes stream the bin through DRAM.
        # The scatter of a counting-sort pass is itself sequential per
        # bucket (256 open streams), so the extra passes move bytes at
        # streaming rates rather than thrashing — charged at a partial
        # weight because successive passes retain part of the bin in
        # the cache hierarchy.
        sort_read = b * flop * (1.0 + (passes - 1) * C.SPILL_STREAM_FRACTION)
    sort = PhaseCost(
        name="sort",
        dram_read_bytes=sort_read,
        compute_cycles=sort_cycles,
        work_items=bin_loads,
        schedule="lpt",
        overlap="max",
        stream_kernel="copy",
    )

    compress = PhaseCost(
        name="compress",
        dram_write_bytes=b * stats.nnz_c,
        compute_cycles=C.PB_COMPRESS_CYCLES_PER_FLOP * flop * spill,
        work_items=bin_loads,
        schedule="lpt",
        overlap="max",
        stream_kernel="triad",
    )
    return [symbolic, expand, sort, compress]


def _column_a_read(stats: WorkloadStats, machine: MachineSpec):
    """Irregular A reads of a column algorithm: burst count, lines, bytes.

    Every nonzero of B selects one column of A: ``nnz(B)`` random
    bursts of ``d(A)`` entries each (ENTRY_BYTES apiece), each burst
    touching ``ceil(burst_bytes / line)`` lines, +1 line for the column
    pointer lookup.
    """
    d = max(stats.mean_col_degree_a, 1e-9)
    burst_bytes = d * ENTRY_BYTES
    bursts = float(stats.nnz_b)
    lines_per_burst = np.ceil(burst_bytes / machine.line_bytes) + 1.0
    touches = bursts * lines_per_burst
    useful = bursts * burst_bytes
    return touches, useful


def _accumulator_spill_cycles(
    algorithm: str, stats: WorkloadStats, machine: MachineSpec
) -> float:
    """Cycles lost to accumulator cache misses on oversized columns.

    A column algorithm keeps one active accumulator per output column.
    When that accumulator outgrows L2 — skewed (R-MAT) hub columns, or
    the dense SPA on large matrices — each probe beyond the cached
    fraction is a dependent cache miss costing ~DRAM latency.  This is
    the mechanism that keeps column algorithms from exploiting skewed
    inputs despite their lower Ĉ traffic.
    """
    t = stats.flops_per_col.astype(np.float64)
    if not len(t):
        return 0.0
    cf = max(stats.compression_factor, 1.0)
    if algorithm == "spa":
        table_bytes = np.full_like(t, 8.0 * stats.n_rows)
    elif algorithm == "heap":
        # Heap of fan-in pointers + the emitted column buffer.
        k = stats.nnz_b_per_col.astype(np.float64)
        table_bytes = 16.0 * k + ENTRY_BYTES * np.minimum(t / cf, stats.n_rows)
    else:  # hash / hashvec open-addressing tables at ~50% load
        distinct = np.minimum(t / cf, stats.n_rows)
        table_bytes = C.ACCUM_ENTRY_BYTES * distinct
    l2 = float(machine.l2_per_core_bytes()) * C.ACCUM_CACHE_FRACTION
    spill_frac = np.clip(1.0 - l2 / np.maximum(table_bytes, 1.0), 0.0, 1.0)
    spilled = float((t * spill_frac).sum())
    return C.ACCUM_SPILL_CYCLES * spilled


def column_phase_costs(
    algorithm: str,
    stats: WorkloadStats,
    machine: MachineSpec,
) -> list[PhaseCost]:
    """Fused-phase cost of a column SpGEMM algorithm (Table II row 1).

    The paper's access pattern: one accumulator per output column fed
    by *dependent* irregular A reads (``nnz(B)`` random bursts,
    latency-priced, overlap "add") plus the accumulator-spill latency
    term.  The simulator and every figure use this model.
    """
    flop = float(stats.flop)
    ncols = float(stats.n_cols)
    nnzc = float(stats.nnz_c)
    if algorithm == "heap":
        # Sift depth is log2 of the column's merge fan-in nnz(B(:,j)),
        # weighted by that column's tuple count.
        k = np.maximum(stats.nnz_b_per_col.astype(np.float64), 2.0)
        weighted_log = float(
            (stats.flops_per_col.astype(np.float64) * np.log2(k)).sum()
        )
        cycles = (
            C.HEAP_CYCLES_PER_FLOP_PER_LOG * weighted_log
            + C.HEAP_CYCLES_PER_NNZC * nnzc
            + C.HEAP_CYCLES_PER_COLUMN * ncols
        )
    elif algorithm == "hash":
        cycles = (
            C.HASH_CYCLES_PER_FLOP * flop
            + C.HASH_CYCLES_PER_NNZC * nnzc
            + C.HASH_CYCLES_PER_COLUMN * ncols
        )
    elif algorithm == "hashvec":
        cycles = (
            C.HASHVEC_CYCLES_PER_FLOP * flop
            + C.HASHVEC_CYCLES_PER_NNZC * nnzc
            + C.HASHVEC_CYCLES_PER_COLUMN * ncols
        )
    elif algorithm == "spa":
        cycles = (
            C.SPA_CYCLES_PER_FLOP * flop
            + C.SPA_CYCLES_PER_NNZC * nnzc
            + C.SPA_CYCLES_PER_COLUMN * ncols
        )
    else:
        raise ValueError(f"not a column accumulator algorithm: {algorithm!r}")
    cycles += _accumulator_spill_cycles(algorithm, stats, machine)

    touches, useful = _column_a_read(stats, machine)
    merge = PhaseCost(
        name=algorithm,
        dram_read_bytes=ENTRY_BYTES * stats.nnz_b,
        dram_write_bytes=ENTRY_BYTES * stats.nnz_c,
        random_line_touches=touches,
        random_useful_bytes=useful,
        compute_cycles=cycles,
        work_items=stats.flops_per_col.astype(np.float64),
        schedule="lpt",
        overlap="add",  # dependent irregular loads feed the accumulator
        stream_kernel="copy",
    )
    return [merge]


def esc_column_phase_costs(
    stats: WorkloadStats,
    machine: MachineSpec,
) -> list[PhaseCost]:
    """Column-wise ESC (Table II row 2): column A access + Ĉ round trip."""
    b = TUPLE_BYTES
    flop = float(stats.flop)
    touches, useful = _column_a_read(stats, machine)
    expand = PhaseCost(
        name="esc_expand",
        dram_read_bytes=ENTRY_BYTES * stats.nnz_b,
        dram_write_bytes=b * flop,
        random_line_touches=touches,
        random_useful_bytes=useful,
        compute_cycles=C.PB_EXPAND_CYCLES_PER_FLOP * flop,
        work_items=stats.flops_per_col.astype(np.float64),
        schedule="lpt",
        overlap="add",
        stream_kernel="triad",
    )
    sortc = PhaseCost(
        name="esc_sort_compress",
        dram_read_bytes=b * flop,
        dram_write_bytes=b * stats.nnz_c,
        compute_cycles=C.ESC_COLUMN_SORT_CYCLES_PER_FLOP * flop,
        schedule="lpt",
        overlap="max",
        stream_kernel="triad",
    )
    return [expand, sortc]


def algorithm_phase_costs(
    algorithm: str,
    stats: WorkloadStats,
    machine: MachineSpec,
    config: PBConfig | None = None,
) -> list[PhaseCost]:
    """Dispatch to the right cost builder for any registered algorithm."""
    if algorithm == "pb":
        return pb_phase_costs(stats, machine, config)
    if algorithm == "esc_column":
        return esc_column_phase_costs(stats, machine)
    return column_phase_costs(algorithm, stats, machine)
