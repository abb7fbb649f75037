"""PB-SpGEMM — paper Algorithm 2, end to end.

Phases (matching the paper's structure and instrumentation points):

1. **Symbolic** (Alg. 3): flop count from pointer arrays, bin sizing
   (L2-fit, then moved onto a key-width digit boundary; see
   :func:`repro.core.config.resolve_nbins`), global-bin allocation.
2. **Expand** (lines 5-14): outer products stream A (CSC) and B (CSR)
   once; tuples are packed into narrow integer keys (Sec. III-D) and
   placed into global bins in stream order.
3. **Sort** (line 16): per bin, the packed keys are sorted by a stable
   LSD radix (see :mod:`repro.kernels.radix`).
4. **Compress** (line 17): per bin, duplicate (row, col) keys collapse
   into one ⊕-folded entry.
5. **CSR conversion** (line 9 of Alg. 1 / line 22): bins cover
   ascending disjoint row ranges, so the compressed bins in bin order
   *are* row-major order; a per-row count builds the pointer.

Two implementations run these phases and give bit-identical products
(:attr:`PBResult.pipeline` says which one ran):

* **compiled** (the default whenever the cc engine of
  :mod:`repro.kernels.jit` builds): one pass counts each bin's tuples,
  expand writes each tuple straight to its global bin
  (``use_local_bins=True`` stages them in thread-private local bins of
  ``local_bin_bytes`` flushed when full — the local-bin protocol of
  Fig. 5, executed as an ablation), then every bin is radix-sorted in
  place and compressed straight into the output's column and value
  arrays while its row counts accumulate.  It runs on
  ``PBConfig.nthreads`` threads (:mod:`repro.parallel.threads`):
  flop-balanced column chunks expand into their own cursor ranges of
  every bin, and contiguous bin ranges sort and compress in place.
* **numpy**: expand into one flop-sized arena, one fused pack +
  counting distribute, then per bin a radix sort, a compress and a key
  unpack, and one concatenation.  It is the bit-identical reference
  and runs for ``modulo`` mapping, custom semirings, non-float64
  values, and wherever the engine is missing — serially, or on a
  process engine's workers under ``executor="process"``.

The function returns just the CSR product; :func:`pb_spgemm_detailed`
additionally returns per-phase measurements (bin occupancy, radix
passes, phase timings) that several benchmarks consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from ..kernels import jit as _jit
from ..kernels.compress import compress_keyed
from ..kernels.outer_expand import DEFAULT_CHUNK_FLOPS, expand_arena
from ..kernels.radix import sort_tuples
from ..parallel.executor import engine_scope, semiring_token
from ..parallel.threads import ThreadTeam, thread_count
from .binning import (
    BinLayout,
    distribute_packed,
    distribute_plan,
    plan_bins,
    unpack_keys,
)
from .config import TUPLE_BYTES, PBConfig, effective_config
from .symbolic import SymbolicResult, symbolic_phase


@dataclass
class PBResult:
    """Product plus per-phase instrumentation from one PB-SpGEMM run."""

    c: CSRMatrix
    symbolic: SymbolicResult
    layout: BinLayout
    flop: int
    nnz_c: int
    compression_factor: float
    tuples_per_bin: np.ndarray
    radix_passes: int
    key_bits: int
    #: Wall-clock seconds of each executable phase (symbolic, expand,
    #: sort_compress, convert), each measured with its own explicit
    #: start/stop timestamps (``expand`` includes the fused
    #: distribute).  When threads or process workers ran, the keys
    #: ``expand_workers`` and ``sort_compress_workers`` additionally
    #: hold the per-thread (or per-worker-task) seconds of each
    #: parallel phase, so benchmarks can report measured numbers next
    #: to the simulator's modeled Fig. 12/13 curves.
    phase_seconds: dict = field(default_factory=dict)
    #: Backend that actually ran: ``"serial"``; ``"threads"`` when the
    #: compiled pipeline ran on more than one thread; ``"process"``
    #: when a process pool executed the numpy pipeline's expand and
    #: sort/compress (see ``PBConfig.nthreads``).
    executor_used: str = "serial"
    #: Kernel pipeline that ran: ``"compiled"``, or ``"numpy:<reason>"``
    #: naming why the compiled one could not (see :func:`compiled_blocker`).
    pipeline: str = "numpy:no_engine"


def _sort_and_compress_bin(
    layout: BinLayout,
    binid: int,
    keys: np.ndarray,
    vals: np.ndarray,
    semiring: Semiring,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sort one bin's already-packed tuples by key and merge duplicates.

    Keys arrive packed from the fused distribute
    (:func:`repro.core.binning.distribute_packed`), so the sort phase
    starts immediately on the narrow key array.
    """
    skeys, svals, passes = sort_tuples(keys, vals, key_bits=layout.key_bits)
    ckeys, cvals = compress_keyed(skeys, svals, semiring)
    crows, ccols = unpack_keys(layout, ckeys, binid)
    return crows, ccols, cvals, passes


def pb_spgemm_detailed(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    session=None,
) -> PBResult:
    """Run PB-SpGEMM and return the product with full instrumentation.

    ``session`` — a :class:`repro.session.Session` whose warm engine the
    process path runs on, without the per-call pool spawn; the pool
    stays warm for the session's next multiply.  Without one,
    ``executor="process"`` spawns and closes a private engine.  Whether
    workers run at all is decided by
    :func:`repro.parallel.executor.engine_scope`.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    cfg = effective_config(config, session)
    sr = get_semiring(semiring)
    dtypes = (a_csc.data.dtype, b_csr.data.dtype)
    with engine_scope(cfg, sr, session, dtypes) as engine:
        return _pb_run(a_csc, b_csr, sr, cfg, engine)


def config_blocker(cfg: PBConfig) -> str | None:
    """Why ``cfg`` alone keeps PB off the compiled pipeline
    (``"mapping"``: ``modulo`` bins interleave rows, so the compiled
    compress cannot write row-major CSR), or None when it allows it."""
    if cfg.bin_mapping not in ("range", "balanced"):
        return "mapping"
    return None


def compiled_blocker(cfg: PBConfig, sr: Semiring, dtypes=()) -> str | None:
    """Why a multiply under ``cfg`` over ``sr`` with operand value
    ``dtypes`` cannot run the compiled pipeline, or None when it can.

    Reasons, in the order they are checked: ``semiring`` (⊕ or ⊗ has
    no compiled op code: a custom semiring), ``dtype`` (values are not
    float64), ``mapping`` (``modulo`` bins) and ``no_engine`` (no
    compiler, a failed build, or ``REPRO_JIT_DISABLE``).  All but
    ``mapping`` come from the tier's own check,
    :func:`repro.kernels.jit.blocker`, which the column panel shares.
    """
    reason = _jit.blocker(sr, dtypes)
    if reason in (None, "no_engine"):
        reason = config_blocker(cfg) or reason
    return reason


def _pb_run(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    sr: Semiring,
    cfg: PBConfig,
    engine,
) -> PBResult:
    """The PB body on an already-resolved engine (``None`` = serial).

    Shared by :func:`pb_spgemm_detailed` and the block core's tile loop,
    which resolves one engine for a whole grid.
    """
    m, n = a_csc.shape[0], b_csr.shape[1]
    # Each phase gets its own explicit start/stop timestamp; scalar
    # entries are never derived by subtracting other entries, so
    # inserting extra keys (worker timings, future phases) can't skew
    # the bookkeeping.
    phase_seconds: dict[str, float] = {}

    # JIT warm-up hygiene: when the multiply runs the compiled pipeline,
    # pay (and record) the one-time compile/load cost under its own
    # stopwatch *before* any phase timer starts, so it is never
    # silently folded into the first multiply's phase timings.  The
    # engine loads inside compiled_blocker; warmup() is idempotent, so
    # a Session that already warmed this process reads ~0 here.
    # Falling back to numpy is silent; ``pipeline`` says why.
    t_phase = time.perf_counter()
    reason = compiled_blocker(cfg, sr, (a_csc.data.dtype, b_csr.data.dtype))
    pipeline = "compiled" if reason is None else f"numpy:{reason}"
    if pipeline == "compiled":
        _jit.warmup()
        phase_seconds["jit_warmup_s"] = time.perf_counter() - t_phase
    t_phase = time.perf_counter()

    # ---- Phase 1: symbolic -------------------------------------------------
    sym = symbolic_phase(a_csc, b_csr, cfg)
    if cfg.bin_mapping == "balanced":
        # Variable row ranges equalizing tuples per bin (Sec. V-C).
        from ..matrix.stats import flops_per_row
        from .binning import VariableBinLayout, balanced_bin_edges

        layout = VariableBinLayout(
            m,
            n,
            balanced_bin_edges(flops_per_row(a_csc, b_csr), sym.nbins),
            pack_keys=cfg.pack_keys,
        )
    else:
        layout = plan_bins(m, n, sym.nbins, sym.rows_per_bin, cfg)
    phase_seconds["symbolic"] = time.perf_counter() - t_phase

    executor_used = "serial"
    if sym.flop == 0:
        c = CSRMatrix.empty((m, n))
        tuples_per_bin = np.zeros(layout.nbins, dtype=np.int64)
        passes = 0
    elif pipeline == "compiled":
        nthreads = thread_count(cfg.nthreads, sym.flop)
        with ThreadTeam(nthreads) as team:
            c, tuples_per_bin, passes = _run_compiled(
                a_csc, b_csr, sr, cfg, sym, layout, phase_seconds, team
            )
        if nthreads > 1:
            executor_used = "threads"
    else:
        c, tuples_per_bin, passes = _run_numpy(
            a_csc, b_csr, sr, cfg, sym, layout, engine, phase_seconds
        )
        if engine is not None:
            executor_used = "process"

    nnz_c = c.nnz
    return PBResult(
        c=c,
        symbolic=sym,
        layout=layout,
        flop=sym.flop,
        nnz_c=nnz_c,
        compression_factor=sym.flop / max(nnz_c, 1),
        tuples_per_bin=tuples_per_bin,
        radix_passes=passes,
        key_bits=layout.key_bits,
        phase_seconds=phase_seconds if sym.flop else {},
        executor_used=executor_used,
        pipeline=pipeline,
    )


def _run_compiled(a_csc, b_csr, sr, cfg, sym, layout, phase_seconds, team):
    """Expand into bins, sort each bin, compress straight into CSR, on
    the threads of ``team``.

    Goes through the three kernel entry points (``expand_arena``,
    ``sort_tuples``, ``compress_keyed``) in their compiled forms, each
    called once from this thread, so per-kernel tracing sees the same
    names on both pipelines.  With more than one thread, the per-thread
    busy seconds of expand and of sort + compress (which deal the same
    bin ranges) land in ``expand_workers`` / ``sort_compress_workers``.
    """
    m, n = a_csc.shape[0], b_csr.shape[1]
    t_phase = time.perf_counter()
    local_tuples = cfg.local_bin_bytes // TUPLE_BYTES if cfg.use_local_bins else 0
    keys, vals, bin_starts = expand_arena(
        a_csc,
        b_csr,
        semiring=sr,
        per_k=sym.flops_per_k,
        layout=layout,
        local_tuples=local_tuples,
        team=team,
    )
    phase_seconds["expand"] = time.perf_counter() - t_phase
    expand_workers = team.take_seconds()

    t_phase = time.perf_counter()
    keys, vals, passes = sort_tuples(
        keys, vals, key_bits=layout.key_bits, segments=bin_starts, team=team
    )
    row_counts, c_cols, c_vals = compress_keyed(
        keys, vals, sr, layout=layout, segments=bin_starts, team=team
    )
    del keys
    phase_seconds["sort_compress"] = time.perf_counter() - t_phase
    sc_workers = team.take_seconds()

    t_phase = time.perf_counter()
    indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_counts, out=indptr[1:])
    c = CSRMatrix((m, n), indptr, c_cols, c_vals, validate=False)
    phase_seconds["convert"] = time.perf_counter() - t_phase
    if team.size > 1:
        phase_seconds["expand_workers"] = expand_workers
        phase_seconds["sort_compress_workers"] = sc_workers
    return c, np.diff(bin_starts), passes


def _run_numpy(a_csc, b_csr, sr, cfg, sym, layout, engine, phase_seconds):
    """The numpy pipeline, serial or on a process engine's workers."""
    m, n = a_csc.shape[0], b_csr.shape[1]
    sr_token = None if engine is None else semiring_token(sr)
    # Pipelined bin processing needs a process engine; "auto" turns it
    # on whenever one runs, "barrier" keeps the phase-barriered ablation.
    use_pipeline = engine is not None and cfg.pipeline == "auto"

    expand_worker_seconds: list[float] | None = None
    sc_worker_seconds: list[float] | None = None
    try:
        # ---- Phase 2: expand + propagation blocking ------------------------
        # The expanded stream is written at flop-prefix offsets into one
        # flop-sized arena (the symbolic phase knows the exact size) —
        # in shared memory under the process executor, in a private
        # allocation serially — so the stream is bit-identical no matter
        # how chunks are grouped.  The fused distribute packs keys over
        # the whole stream and bucket-places (key, value) pairs, handing
        # the sort phase already-packed keys.
        t_phase = time.perf_counter()
        if engine is not None:
            rows, cols, vals, expand_worker_seconds = engine.expand(
                a_csc, b_csr, sym.flops_per_k, sr_token, DEFAULT_CHUNK_FLOPS
            )
        else:
            rows, cols, vals = expand_arena(
                a_csc,
                b_csr,
                chunk_flops=DEFAULT_CHUNK_FLOPS,
                semiring=sr,
                per_k=sym.flops_per_k,
            )

        if use_pipeline:
            # Pipelined: compute only the placement *plan* here; the
            # gather itself interleaves with sort-task submission below,
            # so "expand" ends at the plan and "sort_compress" covers
            # the overlapped placement + sorting.
            keys, order, bin_starts = distribute_plan(layout, rows, cols)
        else:
            b_keys, b_vals, bin_starts = distribute_packed(layout, rows, cols, vals)
        tuples_per_bin = np.diff(bin_starts)
        phase_seconds["expand"] = time.perf_counter() - t_phase

        if use_pipeline:
            # ``vals`` stays alive: it is the expand arena's shm view,
            # read group by group during the pipelined placement.
            del rows, cols
        else:
            del rows, cols, vals
            if engine is not None:
                engine.free_arenas()  # binned copies are private; drop the shm views

        # ---- Phases 3+4: per-bin sort and compress -------------------------
        t_phase = time.perf_counter()
        out_rows: list[np.ndarray] = []
        out_cols: list[np.ndarray] = []
        out_vals: list[np.ndarray] = []
        passes = 0
        if use_pipeline:
            # Placement gathers interleave with sort-task submission;
            # the expand arena returns to the pool (after_place) while
            # workers are already sorting early bin groups.
            groups, passes, sc_worker_seconds = engine.pipelined_sort_compress(
                layout,
                keys,
                vals,
                order,
                bin_starts,
                sr_token,
                after_place=engine.free_expand_arena,
            )
            del vals, keys, order
            for crows, ccols, cvals in groups:
                out_rows.append(crows)
                out_cols.append(ccols)
                out_vals.append(cvals)
        elif engine is not None:
            groups, passes, sc_worker_seconds = engine.sort_compress(
                layout, bin_starts, b_keys, b_vals, sr_token
            )
            for crows, ccols, cvals in groups:
                out_rows.append(crows)
                out_cols.append(ccols)
                out_vals.append(cvals)
        else:
            for b in range(layout.nbins):
                lo, hi = int(bin_starts[b]), int(bin_starts[b + 1])
                if lo == hi:
                    continue
                crows, ccols, cvals, p = _sort_and_compress_bin(
                    layout, b, b_keys[lo:hi], b_vals[lo:hi], sr
                )
                passes = max(passes, p)
                out_rows.append(crows)
                out_cols.append(ccols)
                out_vals.append(cvals)
        phase_seconds["sort_compress"] = time.perf_counter() - t_phase
    finally:
        if engine is not None:
            # Arenas always die with the multiply; the pool outlives it
            # (engine_scope closes a private one after the whole call).
            engine.free_arenas()

    # ---- Phase 5: CSR conversion -------------------------------------------
    t_phase = time.perf_counter()
    c_rows = np.concatenate(out_rows) if out_rows else np.empty(0, dtype=INDEX_DTYPE)
    c_cols = np.concatenate(out_cols) if out_cols else np.empty(0, dtype=INDEX_DTYPE)
    c_vals = np.concatenate(out_vals) if out_vals else np.empty(0)
    if layout.mapping in ("range", "variable"):
        # Bins cover ascending disjoint row ranges: already row-major.
        rows_sorted, cols_sorted, vals_sorted = c_rows, c_cols, c_vals
    else:
        order = np.lexsort((c_cols, c_rows))
        rows_sorted, cols_sorted, vals_sorted = c_rows[order], c_cols[order], c_vals[order]
    counts = np.bincount(rows_sorted, minlength=m) if len(rows_sorted) else np.zeros(m, dtype=np.int64)
    indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    c = CSRMatrix((m, n), indptr, cols_sorted, vals_sorted, validate=False)
    phase_seconds["convert"] = time.perf_counter() - t_phase
    if expand_worker_seconds is not None:
        phase_seconds["expand_workers"] = expand_worker_seconds
    if sc_worker_seconds is not None:
        phase_seconds["sort_compress_workers"] = sc_worker_seconds

    return c, tuples_per_bin, passes


def pb_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    session=None,
) -> CSRMatrix:
    """C = A · B by propagation-blocked outer-product ESC (the paper's
    PB-SpGEMM).  Returns canonical CSR; see :func:`pb_spgemm_detailed`
    for instrumentation and the ``session`` parameter.
    """
    return pb_spgemm_detailed(a_csc, b_csr, semiring, config, session=session).c
