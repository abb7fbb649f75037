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

Two kernel tiers run these phases through one body (:func:`_run_bins`)
with one segment contract — expand returns ``(packed_keys, vals,
bin_starts)``, the sort orders each bin in place, the compress folds
every bin to ``(row_counts, indices, data)`` — and give bit-identical
products (:attr:`PBResult.pipeline` says which tier ran).

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
* **numpy**: the arena expand and one fused pack + counting distribute
  build the same binned stream, a Python loop radix-sorts each bin in
  place, and one vectorized pass folds every bin at once.  It is the
  bit-identical reference and runs for ``modulo`` mapping, custom
  semirings, non-float64 values, and wherever the engine is missing.

Under ``executor="process"`` the numpy pipeline runs on a process
engine's workers instead (:func:`_run_engine`).

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
from ..kernels.compress import _compress_segments, compress_keyed
from ..kernels.outer_expand import DEFAULT_CHUNK_FLOPS, expand_arena
from ..kernels.radix import _sort_segments, sort_tuples
from ..parallel.executor import engine_scope, semiring_token
from ..parallel.threads import ThreadTeam, thread_count
# unpack_keys is unused here but stays importable: the e2e benchmark
# traces it under this module's name.
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
    elif engine is not None:
        c, tuples_per_bin, passes = _run_engine(
            a_csc, b_csr, sr, cfg, sym, layout, engine, phase_seconds
        )
        executor_used = "process"
    else:
        compiled = pipeline == "compiled"
        nthreads = thread_count(cfg.nthreads, sym.flop) if compiled else 1
        with ThreadTeam(nthreads) as team:
            c, tuples_per_bin, passes = _run_bins(
                a_csc, b_csr, sr, cfg, sym, layout, phase_seconds, team, compiled
            )
        if nthreads > 1:
            executor_used = "threads"

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


def _run_bins(a_csc, b_csr, sr, cfg, sym, layout, phase_seconds, team, compiled):
    """Alg. 2 on either kernel tier: expand into bins, sort each bin in
    place, fold every bin straight to row counts, columns and values,
    and build the row pointer with one cumsum.

    The compiled tier calls the compiled forms of ``expand_arena``,
    ``sort_tuples`` and ``compress_keyed`` once each, on the threads of
    ``team`` (with more than one thread, the per-thread busy seconds
    land in ``expand_workers`` / ``sort_compress_workers``).  The numpy
    tier builds the same binned stream with the arena expand and
    :func:`distribute_packed`, then runs the numpy segment forms.
    """
    m, n = a_csc.shape[0], b_csr.shape[1]
    t_phase = time.perf_counter()
    if compiled:
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
        sort, compress = sort_tuples, compress_keyed
    else:
        stream = expand_arena(a_csc, b_csr, semiring=sr, per_k=sym.flops_per_k)
        keys, vals, bin_starts = distribute_packed(layout, *stream)
        del stream
        sort, compress = _sort_segments, _compress_segments
    phase_seconds["expand"] = time.perf_counter() - t_phase
    expand_workers = team.take_seconds()

    t_phase = time.perf_counter()
    keys, vals, passes = sort(
        keys, vals, key_bits=layout.key_bits, segments=bin_starts, team=team
    )
    row_counts, c_cols, c_vals = compress(
        keys, vals, sr, layout=layout, segments=bin_starts, team=team
    )
    del keys, vals
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


def _run_engine(a_csc, b_csr, sr, cfg, sym, layout, engine, phase_seconds):
    """The numpy pipeline on a process engine's workers: they expand
    into a shared arena and sort, compress and unpack groups of bins
    (placed as they are submitted under ``cfg.pipeline == "auto"``);
    the parent distributes, then concatenates the groups in bin order.
    """
    m, n = a_csc.shape[0], b_csr.shape[1]
    sr_token = semiring_token(sr)
    use_pipeline = cfg.pipeline == "auto"
    try:
        t_phase = time.perf_counter()
        rows, cols, vals, expand_worker_seconds = engine.expand(
            a_csc, b_csr, sym.flops_per_k, sr_token, DEFAULT_CHUNK_FLOPS
        )
        if use_pipeline:
            # Only the placement *plan* here; the gather interleaves
            # with the sort-task submission, so "expand" ends at the
            # plan and "sort_compress" covers placement + sorting.
            keys, order, bin_starts = distribute_plan(layout, rows, cols)
        else:
            b_keys, b_vals, bin_starts = distribute_packed(layout, rows, cols, vals)
        phase_seconds["expand"] = time.perf_counter() - t_phase
        if use_pipeline:
            del rows, cols
        else:
            del rows, cols, vals
            engine.free_arenas()  # binned copies are private; drop the shm views

        t_phase = time.perf_counter()
        if use_pipeline:
            # ``vals`` is the expand arena's shm view, read group by
            # group during the placement; after_place returns the arena
            # to the pool while workers already sort early groups.
            groups, passes, sc_worker_seconds = engine.pipelined_sort_compress(
                layout,
                keys,
                vals,
                order,
                bin_starts,
                sr_token,
                after_place=engine.free_expand_arena,
            )
            del keys, vals, order
        else:
            groups, passes, sc_worker_seconds = engine.sort_compress(
                layout, bin_starts, b_keys, b_vals, sr_token
            )
        phase_seconds["sort_compress"] = time.perf_counter() - t_phase
    finally:
        # Arenas always die with the multiply; the pool outlives it
        # (engine_scope closes a private one after the whole call).
        engine.free_arenas()

    t_phase = time.perf_counter()
    c_rows, c_cols, c_vals = (np.concatenate(part) for part in zip(*groups))
    if layout.mapping == "modulo":
        # Modulo bins interleave rows; the other mappings are row-major.
        order = np.lexsort((c_cols, c_rows))
        c_rows, c_cols, c_vals = c_rows[order], c_cols[order], c_vals[order]
    indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(c_rows, minlength=m), out=indptr[1:])
    c = CSRMatrix((m, n), indptr, c_cols, c_vals, validate=False)
    phase_seconds["convert"] = time.perf_counter() - t_phase
    phase_seconds["expand_workers"] = expand_worker_seconds
    phase_seconds["sort_compress_workers"] = sc_worker_seconds
    return c, np.diff(bin_starts), passes


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
