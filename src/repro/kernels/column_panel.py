"""Panel-vectorized column SpGEMM (the shared fast path of the four
column baselines).

The per-output-column loop backends (``dict`` hash table, ``heapq``
merge, dense SPA scatter, batched open-addressing probes) are faithful
algorithm transcriptions, but at paper scale their runtimes measure the
Python interpreter, not the memory system the paper's Table II models.
This module is the vectorized execution strategy all four share:

1. **Panelize** — group output columns into *panels* sized by a tuple
   budget (``chunk_ranges`` over the per-output-column flop counts), so
   one panel's gathered tuples bound the working set.
2. **Gather** — expand each panel's tuples with one fancy-index pass
   over the CSC pointer arrays (:func:`~.outer_expand.expand_cols_range`
   — the same column-major access pattern the loop backends perform one
   column at a time, so the Table II byte accounting is unchanged).
3. **Sort** — stably sort the panel by row id alone (numpy's C radix
   for narrow integer keys); the gathered stream is column-major, so
   ties keep ascending-column order and the panel lands in full
   (row, col) order without packed keys.
4. **Reduce** — detect duplicate (row, col) runs by adjacent
   comparison and ⊕-fold them with :meth:`repro.semiring.Semiring.fold`
   — a sequential left fold from the run head in k-ascending stream
   order, the loop accumulators' insertion order and PB's compress
   order, so every strategy and PB agree bit for bit.

Steps 3-4 run as one compiled call per panel whenever the compiled
tier can serve the multiply (:func:`repro.kernels.jit.blocker`: a
registry semiring, float64 values, a working engine), exactly as PB
picks its compiled pipeline; otherwise they run on numpy, the
bit-identical reference and fallback (``jit.disabled()`` or
``REPRO_JIT_DISABLE=1`` forces it).

The four kernels keep their loop implementations reachable as
``column_backend="loop"`` (ablation + ground truth for the
cross-backend property suite).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError
from ..matrix.base import INDEX_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, canonical_nan, get_semiring
from .outer_expand import chunk_ranges, column_flops, expand_cols_range

#: Default panel budget in tuples (≈ 8 MB of gathered (row, col, val)
#: working set): large enough to amortize numpy call overhead across
#: panels, small enough that the per-panel permutation gathers stay
#: cache-resident — measured fastest in the 125K–500K range on the
#: ER scale-16 acceptance workload, and well below the full flop
#: stream on paper-scale inputs.
DEFAULT_PANEL_TUPLES = 250_000

#: Values ``column_backend`` may take, shared by the four kernels,
#: :class:`repro.core.PBConfig` validation, and the CLI.
COLUMN_BACKENDS = ("panel", "loop")


def resolve_column_backend(config, column_backend) -> str:
    """Resolve the execution strategy for one column-kernel call.

    An explicit ``column_backend`` wins; otherwise the ``PBConfig``
    field applies; otherwise ``"panel"``.  The panel budget is always
    :data:`DEFAULT_PANEL_TUPLES`.
    """
    if column_backend is None and config is not None:
        column_backend = config.column_backend
    if column_backend is None:
        column_backend = "panel"
    if column_backend not in COLUMN_BACKENDS:
        raise ConfigError(
            f"column_backend must be one of {COLUMN_BACKENDS}, "
            f"got {column_backend!r}"
        )
    return column_backend


def stack_column_stream(m, n, out_rows, out_cols, out_vals) -> CSRMatrix:
    """Canonical CSR from per-column/per-panel fragments.

    Fragments arrive output-column-major with rows ascending inside each
    column and no duplicates — exactly what every column backend (loop
    and panel) emits — so the stream is already sorted by (col, row) and
    one *stable* sort on the row key alone yields canonical CSR order
    (ties keep stream order, i.e. ascending col).  Rows are cast to the
    narrowest unsigned dtype so ``np.argsort(kind="stable")`` takes
    numpy's C radix-sort path (≤ 16-bit integers) instead of timsort —
    on the near-duplicate-free products column algorithms are built
    for, this final placement otherwise dominates the whole assembly
    (a 64-bit lexsort of ~nnz(C) tuples).  Shared by all four kernels'
    ``column_backend="loop"`` paths (the panel path scatters panels
    into the final CSR directly); either assembly of the same fragment
    stream is bit-identical.  The loop accumulators fold outside
    :meth:`~repro.semiring.Semiring.fold`, so their NaN results are
    canonicalized here (:func:`~repro.semiring.canonical_nan`).
    """
    if not out_rows:
        return CSRMatrix.empty((m, n))
    rows = np.concatenate(out_rows)
    cols = np.concatenate(out_cols)
    vals = canonical_nan(np.concatenate(out_vals))
    if m <= 1 << 8:
        sort_keys = rows.astype(np.uint8)
    elif m <= 1 << 16:
        sort_keys = rows.astype(np.uint16)
    else:
        sort_keys = rows
    order = np.argsort(sort_keys, kind="stable")
    counts = np.bincount(rows, minlength=m)
    indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix((m, n), indptr, cols[order], vals[order], validate=False)


def panel_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    panel_tuples: int = DEFAULT_PANEL_TUPLES,
) -> CSRMatrix:
    """C = A · B via panel gather + segmented semiring reduction.

    Produces the same canonical CSR — bit-for-bit, for every shipped
    semiring — as the per-column loop accumulators and PB, because the
    panel gather preserves their k-ascending accumulation order and
    :meth:`~repro.semiring.Semiring.fold` folds duplicates sequentially
    in that order.

    The panel stream is column-major, so one *stable* sort on the row
    id alone puts a panel in full (row, col) order: ties keep stream
    order, which is ascending col.  Rows are cast to the narrowest
    unsigned dtype so ``np.argsort(kind="stable")`` takes numpy's C
    radix path (≤ 16-bit integers); duplicate runs are then detected by
    comparing adjacent (row, col) pairs directly — no packed keys — and
    ⊕-folded through :meth:`repro.semiring.Semiring.fold` (run heads
    selected by the boolean mask, never a materialized start-index
    array).
    Each panel's reduced output is therefore already in CSR order for
    its column range, and panels scatter straight into the final
    ``indices``/``data`` arrays at offsets computed from per-panel row
    histograms (one vectorized counting placement, ascending
    addresses), skipping the global concatenate-and-re-sort a
    column-major stream would need.

    When the compiled tier can serve the multiply
    (:func:`repro.kernels.jit.blocker`) and the shape fits its
    envelope, one compiled call per panel replaces the stable row
    sort, run detection, segmented fold, compaction and row histogram
    (:func:`repro.kernels.jit.panel_context`): same stable
    permutation, same sequential fold order, bit-identical output.
    Otherwise the numpy path runs, silently.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    sr = get_semiring(semiring)
    m, n = a_csc.shape[0], b_csr.shape[1]
    b_csc = b_csr.to_csc()
    per_col = column_flops(a_csc, b_csc)
    if int(per_col.sum()) == 0:
        return CSRMatrix.empty((m, n))

    if n <= 1 << 16:
        col_dtype = np.uint16
    elif n <= 1 << 32:
        col_dtype = np.uint32
    else:
        col_dtype = INDEX_DTYPE
    from . import jit

    jit_ctx = None
    if jit.blocker(sr, (a_csc.data.dtype, b_csc.data.dtype)) is None:
        jit_ctx = jit.panel_context(m, n, sr, col_dtype)
    if jit_ctx is not None:
        # The compiled kernel consumes one index dtype for rows and
        # cols — uint16 when the output square fits 65536 (half the
        # scatter traffic), uint32 otherwise.  Casting the row indices
        # once here makes every panel's gather emit that dtype directly.
        a_rows = a_csc.indices.astype(jit_ctx.index_dtype)
        panel_col_dtype = jit_ctx.index_dtype
        use_fused = jit_ctx.supports_fused
        if use_fused:
            # The fused kernel buffers one 16-byte (val, col) record per
            # tuple where the numpy path materializes ~34 bytes (expand
            # + repeat + argsort + sorted copies), so 4x the tuple
            # budget holds the per-panel working set at the same byte
            # size — and fewer panels amortize the per-panel m-length
            # assembly passes.
            panel_tuples = panel_tuples * 4
    else:
        use_fused = False
        if m <= 1 << 8:
            a_rows = a_csc.indices.astype(np.uint8)
        elif m <= 1 << 16:
            a_rows = a_csc.indices.astype(np.uint16)
        else:
            a_rows = a_csc.indices
        panel_col_dtype = col_dtype
    panel_rows: list[np.ndarray] = []
    panel_cols: list[np.ndarray] = []
    panel_vals: list[np.ndarray] = []
    panel_counts: list[np.ndarray] = []
    for j_lo, j_hi in chunk_ranges(per_col, panel_tuples):
        if use_fused:
            # One compiled call expands, ⊗-multiplies, row-groups and
            # ⊕-folds the panel straight off the CSC structure — the
            # materialized expand/repeat stream below is never built.
            ntuples = int(per_col[j_lo:j_hi].sum())
            if ntuples == 0:
                continue
            rows_p, cols_p, reduced, cnt = jit_ctx.process_fused(
                a_csc.indptr, a_rows, a_csc.data,
                b_csc.indptr, b_csc.indices, b_csc.data,
                j_lo, j_hi, ntuples,
            )
            panel_rows.append(rows_p)
            panel_cols.append(cols_p)
            panel_vals.append(reduced)
            panel_counts.append(cnt)
            continue
        rows, _, vals = expand_cols_range(
            a_csc, b_csc, j_lo, j_hi, sr, row_indices=a_rows, with_cols=False
        )
        if len(rows) == 0:
            continue
        # Rebuild output-column ids from the symbolic per-column tuple
        # counts in a narrow dtype (absolute ids — n fits the dtype).
        cols = np.repeat(
            np.arange(j_lo, j_hi, dtype=panel_col_dtype), per_col[j_lo:j_hi]
        )
        if jit_ctx is not None:
            rows_p, cols_p, reduced, cnt = jit_ctx.process(rows, cols, vals)
            panel_rows.append(rows_p)
            panel_cols.append(cols_p)
            panel_vals.append(reduced)
            panel_counts.append(cnt)
            continue
        order = np.argsort(rows, kind="stable")
        # np.take over fancy indexing: same gather, ~25% less per-call
        # overhead on these cache-resident panel arrays.
        rows_s = np.take(rows, order)
        cols_s = np.take(cols, order)
        run_start = np.empty(len(rows_s), dtype=bool)
        run_start[0] = True
        np.not_equal(rows_s[1:], rows_s[:-1], out=run_start[1:])
        np.logical_or(
            run_start[1:], cols_s[1:] != cols_s[:-1], out=run_start[1:]
        )
        reduced = sr.fold(run_start, np.take(vals, order))
        # One explicit widening to the platform index dtype: bincount
        # and the assembly's base-offset gather would otherwise each
        # re-cast the narrow row ids internally, once per panel.
        rows_p = np.compress(run_start, rows_s).astype(np.intp)
        panel_rows.append(rows_p)
        panel_cols.append(np.compress(run_start, cols_s))
        panel_vals.append(reduced)
        panel_counts.append(np.bincount(rows_p, minlength=m))

    if not panel_rows:
        return CSRMatrix.empty((m, n))
    total = np.zeros(m, dtype=INDEX_DTYPE)
    for cnt in panel_counts:
        total += cnt
    indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    np.cumsum(total, out=indptr[1:])
    nnz = int(indptr[-1])
    # Scatter columns into an arena of the *panel* column dtype and
    # widen to the canonical index dtype once at the end: each panel's
    # writes touch most of the arena's cache lines sparsely (a few
    # entries per row), so narrowing the scattered element shrinks the
    # write-allocate traffic of every panel pass; the final widening is
    # one sequential copy.
    ind_narrow = np.empty(nnz, dtype=panel_cols[0].dtype)
    data = np.empty(nnz, dtype=panel_vals[0].dtype)
    # Counting placement: panel p's entries of row r land at
    # indptr[r] + (rows r emitted by panels < p) + local rank.  Each
    # panel is row-sorted, so "local rank" is just the element's offset
    # from its row's first slot in the panel — base[r] folds all three
    # terms into one m-length vector and the scatter writes ascend.
    prior = np.zeros(m, dtype=INDEX_DTYPE)
    start = np.zeros(m, dtype=INDEX_DTYPE)  # start[0] stays 0 throughout
    base = np.empty(m, dtype=INDEX_DTYPE)
    ramp = np.arange(max(len(r) for r in panel_rows), dtype=INDEX_DTYPE)
    for rows_p, cols_p, vals_p, cnt in zip(
        panel_rows, panel_cols, panel_vals, panel_counts
    ):
        np.cumsum(cnt[:-1], out=start[1:])
        np.subtract(indptr[:-1], start, out=base)
        base += prior
        dest = np.take(base, rows_p)
        dest += ramp[: len(rows_p)]
        ind_narrow[dest] = cols_p
        data[dest] = vals_p
        prior += cnt
    indices = ind_narrow.astype(INDEX_DTYPE, copy=False)
    return CSRMatrix((m, n), indptr, indices, data, validate=False)
