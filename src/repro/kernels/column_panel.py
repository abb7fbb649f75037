"""Panel-vectorized column SpGEMM: the one kernel of the four column
baselines, and the column loop of their references.

``heap``, ``hash``, ``hashvec`` and ``spa`` (and the public names
:func:`repro.heap_spgemm` and so on) all run :func:`panel_spgemm`.
Their faithful per-output-column transcriptions (``dict`` hash table,
``heapq`` merge, dense SPA scatter, batched open-addressing probes)
stay as named references (``hash_spgemm_loop`` and so on) that the
property suites and the ``column`` suite's floors compare against; at
paper scale their runtimes measure the Python interpreter, not the
memory system the paper's Table II models.  They share one loop,
:func:`column_loop_spgemm`, and each keeps only its accumulator.

The panel runs in four steps:

1. **Panelize** — group output columns into *panels* sized by a tuple
   budget (``chunk_ranges`` over the per-output-column flop counts), so
   one panel's gathered tuples bound the working set.
2. **Gather** — expand each panel's tuples with one fancy-index pass
   over the CSC pointer arrays (:func:`~.outer_expand.expand_cols_range`
   — the same column-major access pattern the loop references perform
   one column at a time, so the Table II byte accounting is unchanged).
3. **Sort** — stably sort the panel by row id alone (numpy's C radix
   for narrow integer keys); the gathered stream is column-major, so
   ties keep ascending-column order and the panel lands in full
   (row, col) order without packed keys.
4. **Reduce** — detect duplicate (row, col) runs by adjacent
   comparison and ⊕-fold them with :meth:`repro.semiring.Semiring.fold`
   — a sequential left fold from the run head in k-ascending stream
   order, the loop accumulators' insertion order and PB's compress
   order, so every strategy and PB agree bit for bit.

Steps 2-4 run as one compiled call per panel whenever the compiled
tier can serve the multiply (:func:`repro.kernels.jit.blocker`: a
registry semiring, float64 values, a working engine) and the output
fits 32-bit indices, exactly as PB picks its compiled pipeline;
otherwise they run on numpy, the bit-identical reference and fallback
(``jit.disabled()`` or ``REPRO_JIT_DISABLE=1`` forces it).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
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

#: The compiled panel's tuple budget over the numpy one.  It buffers
#: one 16-byte (val, col) record per tuple where the numpy panel
#: materializes ~34 bytes (expand + repeat + argsort + sorted copies),
#: so 4x the tuples hold about the same bytes, and fewer panels
#: amortize the per-panel m-length assembly passes.
COMPILED_PANEL_SCALE = 4


def column_loop_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str,
    accumulator,
) -> CSRMatrix:
    """C = A · B one output column at a time, for the loop references.

    ``accumulator(a_csc, sr)`` builds the per-column merger (any state
    it keeps across columns, such as a dense SPA, is allocated once
    there); ``merge(ks, bvals)`` then returns the rows of C(:, j),
    ascending and unique, with their ⊕-folded values, given the
    selected columns ``ks`` of A and their scales ``bvals`` from
    B(:, j).

    The fragments arrive output-column-major, so the stream is already
    sorted by (col, row) and one *stable* sort on the row key alone
    yields canonical CSR order (ties keep stream order, i.e. ascending
    col).  Rows are cast to the narrowest unsigned dtype so
    ``np.argsort(kind="stable")`` takes numpy's C radix-sort path
    (≤ 16-bit integers) instead of timsort.  The accumulators fold
    outside :meth:`~repro.semiring.Semiring.fold`, so their NaN results
    are canonicalized here (:func:`~repro.semiring.canonical_nan`).
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    sr = get_semiring(semiring)
    m, n = a_csc.shape[0], b_csr.shape[1]
    b_csc = b_csr.to_csc()
    merge = accumulator(a_csc, sr)

    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    for j in range(n):
        ks, bvals = b_csc.col(j)
        if len(ks) == 0:
            continue
        rows_j, vals_j = merge(ks, bvals)
        if len(rows_j):
            out_rows.append(np.asarray(rows_j, dtype=INDEX_DTYPE))
            out_cols.append(np.full(len(rows_j), j, dtype=INDEX_DTYPE))
            out_vals.append(np.asarray(vals_j, dtype=VALUE_DTYPE))

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
    config=None,
    panel_tuples: int = DEFAULT_PANEL_TUPLES,
) -> CSRMatrix:
    """C = A · B via panel gather + segmented semiring reduction.

    The kernel of ``heap``, ``hash``, ``hashvec`` and ``spa``.  It
    produces the same canonical CSR — bit-for-bit, for every shipped
    semiring — as their loop references and PB, because the panel
    gather preserves their k-ascending accumulation order and
    :meth:`~repro.semiring.Semiring.fold` folds duplicates sequentially
    in that order.  ``config`` is accepted for the uniform kernel
    signature of :mod:`repro.kernels.dispatch`; the kernel has no
    option to read.

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
    (:func:`repro.kernels.jit.blocker`) and the output fits 32-bit
    indices (:func:`repro.kernels.jit.panel_context`), one compiled
    call per panel replaces the gather, stable row sort, run
    detection, segmented fold, compaction and row histogram, at
    uint16 indices when both extents fit 65536 and uint32 otherwise,
    over :data:`COMPILED_PANEL_SCALE` times the tuple budget: same
    stable permutation, same sequential fold order, bit-identical
    output.  Otherwise the numpy path runs, silently.
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
        # The kernel reads A's rows at its index width: cast once here.
        a_rows = a_csc.indices.astype(jit_ctx.index_dtype)
        panel_tuples = panel_tuples * COMPILED_PANEL_SCALE
    elif m <= 1 << 8:
        a_rows = a_csc.indices.astype(np.uint8)
    elif m <= 1 << 16:
        a_rows = a_csc.indices.astype(np.uint16)
    else:
        a_rows = a_csc.indices
    panel_rows: list[np.ndarray] = []
    panel_cols: list[np.ndarray] = []
    panel_vals: list[np.ndarray] = []
    panel_counts: list[np.ndarray] = []
    for j_lo, j_hi in chunk_ranges(per_col, panel_tuples):
        if jit_ctx is not None:
            # One compiled call expands, ⊗-multiplies, row-groups and
            # ⊕-folds the panel straight off the CSC structure — the
            # materialized expand/repeat stream below is never built.
            ntuples = int(per_col[j_lo:j_hi].sum())
            if ntuples == 0:
                continue
            rows_p, cols_p, reduced, cnt = jit_ctx.process(
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
            np.arange(j_lo, j_hi, dtype=col_dtype), per_col[j_lo:j_hi]
        )
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
