"""HeapSpGEMM — column SpGEMM with a heap merger [Azad et al. 2016].

For each output column C(:, j), the algorithm k-way-merges the selected
columns of A (those picked by the nonzeros of B(:, j)) through a binary
heap keyed on row index, accumulating values of equal rows as they pop
out adjacent.  Complexity O(flop · log d) for ER matrices — the log d
heap factor the paper cites — and the output emerges already sorted, so
no post-sort is needed.

``column_backend="panel"`` (default) runs the shared panel-vectorized
path (:mod:`repro.kernels.column_panel`; compiled whenever the
compiled tier can serve the multiply, numpy otherwise); the heap's
modeled cost — Table II's access pattern plus the log d sift factor —
stays in :mod:`repro.costmodel`, untouched by the execution strategy.
The heap pops equal rows in source (k-ascending) order and folds them
onto the first one, the order of :meth:`repro.semiring.Semiring.fold`,
so both backends (and PB) are bit-identical.  ``column_backend="loop"``
keeps the faithful ``heapq`` transcription for ablation.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .column_panel import panel_spgemm, resolve_column_backend, stack_column_stream


def _merge_column(a_csc, ks, bvals, sr):
    """K-way heap merge of A(:, k) for k in ks, scaled by bvals."""
    # Heap items: (row, source_index). Each source is one selected A column.
    heap: list[tuple[int, int]] = []
    ptrs = []  # per source: (row_array, val_array, next_position, scale)
    for k, bval in zip(ks, bvals):
        rows_k, avals_k = a_csc.col(int(k))
        if len(rows_k):
            src = len(ptrs)
            ptrs.append([rows_k, avals_k, 0, bval])
            heap.append((int(rows_k[0]), src))
    heapq.heapify(heap)

    add_scalar = sr.add_scalar
    out_rows: list[int] = []
    out_vals: list[float] = []
    while heap:
        row, src = heapq.heappop(heap)
        rows_k, avals_k, pos, bval = ptrs[src]
        val = sr.multiply(avals_k[pos : pos + 1], np.asarray([bval]))[0]
        if out_rows and out_rows[-1] == row:
            out_vals[-1] = add_scalar(out_vals[-1], val)
        else:
            out_rows.append(row)
            out_vals.append(val)
        pos += 1
        ptrs[src][2] = pos
        if pos < len(rows_k):
            heapq.heappush(heap, (int(rows_k[pos]), src))
    return out_rows, out_vals


def heap_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    column_backend: str | None = None,
    config=None,
) -> CSRMatrix:
    """C = A · B with per-column heap merging; canonical CSR output."""
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    backend = resolve_column_backend(config, column_backend)
    sr = get_semiring(semiring)
    if backend == "panel":
        return panel_spgemm(a_csc, b_csr, sr)

    m, n = a_csc.shape[0], b_csr.shape[1]
    b_csc = b_csr.to_csc()

    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    for j in range(n):
        ks, bvals = b_csc.col(j)
        if len(ks) == 0:
            continue
        rows_j, vals_j = _merge_column(a_csc, ks, bvals, sr)
        if rows_j:
            out_rows.append(np.asarray(rows_j, dtype=INDEX_DTYPE))
            out_cols.append(np.full(len(rows_j), j, dtype=INDEX_DTYPE))
            out_vals.append(np.asarray(vals_j, dtype=VALUE_DTYPE))

    return stack_column_stream(m, n, out_rows, out_cols, out_vals)
