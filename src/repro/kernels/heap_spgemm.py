"""HeapSpGEMM — column SpGEMM with a heap merger [Azad et al. 2016].

For each output column C(:, j), the algorithm k-way-merges the selected
columns of A (those picked by the nonzeros of B(:, j)) through a binary
heap keyed on row index, accumulating values of equal rows as they pop
out adjacent.  Complexity O(flop · log d) for ER matrices — the log d
heap factor the paper cites — and the output emerges already sorted, so
no post-sort is needed.

``heap_spgemm`` runs the shared panel kernel
(:func:`~repro.kernels.column_panel.panel_spgemm`; compiled whenever
the compiled tier can serve the multiply, numpy otherwise); the heap's
modeled cost — Table II's access pattern plus the log d sift factor —
stays in :mod:`repro.costmodel`, untouched by the execution strategy.
:func:`heap_spgemm_loop` is the faithful ``heapq`` transcription, kept
as a reference: the heap pops equal rows in source (k-ascending) order
and folds them onto the first one, the order of
:meth:`repro.semiring.Semiring.fold`, so it is bit-identical to the
panel and to PB.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring
from .column_panel import column_loop_spgemm, panel_spgemm

heap_spgemm = panel_spgemm


def _heap_merge(a_csc, sr):
    """Per-column merger: k-way heap merge of A(:, k) for k in ks,
    scaled by bvals."""
    add_scalar = sr.add_scalar

    def merge(ks, bvals):
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

    return merge


def heap_spgemm_loop(
    a_csc: CSCMatrix, b_csr: CSRMatrix, semiring: Semiring | str = PLUS_TIMES
) -> CSRMatrix:
    """Reference C = A · B with one ``heapq`` merge per output column."""
    return column_loop_spgemm(a_csc, b_csr, semiring, _heap_merge)
