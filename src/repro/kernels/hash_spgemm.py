"""HashSpGEMM — column SpGEMM with a hash-table accumulator [Nagasaka et al.].

For each output column C(:, j) a hash table keyed by row id accumulates
the scaled entries of the selected A columns; the table is then drained
and sorted to emit the column.  Complexity O(flop) for ER matrices
(assuming few collisions) — no log factor, which is why the paper's
conclusion names Hash the best performer for compression factors > 4.

``hash_spgemm`` runs the shared panel kernel
(:func:`~repro.kernels.column_panel.panel_spgemm`): gather a panel of
output columns in one pass, stably sort it by row id, and collapse
duplicate (row, col) runs with :meth:`repro.semiring.Semiring.fold`,
a sequential left fold from each run's first value in the same
k-ascending order the hash table accumulates, so results are
bit-identical to the reference below and to PB.  The panel runs
compiled whenever the compiled tier can serve the multiply, and on
numpy otherwise.  The algorithm's byte accounting (Table II row 1)
is computed in :mod:`repro.costmodel`, not here.

:func:`hash_spgemm_loop` is the faithful per-column transcription: a
Python ``dict`` (a genuine open-addressing hash table) per output
column, kept as the property-suite ground truth.
"""

from __future__ import annotations

import numpy as np

from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring
from .column_panel import column_loop_spgemm, panel_spgemm

hash_spgemm = panel_spgemm


def _dict_merge(a_csc, sr):
    """Per-column merger: a ``dict`` keyed by row id, drained in row
    order."""
    add_scalar = sr.add_scalar

    def merge(ks, bvals):
        table: dict[int, float] = {}
        for k, bval in zip(ks, bvals):
            rows_k, avals_k = a_csc.col(int(k))
            if len(rows_k) == 0:
                continue
            prods = sr.multiply(avals_k, np.broadcast_to(bval, avals_k.shape))
            for r, v in zip(rows_k.tolist(), prods.tolist()):
                if r in table:
                    table[r] = add_scalar(table[r], v)
                else:
                    table[r] = v
        rows_j = np.fromiter(table.keys(), dtype=INDEX_DTYPE, count=len(table))
        vals_j = np.fromiter(table.values(), dtype=VALUE_DTYPE, count=len(table))
        order = np.argsort(rows_j)  # drain the table in row order
        return rows_j[order], vals_j[order]

    return merge


def hash_spgemm_loop(
    a_csc: CSCMatrix, b_csr: CSRMatrix, semiring: Semiring | str = PLUS_TIMES
) -> CSRMatrix:
    """Reference C = A · B with one ``dict`` hash table per output column."""
    return column_loop_spgemm(a_csc, b_csr, semiring, _dict_merge)
