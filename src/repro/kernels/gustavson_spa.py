"""Column SpGEMM with a dense SPA accumulator (Gilbert/Moler/Schreiber).

The SPA (sparse accumulator) keeps a dense value array indexed by row id
plus an occupancy list.  For each output column j, the columns of A
selected by B(:, j) are scattered into the SPA and the occupied slots
are harvested in sorted order.  This is Gustavson's algorithm with the
simplest possible merger; its data-access pattern is the "Column
SpGEMM" row of the paper's Table II (irregular reads of A, streamed B
and C).

``spa_spgemm`` runs the shared panel kernel
(:func:`~repro.kernels.column_panel.panel_spgemm`; compiled whenever
the compiled tier can serve the multiply, numpy otherwise) — the SPA's
dense-array cost story lives in :mod:`repro.costmodel` and is
unchanged.  :func:`spa_spgemm_loop` keeps the per-column dense scatter
as a reference: it stores each slot's first value raw and
``ufunc.at``-scatters the rest in k order —
:meth:`repro.semiring.Semiring.fold`'s order — so it is bit-identical
to the panel and to PB.
"""

from __future__ import annotations

import numpy as np

from ..matrix.base import VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring
from .._util import sorted_unique
from .column_panel import column_loop_spgemm, panel_spgemm

spa_spgemm = panel_spgemm


def _spa_merge(a_csc, sr):
    """Per-column merger: one dense accumulator and occupancy mask of
    length m, shared by all columns."""
    m = a_csc.shape[0]
    spa = np.full(m, sr.add_identity, dtype=VALUE_DTYPE)
    occupied = np.zeros(m, dtype=bool)

    def merge(ks, bvals):
        touched: list[np.ndarray] = []
        for k, bval in zip(ks, bvals):
            rows_k, avals_k = a_csc.col(int(k))
            if len(rows_k) == 0:
                continue
            prod = sr.multiply(avals_k, np.broadcast_to(bval, avals_k.shape))
            # A slot's first value is stored raw, as every fold's run
            # head is (0.0 + -0.0 would lose the sign of a zero); the
            # rest ⊕ into it in k order.
            seen = occupied[rows_k]
            fresh = ~seen
            spa[rows_k[fresh]] = prod[fresh]
            sr.add_ufunc.at(spa, rows_k[seen], prod[seen])
            occupied[rows_k] = True
            touched.append(rows_k)
        if not touched:
            return (), ()
        idx = sorted_unique(np.concatenate(touched))
        # Reset only the touched slots — O(col work), not O(m); a slot's
        # next first touch overwrites its value.
        occupied[idx] = False
        return idx, spa[idx]

    return merge


def spa_spgemm_loop(
    a_csc: CSCMatrix, b_csr: CSRMatrix, semiring: Semiring | str = PLUS_TIMES
) -> CSRMatrix:
    """Reference C = A · B column by column with a dense accumulator."""
    return column_loop_spgemm(a_csc, b_csr, semiring, _spa_merge)
