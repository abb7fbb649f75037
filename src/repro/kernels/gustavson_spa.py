"""Column SpGEMM with a dense SPA accumulator (Gilbert/Moler/Schreiber).

The SPA (sparse accumulator) keeps a dense value array indexed by row id
plus an occupancy list.  For each output column j, the columns of A
selected by B(:, j) are scattered into the SPA and the occupied slots
are harvested in sorted order.  This is Gustavson's algorithm with the
simplest possible merger; its data-access pattern is the "Column
SpGEMM" row of the paper's Table II (irregular reads of A, streamed B
and C).

``column_backend="panel"`` (default) runs the shared panel-vectorized
path (:mod:`repro.kernels.column_panel`; compiled whenever the
compiled tier can serve the multiply, numpy otherwise) — the SPA's
dense-array cost story lives in :mod:`repro.costmodel` and is
unchanged.  The loop
backend stores each slot's first value raw and ``ufunc.at``-scatters
the rest in k order — :meth:`repro.semiring.Semiring.fold`'s order —
so both backends (and PB) are bit-identical.  ``column_backend="loop"``
keeps the per-column dense scatter for ablation.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .._util import sorted_unique
from .column_panel import panel_spgemm, resolve_column_backend, stack_column_stream


def spa_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    column_backend: str | None = None,
    config=None,
) -> CSRMatrix:
    """C = A · B column by column with a dense accumulator; canonical CSR."""
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    backend = resolve_column_backend(config, column_backend)
    sr = get_semiring(semiring)
    if backend == "panel":
        return panel_spgemm(a_csc, b_csr, sr)

    m, n = a_csc.shape[0], b_csr.shape[1]
    b_csc = b_csr.to_csc()

    spa = np.full(m, sr.add_identity, dtype=VALUE_DTYPE)
    occupied = np.zeros(m, dtype=bool)

    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []

    for j in range(n):
        ks, bvals = b_csc.col(j)
        if len(ks) == 0:
            continue
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
            continue
        idx = sorted_unique(np.concatenate(touched))
        out_rows.append(idx)
        out_cols.append(np.full(len(idx), j, dtype=INDEX_DTYPE))
        out_vals.append(spa[idx])
        # Reset only the touched slots — O(col work), not O(m); a slot's
        # next first touch overwrites its value.
        occupied[idx] = False

    return stack_column_stream(m, n, out_rows, out_cols, out_vals)
