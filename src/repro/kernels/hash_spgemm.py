"""HashSpGEMM — column SpGEMM with a hash-table accumulator [Nagasaka et al.].

For each output column C(:, j) a hash table keyed by row id accumulates
the scaled entries of the selected A columns; the table is then drained
and sorted to emit the column.  Complexity O(flop) for ER matrices
(assuming few collisions) — no log factor, which is why the paper's
conclusion names Hash the best performer for compression factors > 4.

Two executable backends share the algorithm's access pattern (and byte
accounting — Table II row 1 is computed in :mod:`repro.costmodel`, not
here):

* ``column_backend="panel"`` (default) — the panel-vectorized path
  (:mod:`repro.kernels.column_panel`): gather a panel of output columns
  in one fancy-index pass, stably radix-sort it by row id, and collapse
  duplicate (row, col) runs with :meth:`repro.semiring.Semiring.fold`,
  a sequential left fold from each run's first value in the same
  k-ascending order the hash table accumulates, so results are
  bit-identical to the loop backend and to PB.  The sort and fold run
  as one compiled call per panel whenever the compiled tier can serve
  the multiply, and on numpy otherwise.
* ``column_backend="loop"`` — the faithful per-column transcription: a
  Python ``dict`` (a genuine open-addressing hash table) per output
  column, kept for ablation and as the property-suite ground truth.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .column_panel import panel_spgemm, resolve_column_backend, stack_column_stream


def hash_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    column_backend: str | None = None,
    config=None,
) -> CSRMatrix:
    """C = A · B with per-column hash accumulation; canonical CSR output.

    ``column_backend`` overrides the :class:`~repro.core.PBConfig`
    field when given; ``config`` supplies it otherwise (threaded
    through :func:`repro.kernels.spgemm` and the planner).
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    backend = resolve_column_backend(config, column_backend)
    sr = get_semiring(semiring)
    if backend == "panel":
        return panel_spgemm(a_csc, b_csr, sr)

    add_scalar = sr.add_scalar
    m, n = a_csc.shape[0], b_csr.shape[1]
    b_csc = b_csr.to_csc()

    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    for j in range(n):
        ks, bvals = b_csc.col(j)
        if len(ks) == 0:
            continue
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
        if not table:
            continue
        rows_j = np.fromiter(table.keys(), dtype=INDEX_DTYPE, count=len(table))
        vals_j = np.fromiter(table.values(), dtype=VALUE_DTYPE, count=len(table))
        order = np.argsort(rows_j)  # drain the table in row order
        out_rows.append(rows_j[order])
        out_cols.append(np.full(len(rows_j), j, dtype=INDEX_DTYPE))
        out_vals.append(vals_j[order])

    return stack_column_stream(m, n, out_rows, out_cols, out_vals)
