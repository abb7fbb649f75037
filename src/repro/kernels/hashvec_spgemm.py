"""HashVecSpGEMM — column SpGEMM with vectorized hash probing [Nagasaka et al.].

The hardware algorithm probes several hash slots at once with vector
registers.  The faithful Python analogue keeps an explicit
open-addressing table (numpy arrays for keys and values) per output
column and resolves *batches* of insertions per probe round: every
pending entry computes its slot, collision-free entries land in one
vectorized scatter, colliding entries advance to the next probe
distance and retry.  All per-round work is whole-array numpy — the
vector-register structure of the original, at array granularity.

``column_backend="panel"`` (default) runs the shared panel-vectorized
path (:mod:`repro.kernels.column_panel`; compiled whenever the
compiled tier can serve the multiply, numpy otherwise); the per-column
probing above is retained as ``column_backend="loop"`` for ablation.  Both produce
bit-identical canonical CSR (the loop backend pre-merges each batch
with :meth:`~repro.semiring.Semiring.segment_reduce` and folds across
batches in k order, from each entry's first value).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .column_panel import panel_spgemm, resolve_column_backend, stack_column_stream

_EMPTY = np.int64(-1)
#: Multiplier of the classic Fibonacci/multiplicative hash used by the
#: reference implementation family.
_HASH_SCALE = np.uint64(107)


def _table_size(upper: int) -> int:
    """Smallest power of two >= 2 * upper (load factor <= 0.5); 0 if no work.

    ``upper`` is the column's flop upper bound on nnz(C(:, j)).  A
    non-positive bound means the column generates no tuples; returning 0
    tells the caller to skip the column outright instead of allocating
    (and draining) a table that can only stay empty.
    """
    if upper <= 0:
        return 0
    return 1 << max(1, (2 * int(upper) - 1).bit_length())


def _probe_insert(keys, vals, table_keys, table_vals, sr):
    """Insert (keys, vals) into the open-addressing table, batched.

    Linear probing; each round handles all still-unplaced entries with
    whole-array operations.  Duplicate keys *within* one round are
    pre-merged so the scatter is conflict-free.
    """
    mask = np.uint64(len(table_keys) - 1)
    # Pre-merge duplicates in this batch (stable sort + the one fold).
    keys, vals = sr.segment_reduce(keys, vals)

    slots = ((keys.astype(np.uint64) * _HASH_SCALE) & mask).astype(np.int64)
    pending = np.arange(len(keys))
    while len(pending):
        s = slots[pending]
        occupant = table_keys[s]
        hit = occupant == keys[pending]
        empty = occupant == _EMPTY
        # Accumulate into hits.
        if np.any(hit):
            hs = s[hit]
            table_vals[hs] = sr.add(table_vals[hs], vals[pending[hit]])
        # Claim empty slots; first writer of a duplicate slot wins, the
        # rest retry next round (detected by re-reading after the scatter).
        claim = pending[empty]
        if len(claim):
            cs = s[empty]
            # Deduplicate competing claims on the same slot this round.
            uniq_slots, first_idx = np.unique(cs, return_index=True)
            winners = claim[first_idx]
            table_keys[uniq_slots] = keys[winners]
            table_vals[uniq_slots] = vals[winners]
            placed = np.zeros(len(claim), dtype=bool)
            placed[first_idx] = True
            losers = claim[~placed]
        else:
            losers = np.empty(0, dtype=np.int64)
        missed = pending[~(hit | empty)]
        pending = np.concatenate([missed, losers])
        slots[pending] = (slots[pending] + 1) & int(mask)  # linear probe


def hashvec_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    column_backend: str | None = None,
    config=None,
) -> CSRMatrix:
    """C = A · B with batched open-addressing hash probing; canonical CSR."""
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    backend = resolve_column_backend(config, column_backend)
    sr = get_semiring(semiring)
    if backend == "panel":
        return panel_spgemm(a_csc, b_csr, sr)

    m, n = a_csc.shape[0], b_csr.shape[1]
    b_csc = b_csr.to_csc()
    a_colnnz = a_csc.col_nnz()

    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    for j in range(n):
        ks, bvals = b_csc.col(j)
        if len(ks) == 0:
            continue
        upper = int(a_colnnz[ks].sum())  # flop upper bound on nnz(C(:,j))
        size = _table_size(upper)
        if size == 0:
            continue
        table_keys = np.full(size, _EMPTY, dtype=INDEX_DTYPE)
        table_vals = np.full(size, sr.add_identity, dtype=VALUE_DTYPE)
        for k, bval in zip(ks, bvals):
            rows_k, avals_k = a_csc.col(int(k))
            if len(rows_k) == 0:
                continue
            prods = sr.multiply(avals_k, np.broadcast_to(bval, avals_k.shape))
            _probe_insert(rows_k, prods, table_keys, table_vals, sr)
        filled = table_keys != _EMPTY
        rows_j = table_keys[filled]
        vals_j = table_vals[filled]
        order = np.argsort(rows_j)
        out_rows.append(rows_j[order])
        out_cols.append(np.full(len(rows_j), j, dtype=INDEX_DTYPE))
        out_vals.append(vals_j[order])

    return stack_column_stream(m, n, out_rows, out_cols, out_vals)
