"""Masked SpGEMM: compute only the outputs selected by a mask.

Several of the paper's motivating applications never need the full
product: triangle counting only needs C(i,j) where (i,j) is already an
edge; colored-intersection search restricts to query pairs.  Masking
inside the ESC pipeline — *before* the sort — drops every tuple whose
(row, col) is outside the mask, shrinking the sort/compress phases (and
their ``2·b·flop`` traffic) to the mask's support.

The implementation reuses the vectorized expand and per-bin machinery;
the mask filter itself is one sorted-membership test per chunk.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .compress import compress_sorted
from .outer_expand import DEFAULT_CHUNK_FLOPS, expand_chunks
from .radix import sort_tuples


def _mask_keys(mask: CSRMatrix) -> np.ndarray:
    """Sorted packed (row, col) keys of the mask's support."""
    rows = np.repeat(
        np.arange(mask.shape[0], dtype=INDEX_DTYPE), mask.row_nnz()
    )
    return rows * mask.shape[1] + mask.indices  # row-major: already sorted


def masked_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    mask: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    complement: bool = False,
    chunk_flops: int = DEFAULT_CHUNK_FLOPS,
) -> CSRMatrix:
    """C = (A · B) ⊙ mask — only entries on the mask's support.

    Parameters
    ----------
    a_csc, b_csr:
        Operands in PB-SpGEMM's formats.
    mask:
        Structural mask with the output's shape; values are ignored.
    semiring:
        Value algebra for the product.
    complement:
        Keep entries *off* the mask instead (the ``!M`` masks of
        GraphBLAS-style algorithms).
    chunk_flops:
        Expansion chunk budget (peak memory bound).
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    out_shape = (a_csc.shape[0], b_csr.shape[1])
    if mask.shape != out_shape:
        raise ShapeError(
            f"mask shape {mask.shape} does not match output shape {out_shape}"
        )
    sr = get_semiring(semiring)
    m, n = out_shape
    mkeys = _mask_keys(mask)

    kept_rows: list[np.ndarray] = []
    kept_cols: list[np.ndarray] = []
    kept_vals: list[np.ndarray] = []
    for rows, cols, vals in expand_chunks(
        a_csc, b_csr, chunk_flops=chunk_flops, semiring=sr
    ):
        keys = rows * n + cols
        idx = np.searchsorted(mkeys, keys)
        idx[idx >= len(mkeys)] = max(len(mkeys) - 1, 0)
        on_mask = (
            (mkeys[idx] == keys) if len(mkeys) else np.zeros(len(keys), dtype=bool)
        )
        keep = ~on_mask if complement else on_mask
        if np.any(keep):
            kept_rows.append(rows[keep])
            kept_cols.append(cols[keep])
            kept_vals.append(vals[keep])

    if not kept_rows:
        return CSRMatrix.empty(out_shape)
    rows = np.concatenate(kept_rows)
    cols = np.concatenate(kept_cols)
    vals = np.concatenate(kept_vals)

    col_bits = max(int(n - 1).bit_length(), 1)
    keys = (rows.astype(np.uint64) << np.uint64(col_bits)) | cols.astype(np.uint64)
    row_bits = max(int(m - 1).bit_length(), 1)
    keys, vals, _ = sort_tuples(keys, vals, key_bits=row_bits + col_bits)
    col_mask = np.uint64((1 << col_bits) - 1)
    s_rows = (keys >> np.uint64(col_bits)).astype(INDEX_DTYPE)
    s_cols = (keys & col_mask).astype(INDEX_DTYPE)
    c_rows, c_cols, c_vals = compress_sorted(s_rows, s_cols, vals, sr)

    counts = np.bincount(c_rows, minlength=m)
    indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(out_shape, indptr, c_cols, c_vals, validate=False)
