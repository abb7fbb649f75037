"""Column-wise Expand-Sort-Compress SpGEMM [Dalton/Olson/Bell 2015].

The GPU-origin ESC strategy: materialize the *entire* expanded matrix
:math:`\\hat{C}` in output-column-major order, sort the flat tuple
stream by (col, row), then compress duplicates.  Its access pattern is
the middle row of the paper's Table II — A is still read irregularly
(d times), and :math:`\\hat{C}` costs an extra write + read of
``flop`` tuples compared to accumulator-based column algorithms.

The expansion is produced in column chunks
(:func:`~.outer_expand.iter_expand_columns`) and each chunk's packed
``(row << col_bits) | col`` keys and values are written straight into
flop-sized arenas at their column-prefix offsets, so the peak extra
memory is one chunk rather than the whole stream twice.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .compress import compress_sorted
from .outer_expand import column_flops, iter_expand_columns
from .radix import sort_tuples


def esc_column_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    config=None,
) -> CSRMatrix:
    """C = A · B by whole-matrix expand, sort, compress; canonical CSR.

    ``config`` is accepted for the uniform kernel signature of
    :mod:`repro.kernels.dispatch`; the kernel has no option to read.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    sr = get_semiring(semiring)
    m, n = a_csc.shape[0], b_csr.shape[1]

    # Pack (row, col) into one key.  Row-major key order gives CSR directly.
    col_bits = max(int(n - 1).bit_length(), 1)
    row_bits = max(int(m - 1).bit_length(), 1)
    b_csc = b_csr.to_csc()
    flop = int(column_flops(a_csc, b_csc).sum())
    if flop == 0:
        return CSRMatrix.empty((m, n))
    keys = np.empty(flop, dtype=np.uint64)
    vals = np.empty(flop, dtype=VALUE_DTYPE)
    shift = np.uint64(col_bits)
    for o_lo, o_hi, c_rows, c_cols, c_vals in iter_expand_columns(a_csc, b_csr, sr):
        # Fused pack-into-arena: one pass, no full-size row/col temps.
        keys[o_lo:o_hi] = (c_rows.astype(np.uint64) << shift) | c_cols.astype(
            np.uint64
        )
        vals[o_lo:o_hi] = c_vals
    keys, vals, _passes = sort_tuples(keys, vals, key_bits=row_bits + col_bits)
    col_mask = np.uint64((1 << col_bits) - 1)
    s_rows = (keys >> np.uint64(col_bits)).astype(INDEX_DTYPE)
    s_cols = (keys & col_mask).astype(INDEX_DTYPE)
    c_rows, c_cols, c_vals = compress_sorted(s_rows, s_cols, vals, sr)

    counts = np.bincount(c_rows, minlength=m)
    indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix((m, n), indptr, c_cols, c_vals, validate=False)
