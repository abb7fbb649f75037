"""Fused batch SpGEMM: many small multiplies as one PB run.

The paper's PB-SpGEMM amortizes bandwidth across *tuples*; this module
applies the same logic across *multiplies*.  A batch of independent
products ``C_i = A_i · B_i`` is block-diagonally stacked::

    diag(A_1 … A_p) · diag(B_1 … B_p)  =  diag(A_1·B_1 … A_p·B_p)

and executed as **one** PB pipeline over the stacked operands — one
symbolic pass, one expand stream, one distribute, one set of per-bin
sorts — so the per-call fixed costs (phase setup, numpy dispatch,
allocation) are paid once per wave instead of once per request.  On a
small-multiply mix this is where a request batcher's throughput win
comes from.

Bit-identity
------------
Each output block is **bit-identical** to the standalone product, for
every semiring, because no PB phase reorders values *within* a
``(row, col)`` group:

* Expansion visits the stacked columns in order; a block's columns are
  contiguous, so its tuple stream is exactly the standalone stream
  (with offset coordinates).
* Distribute uses a stable counting placement and the per-bin radix
  sort is a stable LSD sort on ``(row, col)`` keys; tuples of distinct
  blocks never share a key (disjoint row ranges), so within any key
  group the value order equals the expansion order — the standalone
  order.
* Compress folds duplicate runs left to right, i.e. in that same
  order, so floating-point reductions associate identically.

The binning geometry of the stacked run differs from the standalone
runs (more rows, more flops, possibly wider keys), but binning only
partitions the key space — it never reorders values within a key.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES
from .config import PBConfig

__all__ = ["stack_pairs", "split_product", "fused_multiply_detailed"]


def stack_pairs(pairs):
    """Block-diagonally stack coerced ``(A as CSC, B as CSR)`` pairs.

    Returns ``(a_stacked, b_stacked, meta)`` where ``meta`` carries the
    per-block offsets :func:`split_product` needs to take the stacked
    product apart again.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("stack_pairs needs at least one (a, b) pair")
    for a, b in pairs:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")

    m_off = k_off = n_off = 0
    a_nnz = b_nnz = 0
    a_indptr = [np.zeros(1, dtype=INDEX_DTYPE)]
    a_indices, a_data = [], []
    b_indptr = [np.zeros(1, dtype=INDEX_DTYPE)]
    b_indices, b_data = [], []
    row_offsets, col_offsets, shapes = [], [], []
    for a, b in pairs:
        m, k = a.shape
        n = b.shape[1]
        row_offsets.append(m_off)
        col_offsets.append(n_off)
        shapes.append((m, n))
        a_indptr.append(a.indptr[1:].astype(INDEX_DTYPE, copy=True) + a_nnz)
        a_indices.append(a.indices + m_off)
        a_data.append(a.data)
        b_indptr.append(b.indptr[1:].astype(INDEX_DTYPE, copy=True) + b_nnz)
        b_indices.append(b.indices + n_off)
        b_data.append(b.data)
        m_off += m
        k_off += k
        n_off += n
        a_nnz += a.nnz
        b_nnz += b.nnz

    a_stacked = CSCMatrix(
        (m_off, k_off),
        np.concatenate(a_indptr),
        np.concatenate(a_indices).astype(INDEX_DTYPE, copy=False),
        np.concatenate(a_data),
        validate=False,
    )
    b_stacked = CSRMatrix(
        (k_off, n_off),
        np.concatenate(b_indptr),
        np.concatenate(b_indices).astype(INDEX_DTYPE, copy=False),
        np.concatenate(b_data),
        validate=False,
    )
    meta = {"row_offsets": row_offsets, "col_offsets": col_offsets, "shapes": shapes}
    return a_stacked, b_stacked, meta


def split_product(c: CSRMatrix, meta) -> list[CSRMatrix]:
    """Slice the stacked product back into per-pair CSR blocks.

    Rows of block *i* live at ``[row_offsets[i], row_offsets[i] + m_i)``
    and its columns carry the ``col_offsets[i]`` shift; both are undone
    with vectorized arithmetic.  The returned matrices own their arrays
    (copies), so the stacked product can be dropped immediately.
    """
    out = []
    for r0, c0, (m, n) in zip(
        meta["row_offsets"], meta["col_offsets"], meta["shapes"]
    ):
        lo, hi = int(c.indptr[r0]), int(c.indptr[r0 + m])
        out.append(
            CSRMatrix(
                (m, n),
                c.indptr[r0 : r0 + m + 1] - lo,
                c.indices[lo:hi] - c0,
                c.data[lo:hi].copy(),
                validate=False,
            )
        )
    return out


def fused_multiply_detailed(
    pairs,
    semiring=PLUS_TIMES,
    config: PBConfig | None = None,
    session=None,
):
    """Run a batch of coerced ``(A_csc, B_csr)`` pairs as one PB multiply.

    Returns ``(products, detail)`` — the per-pair CSR products in order
    plus the :class:`~repro.core.pb_spgemm.PBResult` of the single
    stacked run (its ``phase_seconds`` are *wave-level*: shared by every
    request in the batch).  ``session`` is passed to
    :func:`~repro.core.pb_spgemm.pb_spgemm_detailed`.
    """
    from .pb_spgemm import pb_spgemm_detailed

    a_stacked, b_stacked, meta = stack_pairs(pairs)
    detail = pb_spgemm_detailed(
        a_stacked, b_stacked, semiring=semiring, config=config, session=session
    )
    return split_product(detail.c, meta), detail
