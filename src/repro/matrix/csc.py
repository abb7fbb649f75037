"""Compressed Sparse Column (CSC) matrix.

The column-major orientation of :class:`~repro.matrix.compressed.CompressedMatrix`:
``indptr[j]:indptr[j+1]`` delimits column ``j``'s row indices and
values.  PB-SpGEMM takes its first operand A in CSC so that
``A(:, k)`` — one column — streams contiguously during the outer
product (paper Alg. 2).  Everything but the column-named accessors
lives on the base class.
"""

from __future__ import annotations

from .compressed import CompressedMatrix
from .csr import CSRMatrix


class CSCMatrix(CompressedMatrix):
    """Canonical CSC sparse matrix over float64 values / int64 indices."""

    __slots__ = ()
    major = 1
    flipped = CSRMatrix

    #: Per-column nonzero counts, i.e. ``nnz(A(:, k))`` for every k.
    col_nnz = CompressedMatrix.segment_nnz
    #: Row indices and values of column ``j`` (views, not copies).
    col = CompressedMatrix.segment


CSRMatrix.flipped = CSCMatrix
