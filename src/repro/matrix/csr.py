"""Compressed Sparse Row (CSR) matrix.

The row-major orientation of :class:`~repro.matrix.compressed.CompressedMatrix`:
``indptr[i]:indptr[i+1]`` delimits row ``i``'s column indices and
values.  PB-SpGEMM takes its second operand B in CSR so that
``B(k, :)`` — one row — streams contiguously during the outer product
(paper Alg. 2), and emits the output C in CSR.  Everything but the
row-named accessors and the reference SpMV lives on the base class.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import base
from .compressed import CompressedMatrix


class CSRMatrix(CompressedMatrix):
    """Canonical CSR sparse matrix over float64 values / int64 indices."""

    __slots__ = ()
    major = 0  # ``flipped`` (CSCMatrix) is set by .csc

    #: Per-row nonzero counts, i.e. ``nnz(B(i, :))`` for every i.
    row_nnz = CompressedMatrix.segment_nnz
    #: Column indices and values of row ``i`` (views, not copies).
    row = CompressedMatrix.segment

    def density(self) -> float:
        m, n = self.shape
        return self.nnz / (m * n) if m and n else 0.0

    def dot_dense(self, x: np.ndarray) -> np.ndarray:
        """CSR · dense vector/matrix (reference SpMV / SpMM)."""
        x = np.asarray(x, dtype=base.VALUE_DTYPE)
        if x.shape[0] != self.shape[1]:
            raise ShapeError(f"cannot multiply {self.shape} by {x.shape}")
        expanded = (
            self.data[:, None] * x[self.indices] if x.ndim == 2 else self.data * x[self.indices]
        )
        out_shape = (self.shape[0],) + x.shape[1:]
        out = np.zeros(out_shape, dtype=base.VALUE_DTYPE)
        rows = np.repeat(np.arange(self.shape[0]), self.row_nnz())
        np.add.at(out, rows, expanded)
        return out
