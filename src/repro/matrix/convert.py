"""Conversions between COO, CSR and CSC.

All conversions are vectorized; the COO→compressed paths coalesce
duplicates by summation (the SpGEMM merge semantics) and establish the
canonical strictly-increasing-within-segment ordering.
"""

from __future__ import annotations

import numpy as np

from . import base


def _compress_pointer(sorted_major: np.ndarray, ndim: int) -> np.ndarray:
    """Build an indptr array from sorted major-axis indices."""
    counts = np.bincount(sorted_major, minlength=ndim)
    indptr = np.zeros(ndim + 1, dtype=base.INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _narrow_sort_key(indices: np.ndarray, ndim: int) -> np.ndarray:
    """Sort key for a stable argsort of index values in ``[0, ndim)``.

    Cast to the narrowest unsigned dtype so ``np.argsort(kind="stable")``
    takes numpy's C radix path (≤ 16-bit integers) instead of timsort —
    the same trick the panel column kernels use; the permutation is
    identical, only faster to compute.
    """
    if ndim <= 1 << 8:
        return indices.astype(np.uint8)
    if ndim <= 1 << 16:
        return indices.astype(np.uint16)
    return indices


def coo_to_csr(coo):
    """COO → canonical CSR (row-major sort, duplicates summed)."""
    from .csr import CSRMatrix

    c = coo.coalesce()
    indptr = _compress_pointer(c.rows, coo.shape[0])
    return CSRMatrix(coo.shape, indptr, c.cols, c.vals, validate=False)


def coo_to_csc(coo):
    """COO → canonical CSC (column-major sort, duplicates summed)."""
    from .csc import CSCMatrix

    t = coo.transpose().coalesce()  # sorts by (col, row) of the original
    indptr = _compress_pointer(t.rows, coo.shape[1])
    return CSCMatrix(coo.shape, indptr, t.cols, t.vals, validate=False)


def csr_to_coo(csr):
    """CSR → COO by expanding the row pointer (entries stay canonical)."""
    from .coo import COOMatrix

    rows = np.repeat(
        np.arange(csr.shape[0], dtype=base.INDEX_DTYPE), np.diff(csr.indptr)
    )
    return COOMatrix(csr.shape, rows, csr.indices, csr.data, validate=False)


def csc_to_coo(csc):
    """CSC → COO by expanding the column pointer (column-major order)."""
    from .coo import COOMatrix

    cols = np.repeat(
        np.arange(csc.shape[1], dtype=base.INDEX_DTYPE), np.diff(csc.indptr)
    )
    return COOMatrix(csc.shape, csc.indices, cols, csc.data, validate=False)


def _transpose(ptr, idx, data, nminor: int):
    """``(ptr, major ids, data)`` of a compressed structure transposed.

    Stable: within each minor segment, entries keep their stream order,
    so major ids ascend.  Runs the compiled counting transpose
    (histogram, prefix sum, scatter; :func:`repro.kernels.jit.transpose_jit`)
    whenever the engine is available and the kernel can serve the
    arrays (int64 indices, 8-byte values); otherwise a stable argsort
    on the minor id, which numpy implements as a radix sort for ids
    narrow enough (:func:`_narrow_sort_key`).  Both give the same
    arrays bit for bit.
    """
    from ..kernels import jit

    if jit.jit_available():
        out = jit.transpose_jit(ptr, idx, data, nminor)
        if out is not None:
            return out
    order = np.argsort(_narrow_sort_key(idx, nminor), kind="stable")
    major = np.repeat(
        np.arange(len(ptr) - 1, dtype=base.INDEX_DTYPE), np.diff(ptr)
    )
    return _compress_pointer(idx, nminor), major[order], data[order]


def csr_to_csc(csr):
    """CSR → CSC by a stable counting transpose (Gustavson's two-pass
    histogram transpose: count entries per column, prefix-sum into a
    pointer, then place entries); see :func:`_transpose`."""
    from .csc import CSCMatrix

    indptr, rows, data = _transpose(
        csr.indptr, csr.indices, csr.data, csr.shape[1]
    )
    return CSCMatrix(csr.shape, indptr, rows, data, validate=False)


def csc_to_csr(csc):
    """CSC → CSR; mirror of :func:`csr_to_csc`."""
    from .csr import CSRMatrix

    indptr, cols, data = _transpose(
        csc.indptr, csc.indices, csc.data, csc.shape[0]
    )
    return CSRMatrix(csc.shape, indptr, cols, data, validate=False)
