"""Conversions between COO and the compressed formats.

CSR and CSC are two orientations of one compressed layout
(:class:`~repro.matrix.compressed.CompressedMatrix`), so each conversion
is written once for both: COO → compressed (:func:`coo_to_compressed`),
compressed → COO (:func:`compressed_to_coo`) and the flip between the
orientations (:func:`flip`, a stable counting transpose).  The public
``coo_to_csr``, ``coo_to_csc``, ``csr_to_coo``, ``csc_to_coo``,
``csr_to_csc`` and ``csc_to_csr`` are bindings of these three.

All conversions are vectorized; the COO→compressed path coalesces
duplicates by summation (the SpGEMM merge semantics) and establishes the
canonical strictly-increasing-within-segment ordering.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import base
from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix


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


def coo_to_compressed(coo, cls):
    """COO → canonical ``cls`` (:class:`CSRMatrix` or :class:`CSCMatrix`):
    entries sorted by (major, minor) index, duplicates summed."""
    c = (coo.transpose() if cls.major else coo).coalesce()
    indptr = _compress_pointer(c.rows, coo.shape[cls.major])
    return cls(coo.shape, indptr, c.cols, c.vals, validate=False)


def compressed_to_coo(mat):
    """CSR/CSC → COO by expanding the pointer (entries keep the
    matrix's major-axis order)."""
    major = np.repeat(
        np.arange(mat.shape[mat.major], dtype=base.INDEX_DTYPE), np.diff(mat.indptr)
    )
    rows, cols = (mat.indices, major) if mat.major else (major, mat.indices)
    return COOMatrix(mat.shape, rows, cols, mat.data, validate=False)


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


def flip(mat):
    """CSR → CSC or CSC → CSR, the same matrix in the other orientation,
    by a stable counting transpose (Gustavson's two-pass histogram
    transpose: count entries per minor index, prefix-sum into a pointer,
    then place entries); see :func:`_transpose`."""
    indptr, major, data = _transpose(
        mat.indptr, mat.indices, mat.data, mat.shape[1 - mat.major]
    )
    return mat.flipped(mat.shape, indptr, major, data, validate=False)


coo_to_csr = partial(coo_to_compressed, cls=CSRMatrix)
coo_to_csc = partial(coo_to_compressed, cls=CSCMatrix)
csr_to_coo = csc_to_coo = compressed_to_coo
csr_to_csc = csc_to_csr = flip
