"""Structural and elementwise operations on the sparse formats.

These are the supporting operations the examples and generators need
(transpose, add, scale, prune, triangular extraction) — kept separate
from the SpGEMM kernels, which live in :mod:`repro.kernels`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import base
from .compressed import AXES, CompressedMatrix
from .coo import COOMatrix
from .csr import CSRMatrix


def transpose(mat):
    """Transpose of any repro sparse matrix, in that matrix's own format."""
    if isinstance(mat, COOMatrix):
        return mat.transpose()
    if isinstance(mat, CompressedMatrix):
        # Flip to the other orientation, then reread it transposed.
        return (mat.to_csr() if mat.major else mat.to_csc()).transpose()
    raise TypeError(f"unsupported matrix type {type(mat).__name__}")


def _as_canonical_coo(mat) -> COOMatrix:
    if isinstance(mat, COOMatrix):
        return mat.coalesce()
    return mat.to_coo()


def allclose(a, b, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    """Numeric equality of two sparse matrices, format-independent.

    Entries present in only one operand are compared against zero, so a
    stored explicit zero equals a structurally absent entry.
    """
    if a.shape != b.shape:
        return False
    ca, cb = _as_canonical_coo(a), _as_canonical_coo(b)
    n = a.shape[1]
    ka = ca.rows * n + ca.cols
    kb = cb.rows * n + cb.cols
    keys = np.union1d(ka, kb)
    va = np.zeros(len(keys), dtype=base.VALUE_DTYPE)
    vb = np.zeros(len(keys), dtype=base.VALUE_DTYPE)
    va[np.searchsorted(keys, ka)] = ca.vals
    vb[np.searchsorted(keys, kb)] = cb.vals
    return bool(np.allclose(va, vb, rtol=rtol, atol=atol))


def add(a, b, alpha: float = 1.0, beta: float = 1.0) -> CSRMatrix:
    """``alpha * A + beta * B`` as canonical CSR."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot add {a.shape} and {b.shape}")
    ca, cb = _as_canonical_coo(a), _as_canonical_coo(b)
    rows = np.concatenate([ca.rows, cb.rows])
    cols = np.concatenate([ca.cols, cb.cols])
    vals = np.concatenate([alpha * ca.vals, beta * cb.vals])
    return COOMatrix(a.shape, rows, cols, vals, validate=False).to_csr()


def scale(mat, alpha: float):
    """Multiply all stored values by ``alpha``, preserving format."""
    out = mat.copy()
    if isinstance(out, COOMatrix):
        out.vals *= alpha
    else:
        out.data *= alpha
    return out


def extract_diagonal(mat) -> np.ndarray:
    """The main diagonal as a dense vector."""
    coo = _as_canonical_coo(mat)
    n = min(mat.shape)
    out = np.zeros(n, dtype=base.VALUE_DTYPE)
    on_diag = coo.rows == coo.cols
    out[coo.rows[on_diag]] = coo.vals[on_diag]
    return out


def prune(mat, threshold: float = 0.0) -> CSRMatrix:
    """Drop entries with ``|value| <= threshold``; returns canonical CSR.

    With the default threshold this removes explicit zeros (e.g. from
    numerical cancellation during SpGEMM).
    """
    coo = _as_canonical_coo(mat)
    keep = np.abs(coo.vals) > threshold
    return COOMatrix(
        mat.shape, coo.rows[keep], coo.cols[keep], coo.vals[keep], validate=False
    ).to_csr()


def triu(mat, k: int = 0) -> CSRMatrix:
    """Upper-triangular part (entries with col - row >= k) as CSR."""
    coo = _as_canonical_coo(mat)
    keep = coo.cols - coo.rows >= k
    return COOMatrix(
        mat.shape, coo.rows[keep], coo.cols[keep], coo.vals[keep], validate=False
    ).to_csr()


def tril(mat, k: int = 0) -> CSRMatrix:
    """Lower-triangular part (entries with col - row <= k) as CSR."""
    coo = _as_canonical_coo(mat)
    keep = coo.cols - coo.rows <= k
    return COOMatrix(
        mat.shape, coo.rows[keep], coo.cols[keep], coo.vals[keep], validate=False
    ).to_csr()


def major_slice(mat, start: int, stop: int):
    """Major segments ``start:stop`` — rows of a CSR, columns of a CSC —
    as a new matrix of the same format, reduced along that axis.

    This is the A-partitioning primitive (row panels of a CSR) of the
    partitioned (NUMA) PB-SpGEMM variant in paper Sec. V-D and of the
    tiled engine, and its B-partitioning primitive (column panels of a
    CSC; :mod:`repro.core.tiled`).  Cheap: a segment's entries are
    contiguous, so ``indices`` / ``data`` of the slice are *views* into
    the parent arrays — only the small rebased ``indptr`` is allocated.
    Callers must not mutate the result in place.
    """
    major = mat.major
    if not (0 <= start <= stop <= mat.shape[major]):
        raise ShapeError(
            f"{AXES[major]} slice [{start}, {stop}) out of range for shape {mat.shape}"
        )
    lo, hi = mat.indptr[start], mat.indptr[stop]
    shape = list(mat.shape)
    shape[major] = stop - start
    return type(mat)(
        shape,
        mat.indptr[start : stop + 1] - lo,
        mat.indices[lo:hi],
        mat.data[lo:hi],
        validate=False,
    )


row_slice = col_slice = major_slice
