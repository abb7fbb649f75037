"""Structural statistics feeding the cost model and Table VI.

The paper's performance model is a function of a handful of matrix
properties: ``nnz``, mean degree ``d``, the multiplication's ``flop``
count, the output size ``nnz(C)``, and the compression factor
``cf = flop / nnz(C)`` (Sec. II).  This module computes all of them —
``flop`` with the paper's O(n) symbolic recipe (Alg. 3), ``nnz(C)``
either exactly (chunked distinct-count over the expanded tuples) or by
column sampling for matrices too large to expand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import distinct_count, sorted_unique
from ..errors import ShapeError
from .csc import CSCMatrix
from .csr import CSRMatrix


@dataclass(frozen=True)
class MatrixStats:
    """Summary of a single sparse matrix (one row of Table VI's left half)."""

    shape: tuple[int, int]
    nnz: int
    mean_degree: float  # d(A) = nnz / n
    max_row_nnz: int
    max_col_nnz: int
    row_nnz_p99: float
    degree_second_moment: float  # E[deg^2] over columns; drives flop for A^2


@dataclass(frozen=True)
class MultiplyStats:
    """Summary of one multiplication C = A·B (Table VI's right half)."""

    flop: int
    nnz_c: int
    compression_factor: float
    flops_per_k: np.ndarray  # length-k contribution of each outer product
    exact: bool  # False when nnz_c was estimated by sampling

    @property
    def cf(self) -> float:
        return self.compression_factor


def matrix_stats(mat) -> MatrixStats:
    """Compute :class:`MatrixStats` for a CSR/CSC/COO matrix."""
    csr = mat if isinstance(mat, CSRMatrix) else mat.to_csr()
    row_nnz = csr.row_nnz()
    col_nnz = np.bincount(csr.indices, minlength=csr.shape[1]) if csr.nnz else np.zeros(
        csr.shape[1], dtype=np.int64
    )
    n_cols = max(csr.shape[1], 1)
    return MatrixStats(
        shape=csr.shape,
        nnz=csr.nnz,
        mean_degree=csr.nnz / max(csr.shape[0], 1),
        max_row_nnz=int(row_nnz.max()) if len(row_nnz) else 0,
        max_col_nnz=int(col_nnz.max()) if len(col_nnz) else 0,
        row_nnz_p99=float(np.percentile(row_nnz, 99)) if len(row_nnz) else 0.0,
        degree_second_moment=float(np.sum(col_nnz.astype(np.float64) ** 2)) / n_cols,
    )


def flops_per_k(a_csc: CSCMatrix, b_csr: CSRMatrix) -> np.ndarray:
    """Per-outer-product multiply counts: ``nnz(A(:,k)) * nnz(B(k,:))``.

    This is the paper's symbolic phase (Alg. 3): it touches only the two
    pointer arrays, O(k) work, fully streamed.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    return a_csc.col_nnz() * b_csr.row_nnz()


def flops_per_row(a_csc: CSCMatrix, b_csr: CSRMatrix) -> np.ndarray:
    """Tuples each row of C receives: every stored ``A(i, k)`` expands
    into ``nnz(B(k,:))`` tuples of row ``i``.  O(nnz(A))."""
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    weights = np.repeat(b_csr.row_nnz(), a_csc.col_nnz()).astype(np.float64)
    return np.bincount(
        a_csc.indices, weights=weights, minlength=a_csc.shape[0]
    ).astype(np.int64)


def total_flops(a_csc: CSCMatrix, b_csr: CSRMatrix) -> int:
    """Total multiplications (the paper's ``flop``)."""
    return int(flops_per_k(a_csc, b_csr).sum())


def _distinct_outputs_exact(
    a_csc: CSCMatrix, b_csr: CSRMatrix, chunk_flops: int = 4_000_000
) -> int:
    """Exact nnz(C) via chunked expansion + per-row-block distinct count.

    Expands the (row, col) key stream in column-chunks bounded by
    ``chunk_flops`` tuples, collecting distinct keys per chunk, then
    deduplicates across chunks.  Memory stays O(chunk + distinct).
    """
    from ..kernels.outer_expand import expand_chunks

    n = b_csr.shape[1]
    partials: list[np.ndarray] = []
    for rows, cols, _vals in expand_chunks(a_csc, b_csr, chunk_flops=chunk_flops, with_values=False):
        partials.append(sorted_unique(rows * n + cols))
    if not partials:
        return 0
    return distinct_count(np.concatenate(partials))


def _distinct_outputs_sampled(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    sample_cols: int = 512,
    seed: int = 0,
) -> int:
    """Estimate nnz(C) by sampling output columns.

    For a sampled output column j, nnz(C(:, j)) is the number of
    distinct row indices among the A-columns selected by B(:, j) — an
    exact per-column computation, extrapolated by the flop weight of the
    sample so that heavy columns do not bias the estimate.
    """
    rng = np.random.default_rng(seed)
    b_csc = b_csr.to_csc()
    n = b_csc.shape[1]
    if n == 0:
        return 0
    cols = rng.choice(n, size=min(sample_cols, n), replace=False)
    flops_b = flops_per_k(a_csc, b_csr)  # per k, not per output column
    total = int(flops_b.sum())
    sampled_nnz = 0
    sampled_flop = 0
    a_colnnz = a_csc.col_nnz()
    for j in cols:
        ks, _ = b_csc.col(j)
        if len(ks) == 0:
            continue
        pieces = [a_csc.col(k)[0] for k in ks]
        sampled_nnz += distinct_count(np.concatenate(pieces)) if pieces else 0
        sampled_flop += int(a_colnnz[ks].sum())
    if sampled_flop == 0:
        return 0
    return int(round(sampled_nnz * (total / sampled_flop)))


def multiply_stats(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    *,
    exact_threshold: int = 50_000_000,
    sample_cols: int = 512,
    seed: int = 0,
) -> MultiplyStats:
    """Compute :class:`MultiplyStats` for C = A·B.

    ``nnz(C)`` is exact when ``flop <= exact_threshold`` (chunked
    distinct count), otherwise estimated by column sampling — the cost
    model only needs cf to a few percent.
    """
    per_k = flops_per_k(a_csc, b_csr)
    flop = int(per_k.sum())
    if flop == 0:
        return MultiplyStats(0, 0, 1.0, per_k, True)
    if flop <= exact_threshold:
        nnz_c = _distinct_outputs_exact(a_csc, b_csr)
        exact = True
    else:
        nnz_c = max(1, _distinct_outputs_sampled(a_csc, b_csr, sample_cols, seed))
        exact = False
    cf = flop / max(nnz_c, 1)
    return MultiplyStats(flop, nnz_c, cf, per_k, exact)


def degree_histogram(mat, axis: str = "row") -> np.ndarray:
    """Histogram of per-row (or per-column) nonzero counts.

    ``hist[d]`` is the number of rows (columns) holding exactly ``d``
    nonzeros.  Used to characterize R-MAT skew in the load-balance model.
    """
    csr = mat if isinstance(mat, CSRMatrix) else mat.to_csr()
    if axis == "row":
        counts = csr.row_nnz()
    elif axis == "col":
        counts = np.bincount(csr.indices, minlength=csr.shape[1])
    else:
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    if len(counts) == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(counts)
