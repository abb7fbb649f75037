"""Sparse matrix data structures built from scratch on numpy arrays.

Three storage formats, mirroring the paper's Section II-A:

* :class:`COOMatrix` — coordinate triples; the format of the expanded
  intermediate matrix :math:`\\hat{C}` in ESC algorithms.
* :class:`CSRMatrix` — compressed sparse row; input B and output C of
  PB-SpGEMM.
* :class:`CSCMatrix` — compressed sparse column; input A of PB-SpGEMM.

plus conversions (:mod:`repro.matrix.convert`), structural/statistical
queries used by the cost model (:mod:`repro.matrix.stats`), elementwise
and structural operations (:mod:`repro.matrix.ops`), MatrixMarket I/O
(:mod:`repro.matrix.io`) and a dense reference (:mod:`repro.matrix.dense`).

CSR and CSC are the row- and column-major orientations of one
compressed layout (:mod:`repro.matrix.compressed`), so their methods,
conversions and slices are each written once for both.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .csc import CSCMatrix
from .convert import coo_to_csr, coo_to_csc, csr_to_csc, csc_to_csr, csr_to_coo, csc_to_coo
from .stats import (
    MatrixStats,
    MultiplyStats,
    matrix_stats,
    multiply_stats,
    flops_per_k,
    total_flops,
    degree_histogram,
)
from .ops import transpose, allclose, add, scale, extract_diagonal, prune, triu, tril, row_slice, col_slice
from .io import write_matrix_market, read_matrix_market
from .dense import to_dense, from_dense

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_csc",
    "csc_to_csr",
    "csr_to_coo",
    "csc_to_coo",
    "MatrixStats",
    "MultiplyStats",
    "matrix_stats",
    "multiply_stats",
    "flops_per_k",
    "total_flops",
    "degree_histogram",
    "transpose",
    "allclose",
    "add",
    "scale",
    "extract_diagonal",
    "prune",
    "triu",
    "tril",
    "row_slice",
    "col_slice",
    "write_matrix_market",
    "read_matrix_market",
    "to_dense",
    "from_dense",
]
