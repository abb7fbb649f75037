"""Symbolic phase of PB-SpGEMM (paper Algorithm 3).

Computes the exact multiplication count ``flop`` from the two pointer
arrays alone — ``nnz(A(:,i)) * nnz(B(i,:))`` summed over i — then sizes
the global bins so each bin's tuples fit the configured L2 budget.  The
paper stresses this is *much* simpler than the symbolic step of column
algorithms (which must estimate nnz(C)): O(k) streamed work, no
expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from .config import TUPLE_BYTES, PBConfig, resolve_nbins


@dataclass(frozen=True)
class SymbolicResult:
    """Output of the symbolic phase.

    Attributes
    ----------
    flop:
        Exact number of multiplications the expand phase will perform.
    flops_per_k:
        Per-outer-product contributions (length k); the static-schedule
        weights for partitioning expand iterations across threads.
    nbins:
        Global bin count actually used (config override or L2-fit rule).
    rows_per_bin:
        Contiguous row range covered by one bin (``range`` mapping).
    gbin_bytes:
        Total allocation for the global bins: ``flop`` tuples.
    """

    flop: int
    flops_per_k: np.ndarray
    nbins: int
    rows_per_bin: int
    gbin_bytes: int


def symbolic_phase(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    config: PBConfig | None = None,
) -> SymbolicResult:
    """Run Algorithm 3: flop count, bin count, global-bin allocation size."""
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    cfg = config or PBConfig()
    per_k = (a_csc.col_nnz() * b_csr.row_nnz()).astype(np.int64)
    flop = int(per_k.sum())
    m = a_csc.shape[0]

    # The Alg. 3 line 6 bin-count policy (and the handling of an
    # explicit cfg.nbins) lives in exactly one place:
    # repro.core.config.resolve_nbins.
    nbins = resolve_nbins(flop, m, b_csr.shape[1], cfg)

    rows_per_bin = max(1, -(-m // nbins)) if m else 1
    # With range mapping the effective bin count is ceil(m / rows_per_bin).
    if m:
        nbins = max(1, -(-m // rows_per_bin))
    return SymbolicResult(
        flop=flop,
        flops_per_k=per_k,
        nbins=nbins,
        rows_per_bin=rows_per_bin,
        gbin_bytes=flop * TUPLE_BYTES,
    )
