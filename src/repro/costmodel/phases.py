"""Phase-cost records and workload statistics for the analytic model.

A :class:`PhaseCost` is everything the simulation engine needs to time
one phase of one algorithm on one machine: streamed DRAM bytes, random
line touches, compute cycles, the per-unit work distribution (for load
balance) and how memory and compute overlap.

A :class:`WorkloadStats` summarizes one multiplication C = A·B in the
terms the byte model consumes — all cheap, vectorized reductions over
the operand structure (no expansion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..matrix.stats import flops_per_row, multiply_stats


@dataclass(frozen=True)
class PhaseCost:
    """Resource demands of one algorithm phase.

    Attributes
    ----------
    name:
        Phase label ("expand", "sort", ...).
    dram_read_bytes / dram_write_bytes:
        Streamed DRAM traffic (full cache-line utilization).
    random_line_touches:
        Count of latency-bound cache-line fetches (irregular access).
    random_useful_bytes:
        Payload actually consumed by those touches (≤ touches · line);
        the gap is the Table II "cache line utilization" waste.
    compute_cycles:
        Scalar work in core cycles.
    work_items:
        Optional per-unit loads (per-bin tuples, per-column flops...).
        The engine derives the parallel makespan from these.
    schedule:
        ``"static_block"`` — contiguous equal-count chunks (OpenMP
        static, the expand loop); ``"lpt"`` — longest-processing-time
        (dynamic bin/column scheduling).
    overlap:
        ``"max"`` — memory and compute pipeline (streamed phases);
        ``"add"`` — they serialize (dependent irregular loads feeding
        an accumulator, the column-algorithm regime).
    stream_kernel:
        Which STREAM bandwidth bounds the streamed traffic.
    """

    name: str
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    random_line_touches: float = 0.0
    random_useful_bytes: float = 0.0
    compute_cycles: float = 0.0
    work_items: np.ndarray | None = None
    schedule: str = "lpt"
    overlap: str = "max"
    stream_kernel: str = "triad"

    def total_dram_bytes(self, line_bytes: int = 64) -> float:
        """All DRAM traffic including whole lines of random touches."""
        return (
            self.dram_read_bytes
            + self.dram_write_bytes
            + self.random_line_touches * line_bytes
        )


@dataclass(frozen=True)
class WorkloadStats:
    """Structural summary of one multiplication, as the model sees it."""

    n_rows: int
    n_cols: int
    k: int
    nnz_a: int
    nnz_b: int
    nnz_c: int
    flop: int
    mean_col_degree_a: float
    flops_per_k: np.ndarray = field(repr=False)
    flops_per_row: np.ndarray = field(repr=False)  # tuples landing in each C row
    flops_per_col: np.ndarray = field(repr=False)  # tuples of each C column
    nnz_b_per_col: np.ndarray = field(repr=False)  # merge fan-in of each C column
    max_col_nnz_a: int = 0

    @property
    def compression_factor(self) -> float:
        return self.flop / max(self.nnz_c, 1)

    @property
    def cf(self) -> float:
        return self.compression_factor

    def bin_loads(self, nbins: int) -> np.ndarray:
        """Expanded tuples per global bin under contiguous range mapping."""
        if nbins < 1:
            raise ValueError(f"nbins must be >= 1, got {nbins}")
        m = max(self.n_rows, 1)
        rows_per_bin = max(1, -(-m // nbins))
        binid = np.arange(m) // rows_per_bin
        nb = int(binid[-1]) + 1
        return np.bincount(
            binid, weights=self.flops_per_row.astype(np.float64), minlength=nb
        ).astype(np.int64)


def workload_stats(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    nnz_c: int | None = None,
    seed: int = 0,
) -> WorkloadStats:
    """Build :class:`WorkloadStats` for C = A·B.

    ``nnz_c`` may be passed when already known (e.g. from a previous
    exact multiply); otherwise it is computed/estimated via
    :func:`repro.matrix.stats.multiply_stats`.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    a_colnnz = a_csc.col_nnz()
    b_rownnz = b_csr.row_nnz()
    per_k = (a_colnnz * b_rownnz).astype(np.int64)
    flop = int(per_k.sum())

    nnz_b_per_col = np.bincount(b_csr.indices, minlength=b_csr.shape[1]).astype(
        np.int64
    )

    if nnz_c is None:
        nnz_c = multiply_stats(a_csc, b_csr, seed=seed).nnz_c

    return WorkloadStats(
        n_rows=a_csc.shape[0],
        n_cols=b_csr.shape[1],
        k=a_csc.shape[1],
        nnz_a=a_csc.nnz,
        nnz_b=b_csr.nnz,
        nnz_c=int(nnz_c),
        flop=flop,
        mean_col_degree_a=a_csc.mean_degree(),
        flops_per_k=per_k,
        flops_per_row=flops_per_row(a_csc, b_csr),
        # columns of C are the rows of Cᵀ = Bᵀ·Aᵀ (zero-copy transposes)
        flops_per_col=flops_per_row(b_csr.transpose(), a_csc.transpose()),
        nnz_b_per_col=nnz_b_per_col,
        max_col_nnz_a=int(a_colnnz.max()) if len(a_colnnz) else 0,
    )
