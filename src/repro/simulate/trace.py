"""Address-trace generators for the cache simulator (model validation).

These produce byte-address streams for the access patterns the analytic
model reasons about, in a flat synthetic address space:

* streamed reads of a CSC/CSR operand,
* the column algorithm's irregular A-column bursts driven by B,
* PB's global-bin tuple writes, with and without local bins.

Feeding them through :class:`repro.machine.hierarchy.MemoryHierarchy`
lets tests confirm the analytic line counts (Table II's streaming and
utilization claims) on small concrete matrices.
"""

from __future__ import annotations

import numpy as np

from ..core.binning import BinLayout
from ..core.config import TUPLE_BYTES
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix

ENTRY_BYTES = 12


def trace_stream_read(nnz: int, entry_bytes: int = ENTRY_BYTES, base: int = 0) -> np.ndarray:
    """Sequential read of ``nnz`` entries — the outer product's A/B scan."""
    return base + np.arange(nnz, dtype=np.int64) * entry_bytes


def trace_column_a_reads(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    base: int = 0,
) -> np.ndarray:
    """Column-algorithm reads of A: for every B nonzero (in row-major
    output order), the burst of A(:, k) entry addresses.

    The burst ordering is what makes these *random*: consecutive bursts
    target unrelated columns of A.
    """
    b_csc = b_csr.to_csc()
    ks = b_csc.indices  # selected A columns, output-column order
    ptr = a_csc.indptr
    lens = (ptr[ks + 1] - ptr[ks]).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    group = np.repeat(np.arange(len(ks)), lens)
    starts = np.zeros(len(ks), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    within = np.arange(total, dtype=np.int64) - starts[group]
    entry_idx = ptr[ks[group]] + within
    return base + entry_idx * ENTRY_BYTES


def trace_bin_writes(
    layout: BinLayout,
    rows_stream: np.ndarray,
    base: int = 0,
) -> np.ndarray:
    """Global-bin append addresses *without* local bins.

    Each tuple goes straight to the current tail of its bin — writes
    ping-pong between nbins open cache lines, so with many bins the
    lines evict before filling (the waste local bins remove).
    Bins are laid out contiguously, each sized for the worst case.
    """
    rows_stream = np.asarray(rows_stream)
    binid = layout.bin_of_rows(rows_stream)
    # Tail offset of each tuple within its bin = running per-bin count.
    order = np.argsort(binid, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    counts = np.bincount(binid, minlength=layout.nbins)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offset_within_bin = inv - starts[binid]
    bin_capacity = int(len(rows_stream)) + 1
    addr = (binid * bin_capacity + offset_within_bin) * TUPLE_BYTES
    return base + addr


def trace_bin_writes_local(
    layout: BinLayout,
    rows_stream: np.ndarray,
    local_bin_tuples: int,
    base: int = 0,
) -> np.ndarray:
    """Global-bin writes *with* local bins: tuples first accumulate in a
    small per-bin buffer (cache-resident, not traced as DRAM traffic)
    and hit the global bin only at flush time, as a contiguous burst.

    The returned trace contains the same global-bin addresses as
    :func:`trace_bin_writes` but reordered into flush bursts — which is
    exactly why they use full cache lines.
    """
    plain = trace_bin_writes(layout, rows_stream, base=0)
    binid = layout.bin_of_rows(np.asarray(rows_stream))
    # Flush order: group tuples by (bin, flush round) preserving
    # in-bin order; rounds interleave in arrival order of completion.
    order = np.argsort(binid, kind="stable")
    sorted_addr = plain[order]
    counts = np.bincount(binid, minlength=layout.nbins)
    bursts: list[np.ndarray] = []
    pos = 0
    for b in range(layout.nbins):
        c = int(counts[b])
        seg = sorted_addr[pos : pos + c]
        for i in range(0, c, local_bin_tuples):
            bursts.append(seg[i : i + local_bin_tuples])
        pos += c
    if not bursts:
        return np.empty(0, dtype=np.int64)
    return base + np.concatenate(bursts)
