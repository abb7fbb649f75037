"""Vectorized outer-product expansion (the Expand phase, Alg. 2 lines 5-14).

Given A in CSC and B in CSR, outer product k contributes the tuple set
``{(r, c, A(r,k) * B(k,c))}`` for every nonzero row r of ``A(:,k)`` and
column c of ``B(k,:)``.  The flat concatenation over all k is the
expanded matrix :math:`\\hat{C}` holding exactly ``flop`` tuples.

The whole stream is produced without a Python loop over k using grouped
index arithmetic:

* each A entry ``e`` (sitting in column k) is repeated ``nnz(B(k,:))``
  times → the row ids and A values;
* within outer product k, tuple ``j`` (0-based) picks B entry
  ``b_start[k] + j mod nnz(B(k,:))`` → the column ids and B values via
  one gather.

Chunking over columns of A bounds peak memory and doubles as the
virtual-thread work decomposition used by the simulator.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring

#: Expand-phase chunk budget in tuples: bounds the peak memory of one
#: chunk and is the work grain of the parallel expand.
DEFAULT_CHUNK_FLOPS = 8_000_000


def _expand_range(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    k_lo: int,
    k_hi: int,
    semiring: Semiring,
    with_values: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Expand outer products for k in [k_lo, k_hi). Returns (rows, cols, vals)."""
    a_ptr, b_ptr = a_csc.indptr, b_csr.indptr
    a_nnz = a_ptr[k_lo + 1 : k_hi + 1] - a_ptr[k_lo:k_hi]  # nnz(A(:,k))
    b_nnz = b_ptr[k_lo + 1 : k_hi + 1] - b_ptr[k_lo:k_hi]  # nnz(B(k,:))
    per_k = a_nnz * b_nnz
    total = int(per_k.sum())
    empty = np.empty(0, dtype=INDEX_DTYPE)
    if total == 0:
        return empty, empty, (np.empty(0) if with_values else None)

    # --- A side: repeat each A entry by its column's B-row length -------
    a_slice = slice(int(a_ptr[k_lo]), int(a_ptr[k_hi]))
    # column id of each A entry in the slice
    reps = np.repeat(b_nnz, a_nnz)  # per-A-entry repetition count
    rows = np.repeat(a_csc.indices[a_slice], reps)

    # --- B side: within group k, tuple j selects B entry j mod b_nnz[k] --
    group_of_tuple = np.repeat(np.arange(k_hi - k_lo, dtype=INDEX_DTYPE), per_k)
    offsets = np.zeros(k_hi - k_lo, dtype=INDEX_DTYPE)
    np.cumsum(per_k[:-1], out=offsets[1:])
    j_in_group = np.arange(total, dtype=INDEX_DTYPE) - offsets[group_of_tuple]
    b_len = b_nnz[group_of_tuple]
    b_idx = b_ptr[k_lo + group_of_tuple] + j_in_group % b_len
    cols = b_csr.indices[b_idx]

    if not with_values:
        return rows, cols, None
    a_vals = np.repeat(a_csc.data[a_slice], reps)
    vals = semiring.multiply(a_vals, b_csr.data[b_idx])
    return rows, cols, vals


def expand_outer(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fully expand :math:`\\hat{C}` in one shot (rows, cols, vals).

    Tuple order matches the paper's expand phase: outer products in
    k order; within an outer product, A entries in column order crossed
    with B entries in row order.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    sr = get_semiring(semiring)
    rows, cols, vals = _expand_range(
        a_csc, b_csr, 0, a_csc.shape[1], sr, with_values=True
    )
    assert vals is not None
    return rows, cols, vals


def chunk_ranges(
    per_k: np.ndarray, chunk_flops: int
) -> Iterator[tuple[int, int]]:
    """Column ranges ``[k_lo, k_hi)`` holding ~``chunk_flops`` tuples each.

    Boundaries are chosen on the flop prefix sum, so chunks are balanced
    by *work*, matching the paper's static flop-based schedule of expand
    iterations across threads.  All-empty ranges are skipped.  This is
    the work decomposition shared by :func:`expand_chunks` and the
    process executor's parallel expand.
    """
    if chunk_flops <= 0:
        raise ValueError(f"chunk_flops must be positive, got {chunk_flops}")
    per_k = np.asarray(per_k, dtype=np.int64)
    k = len(per_k)
    prefix = np.concatenate([[0], np.cumsum(per_k)])
    if int(prefix[-1]) == 0:
        return
    k_lo = 0
    while k_lo < k:
        target = prefix[k_lo] + chunk_flops
        k_hi = int(np.searchsorted(prefix, target, side="left"))
        k_hi = max(k_hi, k_lo + 1)
        k_hi = min(k_hi, k)
        if prefix[k_hi] > prefix[k_lo]:  # skip all-empty chunks
            yield k_lo, k_hi
        k_lo = k_hi


def expand_chunks(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    chunk_flops: int = DEFAULT_CHUNK_FLOPS,
    semiring: Semiring | str = PLUS_TIMES,
    with_values: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Expand in column chunks bounded by ~``chunk_flops`` tuples each
    (see :func:`chunk_ranges` for the boundary rule).
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    sr = get_semiring(semiring)
    per_k = (a_csc.col_nnz() * b_csr.row_nnz()).astype(np.int64)
    for k_lo, k_hi in chunk_ranges(per_k, chunk_flops):
        yield _expand_range(a_csc, b_csr, k_lo, k_hi, sr, with_values)


def expand_arena(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    chunk_flops: int = DEFAULT_CHUNK_FLOPS,
    semiring: Semiring | str = PLUS_TIMES,
    per_k: np.ndarray | None = None,
    layout=None,
    local_tuples: int = 0,
    team=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand the full tuple stream into one flop-sized arena.

    **Compiled form.** With a ``range`` or ``variable`` bin ``layout``
    the compiled kernel of :func:`repro.kernels.jit.pb_expand_jit` runs
    instead and expands straight into the global bins — through local
    bins of ``local_tuples`` tuples each, or directly when that is 0 —
    returning ``(packed_keys, vals, bin_starts)``, on the threads of
    ``team`` (a :class:`~repro.parallel.threads.ThreadTeam`) when one
    is given.  The caller must have checked the engine is available.
    The numpy tier builds the identical binned stream from this
    function's arena form followed by
    :func:`repro.core.binning.distribute_packed`.

    The symbolic phase knows every column's exact tuple count, so each
    chunk owns a fixed ``[o_lo, o_hi)`` slice of the output stream;
    chunks are written straight at their flop-prefix offsets — the same
    layout the process executor uses in shared memory.  The result is
    bit-identical to concatenating :func:`expand_chunks`, without
    holding the whole list of chunk arrays alive and re-copying them
    through ``np.concatenate``: peak extra memory is one chunk, not the
    full stream twice.

    ``per_k`` (per-column flop counts) can be passed in when the caller
    already ran the symbolic phase.  Values land in a
    ``VALUE_DTYPE`` arena, matching the canonical matrix value dtype.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    sr = get_semiring(semiring)
    if layout is not None:
        from .jit import pb_expand_jit

        return pb_expand_jit(a_csc, b_csr, sr, layout, local_tuples, per_k, team)
    if per_k is None:
        per_k = (a_csc.col_nnz() * b_csr.row_nnz()).astype(np.int64)
    else:
        per_k = np.asarray(per_k, dtype=np.int64)
    prefix = np.concatenate([[0], np.cumsum(per_k)])
    flop = int(prefix[-1])
    rows = np.empty(flop, dtype=INDEX_DTYPE)
    cols = np.empty(flop, dtype=INDEX_DTYPE)
    vals = np.empty(flop, dtype=VALUE_DTYPE)
    for k_lo, k_hi in chunk_ranges(per_k, chunk_flops):
        o_lo, o_hi = int(prefix[k_lo]), int(prefix[k_hi])
        r, c, v = _expand_range(a_csc, b_csr, k_lo, k_hi, sr, with_values=True)
        rows[o_lo:o_hi] = r
        cols[o_lo:o_hi] = c
        vals[o_lo:o_hi] = v
    return rows, cols, vals


def expand_cols_range(
    a_csc: CSCMatrix,
    b_csc,
    j_lo: int,
    j_hi: int,
    semiring: Semiring,
    row_indices: np.ndarray | None = None,
    with_cols: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Column-major expansion of output columns ``[j_lo, j_hi)``.

    The tuple multiset of :math:`\\hat{C}(:, j_lo:j_hi)` in output-
    column-major order: for each B entry (k, j), j-major then k
    ascending, the whole column A(:, k) scaled by B(k, j) — a segmented
    gather vectorized by materializing each tuple's A-entry offset as
    ``repeat(a_start - run_start, reps) + arange`` (one repeat, one
    ramp — no per-tuple group ids).  This is the shared gather of the
    panel-vectorized column kernels and the column-wise ESC expand;
    ``b_csc`` is B already converted to CSC.

    ``row_indices`` substitutes the array row ids are gathered from
    (default ``a_csc.indices``); the panel kernels pass A's row ids
    pre-cast to the narrowest unsigned dtype so the whole row stream —
    gather, sort keys, run detection — moves 2 bytes per element
    instead of 8.  ``with_cols=False`` skips materializing the output
    column ids (``cols`` is returned as ``None``) for callers that
    rebuild them from per-column tuple counts in a narrower dtype.
    """
    b_ptr = b_csc.indptr
    e_lo, e_hi = int(b_ptr[j_lo]), int(b_ptr[j_hi])
    ks = b_csc.indices[e_lo:e_hi]  # k of each B entry, column-major order
    a_ptr = a_csc.indptr
    a_lo = a_ptr[ks]
    reps = a_ptr[ks + 1] - a_lo  # nnz(A(:,k)) per B entry
    total = int(reps.sum())
    if total == 0:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return empty, (empty if with_cols else None), np.empty(0)
    # The per-tuple A-entry offsets: int32 halves the index-math traffic
    # whenever both the offsets (< nnz(A)) and the intra-range ramp
    # (< total) fit, which they do at every feasible in-memory scale.
    # The finished offsets are widened to the platform index dtype in
    # ONE cast — numpy re-casts a narrow index array to intp inside
    # every fancy-indexing call, so gathering twice through an int32
    # array would pay the conversion twice.
    if total <= np.iinfo(np.int32).max and int(a_ptr[-1]) <= np.iinfo(np.int32).max:
        idx_dtype = np.int32
        a_lo = a_lo.astype(np.int32)
        reps = reps.astype(np.int32)
    else:
        idx_dtype = INDEX_DTYPE
        reps = reps.astype(INDEX_DTYPE)
    starts = np.zeros(len(ks), dtype=idx_dtype)
    np.cumsum(reps[:-1], out=starts[1:])
    a_idx = np.repeat(a_lo - starts, reps)
    a_idx += np.arange(total, dtype=idx_dtype)
    a_idx = a_idx.astype(np.intp, copy=False)
    rows = np.take(a_csc.indices if row_indices is None else row_indices, a_idx)
    if with_cols:
        b_colnnz = (
            b_ptr[j_lo + 1 : j_hi + 1] - b_ptr[j_lo:j_hi]
        ).astype(INDEX_DTYPE)
        b_cols = np.repeat(np.arange(j_lo, j_hi, dtype=INDEX_DTYPE), b_colnnz)
        cols = np.repeat(b_cols, reps)
    else:
        cols = None
    vals = semiring.multiply(
        np.take(a_csc.data, a_idx), np.repeat(b_csc.data[e_lo:e_hi], reps)
    )
    return rows, cols, vals


def column_flops(a_csc: CSCMatrix, b_csc) -> np.ndarray:
    """Tuples generated per *output* column: ``Σ_{k∈B(:,j)} nnz(A(:,k))``.

    The column-major analogue of the symbolic phase's per-k flop counts;
    drives panel sizing and the arena offsets of the column-major expand.
    """
    contrib = a_csc.col_nnz()[b_csc.indices].astype(np.int64)
    prefix = np.concatenate([[0], np.cumsum(contrib)])
    return prefix[b_csc.indptr[1:]] - prefix[b_csc.indptr[:-1]]


def iter_expand_columns(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    chunk_flops: int = DEFAULT_CHUNK_FLOPS,
    per_col: np.ndarray | None = None,
):
    """Chunked column-major expansion: yields ``(o_lo, o_hi, rows, cols, vals)``.

    Chunk boundaries come from :func:`chunk_ranges` on the per-output-
    column tuple counts, so each chunk holds ~``chunk_flops`` tuples and
    owns the fixed slice ``[o_lo, o_hi)`` of the column-major stream —
    callers can write chunks straight into flop-sized arenas (the
    column-major mirror of :func:`expand_arena`).
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    sr = get_semiring(semiring)
    b_csc = b_csr.to_csc()
    if per_col is None:
        per_col = column_flops(a_csc, b_csc)
    else:
        per_col = np.asarray(per_col, dtype=np.int64)
    prefix = np.concatenate([[0], np.cumsum(per_col)])
    for j_lo, j_hi in chunk_ranges(per_col, chunk_flops):
        rows, cols, vals = expand_cols_range(a_csc, b_csc, j_lo, j_hi, sr)
        yield int(prefix[j_lo]), int(prefix[j_hi]), rows, cols, vals
