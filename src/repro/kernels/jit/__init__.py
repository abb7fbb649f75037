"""Compiled hot-kernel tier (DESIGN.md §14).

The compiled serial PB pipeline — bin count, expand into bins,
per-bin radix sort, per-bin compress into CSR (:func:`pb_expand_jit`,
:func:`pb_sort_bins_jit`, :func:`pb_compress_bins_jit`) — plus the
column kernels' compiled panel (:func:`panel_context`) and the
counting transpose of the CSR/CSC conversions (:func:`transpose_jit`).
Each runs by default whenever the tier can serve the call — for PB and
the panel, :func:`blocker` is the one check of that (an op code for
the semiring, float64 values, a working engine) — and otherwise the
caller runs its numpy path, silently.  The numpy paths are bit-identical by construction (stable
sorts share their unique permutation; compiled folds replay the
numpy fold's sequential order).

One engine serves them: a runtime-compiled C library (``_cc``) behind
a cached probe (``_avail``).  :func:`jit_status` says why the engine
is off when it is.

:func:`warmup` compiles/loads everything once, idempotently, and
returns the seconds spent — :class:`repro.session.Session` calls it at
construction and ``pb_spgemm_detailed`` records it as the
``jit_warmup_s`` phase so compile time never pollutes multiply
timings.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

import numpy as np

from ..._util import balanced_ranges
from ...matrix.base import INDEX_DTYPE
from ...parallel.threads import ThreadTeam
from ..radix import counting_passes, passes_for_bits
from ._avail import JITStatus, probe, record_engine_failure, reset_probe_cache

__all__ = [
    "JITStatus",
    "jit_available",
    "blocker",
    "probe",
    "jit_status",
    "warmup",
    "reset_jit_state",
    "disabled",
    "semiring_opcode",
    "multiply_opcode",
    "panel_context",
    "pb_expand_jit",
    "pb_sort_bins_jit",
    "pb_compress_bins_jit",
    "transpose_jit",
    "OP_ADD",
    "OP_MIN",
    "OP_MAX",
    "OP_OR",
    "MUL_TIMES",
    "MUL_PLUS",
    "MUL_AND",
    "MUL_PAIR",
]

#: ⊕ op codes shared with the engine's kernels.
OP_ADD, OP_MIN, OP_MAX, OP_OR = 0, 1, 2, 3

#: ⊗ op codes for the fused panel kernel.
MUL_TIMES, MUL_PLUS, MUL_AND, MUL_PAIR = 0, 1, 2, 3

_ENGINE = None
_ENGINE_FAILED = False
_WARMED = False
_TLS = threading.local()


def _engine():
    """The process-wide engine instance, or None (cached either way)."""
    global _ENGINE, _ENGINE_FAILED
    if _ENGINE is not None:
        return _ENGINE
    if _ENGINE_FAILED:
        return None
    st = probe()
    if not st.available:
        _ENGINE_FAILED = True
        return None
    try:
        from ._cc import CCEngine

        _ENGINE = CCEngine(st.cc_compiler)
    except Exception as exc:
        # Probe found a compiler but the library could not be built or
        # loaded.  Degrade exactly like absence, with the real cause on
        # the cached status so every report names it.
        _ENGINE_FAILED = True
        record_engine_failure(exc)
        return None
    return _ENGINE


def _require_engine():
    eng = _engine()
    if eng is None:
        raise RuntimeError(
            "the compiled tier needs the cc engine; "
            "check blocker() before selecting it"
        )
    return eng


def _hist() -> np.ndarray:
    """Per-thread int64 scratch shared across calls.

    Sized 2 << 16 so the radix kernel's two alternating bucket arrays
    fit at the widest (16-bit) digit; every other kernel uses a prefix.
    """
    h = getattr(_TLS, "hist", None)
    if h is None:
        h = np.empty(2 << 16, dtype=np.int64)
        _TLS.hist = h
    return h


def _sort_scratch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-thread record ping-pong scratch for the radix sort.

    The compiled sort moves interleaved 16-byte (value, key) records
    through two ``uint64[2n]`` buffers on all passes but the last.
    Freshly ``np.empty``-ing both buffers for every multiply would pay
    their page faults inside the timed scatter loop; one warm scratch
    pair, grown geometrically, amortizes that to zero.
    """
    pair = getattr(_TLS, "sort_scratch", None)
    if pair is None or len(pair[0]) < 2 * n:
        cap = max(2 * n, 2048, 0 if pair is None else 2 * len(pair[0]))
        pair = (np.empty(cap, np.uint64), np.empty(cap, np.uint64))
        _TLS.sort_scratch = pair
    return pair


def jit_available() -> bool:
    """Whether the compiled engine is usable in this process.

    Builds (or loads) the engine on first call, so a compiler that is
    present but cannot produce the library reports False.
    """
    return _engine() is not None


def jit_status() -> dict:
    """Engine status + process warm state for ``repro machine --json``.

    Resolves the engine first, so a failed build reports as unavailable.
    """
    _engine()
    st = probe().to_dict()
    st["warmed"] = _WARMED
    return st


def warmup() -> float:
    """Compile/load every compiled kernel once, off the request path.

    Returns the wall seconds this call spent (0.0 when already warm;
    only the probe's cost when no engine is available).
    Exercises each kernel on every key width so the cc build + dlopen
    and each kernel's first touch all happen now; the on-disk ``.so``
    makes later processes' warmup near-free.
    """
    global _WARMED
    if _WARMED:
        return 0.0
    t0 = time.perf_counter()
    eng = _engine()
    if eng is None:
        return time.perf_counter() - t0
    _WARMED = True
    hist = _hist()
    vals = np.array([1.5, -2.0, 1.5, 0.0], dtype=np.float64)
    counts = np.empty(2, dtype=np.int64)
    ra, rb = np.empty(8, np.uint64), np.empty(8, np.uint64)
    for idt in (np.uint16, np.uint32):
        rows = np.array([1, 0, 1, 1], dtype=idt)
        cols = np.array([0, 1, 0, 2], dtype=idt)
        tr, tc = np.empty(4, idt), np.empty(4, idt)
        tv = np.empty(4, np.float64)
        our, ouc = np.empty(4, idt), np.empty(4, idt)
        ouv = np.empty(4, np.float64)
        rc = np.empty(2, np.int64)
        for op in (OP_ADD, OP_MIN, OP_MAX, OP_OR):
            eng.panel_process(
                rows, cols, vals, 2, op, hist, tr, tc, tv, our, ouc, ouv, rc
            )
    # 2x2 A (CSC) times 2x2 B panel: exercises every (⊕, ⊗) pair.
    a_ptr = np.array([0, 2, 4], dtype=np.int64)
    a_rows = np.array([0, 1, 0, 1], dtype=np.uint16)
    a_vals = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float64)
    bk = np.array([0, 1, 1], dtype=np.int64)
    bv = np.array([1.5, -2.0, 0.5], dtype=np.float64)
    col_ptr = np.array([0, 2, 3], dtype=np.int64)
    wk2 = np.empty(2, np.int64)
    tvc12 = np.empty(12, np.float64)
    our6, ouc6 = np.empty(6, np.uint16), np.empty(6, np.uint16)
    ouv6 = np.empty(6, np.float64)
    rc2 = np.empty(2, np.int64)
    for op in (OP_ADD, OP_MIN, OP_MAX, OP_OR):
        for mop in (MUL_TIMES, MUL_PLUS, MUL_AND, MUL_PAIR):
            eng.panel_fused(
                a_ptr, a_rows, a_vals, bk, bv, col_ptr, 0, 2, op, mop,
                hist, wk2, tvc12, our6, ouc6, ouv6, rc2,
            )
    # The serial PB pipeline on that 2x2 square, one row per bin: both
    # key widths, local bins on and off, every ⊗, ⊕ and sort shape.
    idx = a_rows.astype(np.int64)
    bin_lo = np.array([0, 1], dtype=np.int64)
    eng.pb_bin_count(a_ptr, idx, a_ptr, bin_lo, counts)
    starts = np.array([0, 4, 8], dtype=np.int64)
    for kdt in (np.uint32, np.uint64):
        keys = np.empty(8, kdt)
        pv = np.empty(8, np.float64)
        lk, lv, lf = np.empty(4, kdt), np.empty(4, np.float64), np.empty(2, np.int64)
        for cap in (0, 2):
            for mop in (MUL_TIMES, MUL_PLUS, MUL_AND, MUL_PAIR):
                eng.pb_expand(
                    a_ptr, idx, a_vals, a_ptr, idx, a_vals, bin_lo, bin_lo,
                    1, mop, starts[:-1].copy(), cap, lk, lv, lf, keys, pv,
                )
        for npasses, digit_bits in ((1, 1), (2, 1)):
            eng.pb_sort_bins(keys, pv.view(np.uint64), starts, npasses, digit_bits, ra, rb, hist)
        for op in (OP_ADD, OP_MIN, OP_MAX, OP_OR):
            eng.pb_compress_bins(
                keys, pv.copy(), starts, bin_lo, 1, op,
                np.empty(8, np.int64), np.empty(8, np.float64), np.zeros(2, np.int64),
            )
    # A as CSC, transposed into its CSR structure.
    transpose_jit(a_ptr, idx, a_vals, 2)
    return time.perf_counter() - t0


def reset_jit_state() -> None:
    """Forget the engine, warm flag and probe cache (tests only)."""
    global _ENGINE, _ENGINE_FAILED, _WARMED
    _ENGINE = None
    _ENGINE_FAILED = False
    _WARMED = False
    reset_probe_cache()


@contextlib.contextmanager
def disabled():
    """Run the body with the tier switched off, as under
    ``REPRO_JIT_DISABLE=1``: PB takes the numpy pipeline and the column
    kernels the numpy panel.  The variable and the engine caches are
    restored on exit.  For differential tests and benchmarks; not
    thread-safe."""
    saved = os.environ.get("REPRO_JIT_DISABLE")
    os.environ["REPRO_JIT_DISABLE"] = "1"
    reset_jit_state()
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_JIT_DISABLE"]
        else:
            os.environ["REPRO_JIT_DISABLE"] = saved
        reset_jit_state()


def semiring_opcode(semiring) -> int | None:
    """⊕ op code for a semiring's ``add_ufunc``, or None if uncompiled."""
    ufunc = getattr(semiring, "add_ufunc", None)
    if ufunc is np.add:
        return OP_ADD
    if ufunc is np.minimum:
        return OP_MIN
    if ufunc is np.maximum:
        return OP_MAX
    if ufunc is np.logical_or:
        return OP_OR
    return None


def multiply_opcode(semiring) -> int | None:
    """⊗ op code for a semiring's ``multiply``, or None if uncompiled.

    Matched by identity against the registry's multiply callables so a
    user-defined semiring with a custom ⊗ silently keeps the numpy
    expand path (which calls the callable) rather than being mislabeled.
    """
    from ...semiring import _logical_and, _pair, _plus, _times

    mul = getattr(semiring, "multiply", None)
    if mul is _times:
        return MUL_TIMES
    if mul is _plus:
        return MUL_PLUS
    if mul is _logical_and:
        return MUL_AND
    if mul is _pair:
        return MUL_PAIR
    return None


def blocker(semiring, dtypes=()) -> str | None:
    """Why the compiled tier cannot serve a multiply over ``semiring``
    with operand value ``dtypes``, or None when it can.

    Reasons, in the order they are checked: ``semiring`` (⊕ or ⊗ has
    no compiled op code: a custom semiring), ``dtype`` (values are not
    float64) and ``no_engine`` (no compiler, a failed build, or
    ``REPRO_JIT_DISABLE``).  PB adds its own ``mapping`` check
    (:func:`repro.core.pb_spgemm.compiled_blocker`); the column panel
    adds only its shape envelope (:func:`panel_context`).
    """
    if semiring_opcode(semiring) is None or multiply_opcode(semiring) is None:
        return "semiring"
    if any(np.dtype(dt) != np.float64 for dt in (semiring.dtype, *dtypes)):
        return "dtype"
    if not jit_available():
        return "no_engine"
    return None


# ----------------------------------------------------------------------
# Digit width of the compiled radix sort
# ----------------------------------------------------------------------

def _sort_digit_bits(n: int, key_bits: int) -> int:
    """Digit width for one compiled sort of ``n`` keys of ``key_bits``.

    A counting pass scatters into ``2^digit_bits`` concurrent write
    streams, and measured across bin sizes (4k-250k tuples) the knee
    is at 256 buckets: wider digits thrash L1 with partially-filled
    cache lines (2048 streams × 64 B is already 128 KB), while the
    extra narrow pass is a cheap sequential sweep — 8-bit digits beat
    both 11×2 and 16×2 splits at every size tried, and the histogram
    memset (2 KB) is noise even for tiny bins.  Pick 8-bit digits,
    then shrink to the narrowest width giving the same pass count
    (e.g. 11-bit keys → two 6-bit passes).  The stable permutation is
    digit-width independent, so any choice stays bit-identical.
    """
    digit = max(1, min(8, key_bits))
    npasses = -(-key_bits // digit)
    return -(-key_bits // npasses)


# ----------------------------------------------------------------------
# The column kernels' compiled panel
# ----------------------------------------------------------------------

class PanelContext:
    """Per-multiply state for the compiled panel sort + fold.

    Holds the engine, the ⊕ op code and a reusable histogram scratch so
    the per-panel calls allocate only their own buffers.
    """

    def __init__(self, eng, m: int, op: int, col_dtype, index_dtype, mop: int):
        self._eng = eng
        self._m = int(m)
        self._op = op
        self._mop = mop
        self._col_dtype = np.dtype(col_dtype)
        #: Narrowest index dtype the compiled kernel runs at for this
        #: shape — the caller gathers rows/cols in this dtype so the
        #: sub-65536-square case moves half the index bytes per scatter.
        self.index_dtype = np.dtype(index_dtype)
        self._hist = np.empty(65536, dtype=np.int64)
        self._wk = None  # inner-dim scratch, sized on first fused call
        self._fused_scratch = None  # (tvc, out_r, out_c, out_v), grown
        #: Whether :meth:`process_fused` can serve this multiply — the
        #: fused kernel walks the CSC structure itself in a uint16
        #: index envelope.
        self.supports_fused = self.index_dtype == np.uint16

    def process_fused(
        self, a_ptr, a_rows_idx, a_vals, b_ptr, b_ks, b_data, j_lo, j_hi,
        ntuples,
    ):
        """Expand + ⊗ + row-group + fold one panel in one compiled call.

        Walks the CSC expansion structure directly (the same implicit
        j-major tuple stream ``expand_cols_range`` materializes), so the
        numpy-side expand/repeat/gather buffers are never built.  The
        stable row grouping and sequential col-run fold replay the
        non-fused path's order exactly, so results stay bit-identical.
        Returns the same quartet as :meth:`process`.
        """
        n = int(ntuples)
        e_lo = int(b_ptr[j_lo])
        e_hi = int(b_ptr[j_hi])
        col_ptr = (b_ptr[j_lo : j_hi + 1] - e_lo).astype(np.int64)
        idt = self.index_dtype
        nk = len(a_ptr) - 1
        if self._wk is None or len(self._wk) < nk:
            self._wk = np.empty(nk, dtype=np.int64)
        # Warm per-context scratch: the compacted outputs below are
        # copies, so the big per-panel buffers never escape and their
        # page faults are paid once per multiply, not once per panel.
        scr = self._fused_scratch
        if scr is None or len(scr[1]) < n:
            scr = (
                np.empty(2 * n, dtype=np.float64),
                np.empty(n, dtype=idt),
                np.empty(n, dtype=idt),
                np.empty(n, dtype=np.float64),
            )
            self._fused_scratch = scr
        tvc, out_r, out_c, out_v = scr
        row_counts = np.empty(self._m, dtype=np.int64)
        nout = self._eng.panel_fused(
            np.ascontiguousarray(a_ptr, dtype=np.int64),
            a_rows_idx,
            np.ascontiguousarray(a_vals, dtype=np.float64),
            np.ascontiguousarray(b_ks[e_lo:e_hi], dtype=np.int64),
            np.ascontiguousarray(b_data[e_lo:e_hi], dtype=np.float64),
            col_ptr,
            int(j_lo),
            self._m,
            self._op,
            self._mop,
            self._hist,
            self._wk, tvc, out_r, out_c, out_v, row_counts,
        )
        rows_p = out_r[:nout].astype(np.intp)
        cols_p = out_c[:nout].astype(self._col_dtype, copy=True)
        vals_p = out_v[:nout].copy()
        return rows_p, cols_p, vals_p, row_counts

    def process(self, rows_idx, cols_idx, vals_f64):
        """Sort one panel by row, fold duplicate (row, col) runs.

        Returns ``(rows_intp, cols, reduced_vals, row_counts)`` —
        compacted copies matching the numpy panel path's
        ``rows_s[run_start].astype(np.intp)`` / ``cols_s[run_start]`` /
        ``Semiring.fold`` / ``np.bincount`` quartet.
        """
        n = len(rows_idx)
        idt = self.index_dtype
        tr = np.empty(n, dtype=idt)
        tc = np.empty(n, dtype=idt)
        tv = np.empty(n, dtype=np.float64)
        out_r = np.empty(n, dtype=idt)
        out_c = np.empty(n, dtype=idt)
        out_v = np.empty(n, dtype=np.float64)
        row_counts = np.empty(self._m, dtype=np.int64)
        nout = self._eng.panel_process(
            np.ascontiguousarray(rows_idx, dtype=idt),
            np.ascontiguousarray(cols_idx, dtype=idt),
            np.ascontiguousarray(vals_f64, dtype=np.float64),
            self._m,
            self._op,
            self._hist,
            tr, tc, tv, out_r, out_c, out_v, row_counts,
        )
        # Compact copies: the big per-panel buffers must not outlive
        # this call (panels accumulate until assembly).
        rows_p = out_r[:nout].astype(np.intp)
        cols_p = out_c[:nout].astype(self._col_dtype, copy=True)
        vals_p = out_v[:nout].copy()
        return rows_p, cols_p, vals_p, row_counts


def panel_context(m: int, n: int, semiring, col_dtype):
    """The compiled panel context for an ``m × n`` product, or None
    when the shape is outside the compiled envelope (rows or cols
    beyond 32 bits) and the numpy panel must run.

    The caller has checked :func:`blocker` first.
    """
    if m > 1 << 32 or n > 1 << 32:
        return None
    idx = np.uint16 if (m <= 1 << 16 and n <= 1 << 16) else np.uint32
    return PanelContext(
        _require_engine(), m, semiring_opcode(semiring), col_dtype, idx,
        multiply_opcode(semiring),
    )


# ----------------------------------------------------------------------
# Format conversion
# ----------------------------------------------------------------------

def transpose_jit(indptr, indices, data, nminor: int):
    """Stable counting transpose of a compressed structure, or None.

    ``indptr``/``indices`` describe ``len(indptr) - 1`` major segments
    over minor ids in ``[0, nminor)``; ``data`` values are moved as raw
    bits.  Returns ``(ptr, idx, data)`` of the transposed structure —
    entries in the order ``np.argsort(indices, kind="stable")`` gives —
    or None when the kernel cannot serve the arrays: indices that are
    not int64, values not 8 bytes wide, or arrays that do not describe
    a valid structure (the caller's numpy path then handles them as
    before).
    """
    eng = _require_engine()
    if not (
        indptr.dtype == indices.dtype == np.int64
        and data.dtype.itemsize == 8
        and len(indptr) >= 1
        and len(data) == len(indices)
    ):
        return None
    indptr = np.ascontiguousarray(indptr)
    indices = np.ascontiguousarray(indices)
    data = np.ascontiguousarray(data)
    out_ptr = np.empty(int(nminor) + 1, dtype=INDEX_DTYPE)
    out_idx = np.empty(len(indices), dtype=INDEX_DTYPE)
    out_data = np.empty(len(indices), dtype=data.dtype)
    status = eng.csx_transpose(
        indptr, indices, data.view(np.uint64), int(nminor),
        out_ptr, out_idx, out_data.view(np.uint64),
    )
    if status != 0:
        return None
    return out_ptr, out_idx, out_data


# ----------------------------------------------------------------------
# The compiled serial PB pipeline (expand → per-bin sort → compress)
# ----------------------------------------------------------------------

def _check_bins(keys, vals, starts) -> None:
    """Reject arrays the per-bin kernels would read or write out of
    bounds: contiguous u32/u64 keys, float64 values of the same length,
    and int64 bin offsets ascending from 0 to that length."""
    if not (
        keys.flags.c_contiguous
        and vals.flags.c_contiguous
        and keys.dtype in (np.uint32, np.uint64)
        and vals.dtype == np.float64
        and len(keys) == len(vals)
        and starts.dtype == np.int64
        and len(starts) >= 1
        and starts[0] == 0
        and starts[-1] == len(keys)
        and not np.any(np.diff(starts) < 0)
    ):
        raise ValueError("arrays do not describe contiguous bins of packed tuples")


def _local_bins(nbins: int, cap: int, key_dtype) -> tuple:
    """Per-thread local-bin scratch: ``cap`` tuples per bin (Fig. 5).

    Kept warm across multiplies like the sort scratch, so the local
    bins' first touch is paid once per thread, not once per expand.
    """
    need = nbins * cap
    cache = getattr(_TLS, "local_bins", None)
    if cache is None or len(cache[1]) < need or len(cache[2]) < nbins:
        cache = (
            np.empty(need, np.uint64),
            np.empty(need, np.float64),
            np.empty(nbins, np.int64),
        )
        _TLS.local_bins = cache
    keys, vals, fill = cache
    return keys.view(key_dtype)[:need], vals[:need], fill[:nbins]


def _deal(weights, team) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` ranges of ``weights``, one per thread of
    ``team``, balanced by weight (one range for a one-thread team)."""
    n = len(weights)
    if team.size == 1 or n == 0:
        return [(0, n)]
    return balanced_ranges(weights, team.size)


def pb_expand_jit(a_csc, b_csr, semiring, layout, local_tuples: int, per_k=None, team=None):
    """Compiled bin count + expand of ``A · B`` straight into bins.

    Counts each bin's tuples from A's nonzeros weighted by nnz(B(k,:)),
    then walks k, A(:,k), B(k,:) — numpy's expansion order — applying ⊗
    and packing ``(local_row << col_bits) | col`` keys in
    ``layout.key_dtype``.  ``local_tuples > 0`` stages tuples in
    per-bin local bins of that many tuples, flushed to the global bin
    when full; ``0`` writes each tuple to its global bin directly.
    Returns ``(keys, vals, bin_starts)``: bin b holds
    ``[bin_starts[b], bin_starts[b+1])`` in stream order, exactly what
    the numpy expand + stable distribute produce.

    With a :class:`~repro.parallel.threads.ThreadTeam` A's columns are
    cut into flop-balanced chunks (``per_k``: tuples per column), one
    per thread.  Each chunk counts its tuples per bin; prefix sums of
    the counts in chunk order give every chunk its own cursor into
    every bin, so each bin still holds its tuples in stream order.
    """
    eng = _require_engine()
    team = team or ThreadTeam()
    nbins = layout.nbins
    a_ptr = np.ascontiguousarray(a_csc.indptr, dtype=np.int64)
    a_rows = np.ascontiguousarray(a_csc.indices, dtype=np.int64)
    a_vals = np.ascontiguousarray(a_csc.data, dtype=np.float64)
    b_ptr = np.ascontiguousarray(b_csr.indptr, dtype=np.int64)
    b_cols = np.ascontiguousarray(b_csr.indices, dtype=np.int64)
    b_vals = np.ascontiguousarray(b_csr.data, dtype=np.float64)
    bin_of_row = np.ascontiguousarray(
        layout.bin_of_rows(np.arange(layout.nrows, dtype=np.int64)), dtype=np.int64
    )
    bin_lo = np.ascontiguousarray(layout.row_starts(), dtype=np.int64)
    if per_k is None:
        per_k = np.diff(a_ptr) * np.diff(b_ptr)
    chunks = _deal(per_k, team)
    counts = np.empty((len(chunks), nbins), dtype=np.int64)

    def count(c):
        lo, hi = chunks[c]
        eng.pb_bin_count(a_ptr[lo : hi + 1], a_rows, b_ptr[lo : hi + 1], bin_of_row, counts[c])

    team.map(count, range(len(chunks)))
    starts = np.zeros(nbins + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts.sum(axis=0), out=starts[1:])
    cursors = np.cumsum(counts, axis=0)
    cursors -= counts
    cursors += starts[:-1]
    flop = int(starts[-1])
    keys = np.empty(flop, dtype=layout.key_dtype)
    vals = np.empty(flop, dtype=np.float64)
    cap = max(int(local_tuples), 0)
    mop = multiply_opcode(semiring)

    def expand(c):
        lo, hi = chunks[c]
        lkeys, lvals, lfill = _local_bins(nbins, cap, layout.key_dtype)
        eng.pb_expand(
            a_ptr[lo : hi + 1], a_rows, a_vals, b_ptr[lo : hi + 1], b_cols, b_vals,
            bin_of_row, bin_lo, layout.col_bits, mop, cursors[c],
            cap, lkeys, lvals, lfill, keys, vals,
        )

    team.map(expand, range(len(chunks)))
    return keys, vals, starts


def pb_sort_bins_jit(keys, vals, starts, key_bits: int, team=None) -> int:
    """Stable LSD radix sort of every bin, in place; returns byte passes.

    Each bin ``[starts[b], starts[b+1])`` is sorted on its own with the
    ``radix_passes_*`` scheme (8-bit-class digits, warm per-thread
    record scratch sized to the largest bin), so no flop-sized output
    is allocated.  The stable permutation is the numpy radix's.  With a
    team, each thread sorts a contiguous range of bins dealt by tuple
    count.
    """
    eng = _require_engine()
    team = team or ThreadTeam()
    _check_bins(keys, vals, starts)
    sizes = np.diff(starts)
    if len(sizes) and int(sizes.max()) > 1:
        digit_bits = _sort_digit_bits(int(sizes.max()), key_bits)
        npasses = counting_passes(key_bits, digit_bits)
        ranges = _deal(sizes, team)
        vbits = vals.view(np.uint64)

        def sort(r):
            lo, hi = ranges[r]
            ra, rb = _sort_scratch(int(sizes[lo:hi].max()))
            eng.pb_sort_bins(
                keys, vbits, starts[lo : hi + 1], npasses, digit_bits, ra, rb, _hist()
            )

        team.map(sort, range(len(ranges)))
    return passes_for_bits(key_bits)


def pb_compress_bins_jit(keys, vals, starts, layout, semiring, team=None):
    """Fold each sorted bin's duplicate keys straight into CSR arrays.

    Returns ``(row_counts, indices, data)``: int64 columns and ⊕-folded
    values in row-major order, plus entries per output row, so the row
    pointer is one cumsum.  The fold replays the numpy compress bit for
    bit (see the C source).  ``vals`` is consumed: the values are
    compacted in place, and ``data`` is a view of it unless compression
    freed more than half of it, when it is copied so the product does
    not pin the tuple buffer.  ``indices`` is a prefix of a flop-sized
    buffer; serially its untouched tail is never faulted in.

    With a team, each thread folds the same bin ranges the sort dealt
    (bins own disjoint rows, so ``row_counts`` needs no merge), writing
    its output in place from its first bin's offset; one ordered pass
    then moves each range's output down behind the previous one.
    """
    eng = _require_engine()
    team = team or ThreadTeam()
    _check_bins(keys, vals, starts)
    if len(starts) != layout.nbins + 1:
        raise ValueError(f"expected {layout.nbins + 1} bin offsets, got {len(starts)}")
    flop = len(keys)
    cols = np.empty(flop, dtype=INDEX_DTYPE)
    row_counts = np.zeros(layout.nrows, dtype=np.int64)
    bin_lo = np.ascontiguousarray(layout.row_starts(), dtype=np.int64)
    op = semiring_opcode(semiring)
    ranges = _deal(np.diff(starts), team)

    def compress(r):
        lo, hi = ranges[r]
        base = int(starts[lo])
        return eng.pb_compress_bins(
            keys, vals, starts[lo : hi + 1], bin_lo[lo:hi], layout.col_bits, op,
            cols[base:], vals[base:], row_counts,
        )

    written = team.map(compress, range(len(ranges)))
    nnz = 0
    for (lo, _), n in zip(ranges, written):
        base = int(starts[lo])
        if base != nnz:
            cols[nnz : nnz + n] = cols[base : base + n]
            vals[nnz : nnz + n] = vals[base : base + n]
        nnz += n
    indices, data = cols[:nnz], vals[:nnz]
    if 2 * nnz < flop:
        data = data.copy()
        if len(ranges) > 1:  # the threads faulted in pages past nnz
            indices = indices.copy()
    return row_counts, indices, data
