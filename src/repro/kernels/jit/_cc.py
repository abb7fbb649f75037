r"""Runtime-compiled C engine for the JIT kernel tier.

One translation unit containing every compiled hot kernel (radix sort
passes, counting placement, panel sort+fold), built with
the system C compiler the probe found and loaded through
:mod:`ctypes`.  The build is cached on disk keyed by a hash of the
source (plus platform), so:

* the *first* process on a machine pays one ``cc -O3 -shared`` compile
  (hundreds of ms, charged to the ``jit_warmup_s`` stopwatch);
* every later process — including every process-pool worker, fork or
  spawn — finds the shared object already built and merely ``dlopen``\ s
  it.  This is the "workers reuse warm-compiled kernels, never re-JIT
  per dispatch" contract of the tier; forked workers inherit the loaded
  library outright.

The cache directory is ``$REPRO_JIT_CACHE_DIR``, else
``~/.cache/repro-jit``, else a per-user temp directory.  Builds are
race-safe: the object is compiled to a uniquely named temp file and
``os.replace``\ d into place, so concurrent first-calls at worst build
twice and atomically agree on the result.

Bit-identity contracts (asserted by ``tests/test_jit_backends.py``):

* ``radix_passes_*`` is a stable LSD counting sort — the stable sort
  permutation is unique, so sorted (key, payload) streams match the
  numpy counting-scatter path bit for bit.
* ``counting_argsort``/``place_pairs_*`` produce the same stable
  grouping permutation as ``np.argsort(binid, kind="stable")``.
* ``panel_process`` folds duplicate runs with a *sequential left fold
  starting from the run head's raw value* — exactly
  ``Semiring.fold_runs_masked``'s ``add_ufunc.at`` order (``np.add.at``
  / ``np.minimum.at`` / … are unbuffered sequential applications).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

__all__ = ["load", "build_seconds"]

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define API __attribute__((visibility("default")))

/* ---------------------------------------------------------------- */
/* Stable LSD counting-radix sort of (key, 8-byte payload) pairs.   */
/* digit_bits-wide digits (picked per call so the scatter's write   */
/* streams stay L1-resident — see _sort_digit_bits in __init__).    */
/*                                                                  */
/* All passes but the last scatter one interleaved 16-byte          */
/* (value, key) record per element into the ra/rb ping-pong         */
/* scratch (each uint64[2n]) — ONE random write stream per pass     */
/* instead of the two that separate key and value arrays cost; the  */
/* last pass unpacks records into the caller's out_k/out_v.  Each   */
/* scatter also histograms the NEXT pass's digit of the keys it     */
/* writes (same multiset either way), so only pass 0 runs a         */
/* standalone counting loop.  hist must hold 2 << digit_bits int64  */
/* (two alternating bucket arrays).  The sorted result is always    */
/* in out_k/out_v; returns 0.                                       */
/* ---------------------------------------------------------------- */
#define RADIX_IMPL(SUF, KT)                                           \
API int radix_passes_##SUF(                                           \
    const KT *keys_in, const uint64_t *vals_in,                       \
    KT *out_k, uint64_t *out_v, uint64_t *ra, uint64_t *rb,           \
    int64_t n, int npasses, int digit_bits, int64_t *hist)            \
{                                                                     \
    const int64_t nbuckets = (int64_t)1 << digit_bits;                \
    const uint64_t mask = (uint64_t)nbuckets - 1;                     \
    int64_t *h0 = hist;                                               \
    int64_t *h1 = hist + nbuckets;                                    \
    memset(h0, 0, (size_t)nbuckets * sizeof(int64_t));                \
    for (int64_t i = 0; i < n; ++i)                                   \
        h0[(size_t)((uint64_t)keys_in[i] & mask)]++;                  \
    uint64_t *src = ra;                                               \
    uint64_t *dst = ra;                                               \
    for (int p = 0; p < npasses; ++p) {                               \
        const int shift = digit_bits * p;                             \
        const int shift2 = shift + digit_bits;                        \
        const int last = (p + 1 == npasses);                          \
        int64_t acc = 0;                                              \
        for (int64_t d = 0; d < nbuckets; ++d) {                      \
            int64_t c = h0[d];                                        \
            h0[d] = acc;                                              \
            acc += c;                                                 \
        }                                                             \
        if (!last)                                                    \
            memset(h1, 0, (size_t)nbuckets * sizeof(int64_t));        \
        if (p == 0 && last) {                                         \
            for (int64_t i = 0; i < n; ++i) {                         \
                const KT k = keys_in[i];                              \
                int64_t pos =                                         \
                    h0[(size_t)(((uint64_t)k >> shift) & mask)]++;    \
                out_k[pos] = k;                                       \
                out_v[pos] = vals_in[i];                              \
            }                                                         \
        } else if (p == 0) {                                          \
            for (int64_t i = 0; i < n; ++i) {                         \
                const uint64_t k = (uint64_t)keys_in[i];              \
                int64_t pos = h0[(size_t)(k & mask)]++;               \
                uint64_t *r = dst + 2 * pos;                          \
                r[0] = vals_in[i];                                    \
                r[1] = k;                                             \
                h1[(size_t)((k >> shift2) & mask)]++;                 \
            }                                                         \
        } else if (last) {                                            \
            for (int64_t i = 0; i < n; ++i) {                         \
                const uint64_t *r = src + 2 * i;                      \
                const uint64_t k = r[1];                              \
                int64_t pos = h0[(size_t)((k >> shift) & mask)]++;    \
                out_k[pos] = (KT)k;                                   \
                out_v[pos] = r[0];                                    \
            }                                                         \
        } else {                                                      \
            for (int64_t i = 0; i < n; ++i) {                         \
                const uint64_t *r = src + 2 * i;                      \
                const uint64_t k = r[1];                              \
                int64_t pos = h0[(size_t)((k >> shift) & mask)]++;    \
                uint64_t *w = dst + 2 * pos;                          \
                w[0] = r[0];                                          \
                w[1] = k;                                             \
                h1[(size_t)((k >> shift2) & mask)]++;                 \
            }                                                         \
        }                                                             \
        int64_t *ht = h0; h0 = h1; h1 = ht;                           \
        src = dst;                                                    \
        dst = (dst == ra) ? rb : ra;                                  \
    }                                                                 \
    return 0;                                                         \
}

RADIX_IMPL(u16, uint16_t)
RADIX_IMPL(u32, uint32_t)
RADIX_IMPL(u64, uint64_t)

/* ---------------------------------------------------------------- */
/* Stable counting argsort of small non-negative int64 keys (bin    */
/* ids).  counts must hold nbins int64 (scratch, overwritten).      */
/* ---------------------------------------------------------------- */
API void counting_argsort_i64(
    const int64_t *binid, int64_t n, int64_t nbins,
    int64_t *counts, int64_t *order)
{
    memset(counts, 0, (size_t)nbins * sizeof(int64_t));
    for (int64_t i = 0; i < n; ++i)
        counts[binid[i]]++;
    int64_t acc = 0;
    for (int64_t b = 0; b < nbins; ++b) {
        int64_t c = counts[b];
        counts[b] = acc;
        acc += c;
    }
    for (int64_t i = 0; i < n; ++i)
        order[counts[binid[i]]++] = i;
}

/* ---------------------------------------------------------------- */
/* Fused counting distribute: scatter (key, payload) pairs straight */
/* into bin-grouped order without materializing the permutation.    */
/* counts (nbins scratch) holds each bin's END offset on return, so */
/* the caller reads bin_starts[b+1] out of it directly.             */
/* ---------------------------------------------------------------- */
#define PLACE_IMPL(SUF, KT)                                           \
API void place_pairs_##SUF(                                           \
    const KT *keys, const uint64_t *vals, const int64_t *binid,       \
    int64_t n, int64_t nbins, int64_t *counts,                        \
    KT *out_keys, uint64_t *out_vals)                                 \
{                                                                     \
    memset(counts, 0, (size_t)nbins * sizeof(int64_t));               \
    for (int64_t i = 0; i < n; ++i)                                   \
        counts[binid[i]]++;                                           \
    int64_t acc = 0;                                                  \
    for (int64_t b = 0; b < nbins; ++b) {                             \
        int64_t c = counts[b];                                        \
        counts[b] = acc;                                              \
        acc += c;                                                     \
    }                                                                 \
    for (int64_t i = 0; i < n; ++i) {                                 \
        int64_t pos = counts[binid[i]]++;                             \
        out_keys[pos] = keys[i];                                      \
        out_vals[pos] = vals[i];                                      \
    }                                                                 \
}

PLACE_IMPL(u32, uint32_t)
PLACE_IMPL(u64, uint64_t)

/* Semiring ⊕ op codes of panel_process and panel_fused. */
#define OP_ADD 0
#define OP_MIN 1
#define OP_MAX 2
#define OP_OR  3

/* np.minimum/np.maximum semantics: NaN in either operand wins. */
static inline double fold_min(double a, double v)
{
    double r = (v < a) ? v : a;
    if (v != v) r = v;
    return r;
}

static inline double fold_max(double a, double v)
{
    double r = (v > a) ? v : a;
    if (v != v) r = v;
    return r;
}

/* ---------------------------------------------------------------- */
/* Panel sort + segmented fold: stable counting sort of the panel   */
/* stream by row id (the same permutation as                        */
/* np.argsort(rows, kind="stable")), then one scan detecting        */
/* duplicate (row, col) runs, folding each run sequentially from    */
/* the head's raw value — Semiring.fold_runs_masked's add_ufunc.at  */
/* order — and counting surviving entries per row.                  */
/*                                                                  */
/* hist: 65536 int64 scratch (row histogram / radix digits).        */
/* tr/tc/tv: n-sized sort buffers.  out_*: n-sized outputs, first   */
/* n_out entries valid.  row_counts: m int64, zeroed here.          */
/* Rows must be < m <= 2^32.  When m > 65536 the stable row sort    */
/* runs as two 16-bit LSD passes using the out_* arrays as the      */
/* intermediate buffer (they are rewritten by the fold scan).       */
/* The u16 variant (rows AND cols < 2^16) halves the index traffic  */
/* of the sort scatter — the common sub-65536-square panel case.    */
/* ---------------------------------------------------------------- */
#define PANEL_IMPL(SUF, IT)                                           \
API int64_t panel_process_##SUF(                                      \
    const IT *rows, const IT *cols, const double *vals,               \
    int64_t n, int64_t m, int op, int64_t *hist,                      \
    IT *tr, IT *tc, double *tv,                                       \
    IT *out_rows, IT *out_cols, double *out_vals,                     \
    int64_t *row_counts)                                              \
{                                                                     \
    memset(row_counts, 0, (size_t)m * sizeof(int64_t));               \
    if (n == 0)                                                       \
        return 0;                                                     \
                                                                      \
    if (m <= 65536) {                                                 \
        /* One counting pass keyed by the row id itself. */           \
        memset(hist, 0, (size_t)m * sizeof(int64_t));                 \
        for (int64_t i = 0; i < n; ++i)                               \
            hist[rows[i]]++;                                          \
        int64_t acc = 0;                                              \
        for (int64_t r = 0; r < m; ++r) {                             \
            int64_t c = hist[r];                                      \
            hist[r] = acc;                                            \
            acc += c;                                                 \
        }                                                             \
        for (int64_t i = 0; i < n; ++i) {                             \
            int64_t pos = hist[rows[i]]++;                            \
            tr[pos] = rows[i];                                        \
            tc[pos] = cols[i];                                        \
            tv[pos] = vals[i];                                        \
        }                                                             \
    } else {                                                          \
        /* Two stable 16-bit LSD passes over the 32-bit row id. */    \
        memset(hist, 0, 65536 * sizeof(int64_t));                     \
        for (int64_t i = 0; i < n; ++i)                               \
            hist[rows[i] & 0xFFFF]++;                                 \
        int64_t acc = 0;                                              \
        for (int d = 0; d < 65536; ++d) {                             \
            int64_t c = hist[d];                                      \
            hist[d] = acc;                                            \
            acc += c;                                                 \
        }                                                             \
        for (int64_t i = 0; i < n; ++i) {                             \
            int64_t pos = hist[rows[i] & 0xFFFF]++;                   \
            out_rows[pos] = rows[i];                                  \
            out_cols[pos] = cols[i];                                  \
            out_vals[pos] = vals[i];                                  \
        }                                                             \
        memset(hist, 0, 65536 * sizeof(int64_t));                     \
        for (int64_t i = 0; i < n; ++i)                               \
            hist[((uint32_t)out_rows[i] >> 16) & 0xFFFF]++;           \
        acc = 0;                                                      \
        for (int d = 0; d < 65536; ++d) {                             \
            int64_t c = hist[d];                                      \
            hist[d] = acc;                                            \
            acc += c;                                                 \
        }                                                             \
        for (int64_t i = 0; i < n; ++i) {                             \
            int64_t pos = hist[((uint32_t)out_rows[i] >> 16) & 0xFFFF]++; \
            tr[pos] = out_rows[i];                                    \
            tc[pos] = out_cols[i];                                    \
            tv[pos] = out_vals[i];                                    \
        }                                                             \
    }                                                                 \
                                                                      \
    /* Run detection + sequential fold + compaction + histogram. */   \
    int64_t nout = 0;                                                 \
    for (int64_t i = 0; i < n; ++i) {                                 \
        if (i > 0 && tr[i] == tr[i - 1] && tc[i] == tc[i - 1]) {      \
            double v = tv[i];                                         \
            double a = out_vals[nout - 1];                            \
            switch (op) {                                             \
            case OP_ADD:                                              \
                out_vals[nout - 1] = a + v;                           \
                break;                                                \
            case OP_MIN:                                              \
                out_vals[nout - 1] = fold_min(a, v);                  \
                break;                                                \
            case OP_MAX:                                              \
                out_vals[nout - 1] = fold_max(a, v);                  \
                break;                                                \
            default: /* OP_OR: logical_or.at into a float64 out */    \
                out_vals[nout - 1] = (a != 0.0 || v != 0.0) ? 1.0 : 0.0; \
                break;                                                \
            }                                                         \
        } else {                                                      \
            out_rows[nout] = tr[i];                                   \
            out_cols[nout] = tc[i];                                   \
            out_vals[nout] = tv[i]; /* run head keeps its raw value */\
            row_counts[tr[i]]++;                                      \
            nout++;                                                   \
        }                                                             \
    }                                                                 \
    return nout;                                                      \
}

PANEL_IMPL(u16, uint16_t)
PANEL_IMPL(u32, uint32_t)

/* Semiring ⊗ op codes for the fused panel kernel. */
#define MUL_TIMES 0
#define MUL_PLUS  1
#define MUL_AND   2
#define MUL_PAIR  3

/* ---------------------------------------------------------------- */
/* Fused panel SpGEMM: expansion gather + ⊗ + stable row sort +     */
/* col-run ⊕ fold in one kernel, never materializing the tuple      */
/* stream the numpy path builds (expand_cols_range + repeat +       */
/* argsort).  The expansion is walked twice straight off the CSC    */
/* structure: pass 1 counts rows (prefix sum = stable positions),   */
/* pass 2 recomputes each product and scatters (col, val) into      */
/* row-grouped order — row ids are implicit in the segment, so      */
/* only 10 bytes move per tuple.  Pass 3 folds duplicate col runs   */
/* per row segment exactly like panel_process.                      */
/*                                                                  */
/* a_ptr/a_rows/a_vals: A in CSC (rows pre-cast to uint16).         */
/* bk/bv: the panel's B entries (k id, value), output-column-major. */
/* col_ptr: ncols+1 B-entry offsets of each output column.          */
/* hist/wk: m- and nk-sized int64 scratch (nk = len(a_ptr) - 1).    */
/* tvc: 2*ntuples float64 — interleaved (value, col) records, so    */
/* the stable scatter dirties ONE cache line per tuple instead of   */
/* two (separate col and val streams land on different lines for    */
/* nearly every tuple once the panel spans more rows than cache).   */
/* out_*: ntuples-sized outputs.  row_counts: m int64, written.     */
/* Requires m <= 65536 and output cols < 65536 (uint16 envelope;    */
/* col ids round-trip exactly through the double slot).             */
/* ---------------------------------------------------------------- */
API int64_t panel_fused_u16(
    const int64_t *a_ptr, const uint16_t *a_rows, const double *a_vals,
    const int64_t *bk, const double *bv, const int64_t *col_ptr,
    int64_t ncols, int64_t nk, int64_t j_lo, int64_t m, int op, int mop,
    int64_t *hist, int64_t *wk, double *tvc,
    uint16_t *out_rows, uint16_t *out_cols, double *out_vals,
    int64_t *row_counts)
{
    memset(row_counts, 0, (size_t)m * sizeof(int64_t));
    memset(hist, 0, (size_t)m * sizeof(int64_t));
    memset(wk, 0, (size_t)nk * sizeof(int64_t));
    const int64_t ne = col_ptr[ncols];

    /* Pass 1: row histogram over the implicit expansion.  Each B    */
    /* entry with inner id k contributes A's column k once, so count */
    /* k multiplicities first and walk each touched A column once    */
    /* with that weight — repeated inner ids then cost nothing.      */
    for (int64_t e = 0; e < ne; ++e)
        wk[bk[e]]++;
    for (int64_t k = 0; k < nk; ++k) {
        const int64_t w = wk[k];
        if (w == 0)
            continue;
        for (int64_t i = a_ptr[k]; i < a_ptr[k + 1]; ++i)
            hist[a_rows[i]] += w;
    }
    int64_t acc = 0;
    for (int64_t r = 0; r < m; ++r) {
        int64_t c = hist[r];
        hist[r] = acc;
        acc += c;
    }
    if (acc == 0)
        return 0;

    /* Pass 2: expand + ⊗ + stable scatter into row-grouped order. */
    for (int64_t j = 0; j < ncols; ++j) {
        const double cjd = (double)(j_lo + j);
        for (int64_t e = col_ptr[j]; e < col_ptr[j + 1]; ++e) {
            const int64_t k = bk[e];
            const double b = bv[e];
            for (int64_t i = a_ptr[k]; i < a_ptr[k + 1]; ++i) {
                const int64_t pos = hist[a_rows[i]]++;
                double *rec = tvc + 2 * pos;
                switch (mop) {
                case MUL_TIMES:
                    rec[0] = a_vals[i] * b;
                    break;
                case MUL_PLUS:
                    rec[0] = a_vals[i] + b;
                    break;
                case MUL_AND:
                    rec[0] = (a_vals[i] != 0.0 && b != 0.0) ? 1.0 : 0.0;
                    break;
                default: /* MUL_PAIR */
                    rec[0] = 1.0;
                    break;
                }
                rec[1] = cjd;
            }
        }
    }

    /* Pass 3: per-row-segment col-run fold + compaction. */
    int64_t nout = 0;
    int64_t seg_lo = 0;
    for (int64_t r = 0; r < m; ++r) {
        const int64_t seg_hi = hist[r]; /* segment end after pass 2 */
        const int64_t head = nout;
        for (int64_t i = seg_lo; i < seg_hi; ++i) {
            const double ci = tvc[2 * i + 1];
            if (i > seg_lo && ci == tvc[2 * i - 1]) {
                const double v = tvc[2 * i];
                const double a = out_vals[nout - 1];
                switch (op) {
                case OP_ADD:
                    out_vals[nout - 1] = a + v;
                    break;
                case OP_MIN:
                    out_vals[nout - 1] = fold_min(a, v);
                    break;
                case OP_MAX:
                    out_vals[nout - 1] = fold_max(a, v);
                    break;
                default: /* OP_OR */
                    out_vals[nout - 1] = (a != 0.0 || v != 0.0) ? 1.0 : 0.0;
                    break;
                }
            } else {
                out_rows[nout] = (uint16_t)r;
                out_cols[nout] = (uint16_t)ci;
                out_vals[nout] = tvc[2 * i]; /* run head keeps raw value */
                nout++;
            }
        }
        row_counts[r] = nout - head;
        seg_lo = seg_hi;
    }
    return nout;
}
"""

_P = ctypes.POINTER
_i64 = ctypes.c_int64
_int = ctypes.c_int
_u16p = _P(ctypes.c_uint16)
_u32p = _P(ctypes.c_uint32)
_u64p = _P(ctypes.c_uint64)
_i64p = _P(ctypes.c_int64)
_f64p = _P(ctypes.c_double)

#: name -> (restype, argtypes)
_SIGNATURES = {
    "radix_passes_u16": (
        _int,
        [_u16p, _u64p, _u16p, _u64p, _u64p, _u64p, _i64, _int, _int, _i64p],
    ),
    "radix_passes_u32": (
        _int,
        [_u32p, _u64p, _u32p, _u64p, _u64p, _u64p, _i64, _int, _int, _i64p],
    ),
    "radix_passes_u64": (
        _int,
        [_u64p, _u64p, _u64p, _u64p, _u64p, _u64p, _i64, _int, _int, _i64p],
    ),
    "counting_argsort_i64": (None, [_i64p, _i64, _i64, _i64p, _i64p]),
    "place_pairs_u32": (
        None, [_u32p, _u64p, _i64p, _i64, _i64, _i64p, _u32p, _u64p]
    ),
    "place_pairs_u64": (
        None, [_u64p, _u64p, _i64p, _i64, _i64, _i64p, _u64p, _u64p]
    ),
    "panel_process_u16": (
        _i64,
        [
            _u16p, _u16p, _f64p, _i64, _i64, _int, _i64p,
            _u16p, _u16p, _f64p, _u16p, _u16p, _f64p, _i64p,
        ],
    ),
    "panel_process_u32": (
        _i64,
        [
            _u32p, _u32p, _f64p, _i64, _i64, _int, _i64p,
            _u32p, _u32p, _f64p, _u32p, _u32p, _f64p, _i64p,
        ],
    ),
    "panel_fused_u16": (
        _i64,
        [
            _i64p, _u16p, _f64p, _i64p, _f64p, _i64p,
            _i64, _i64, _i64, _i64, _int, _int,
            _i64p, _i64p, _f64p, _u16p, _u16p, _f64p, _i64p,
        ],
    ),
}

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_build_seconds = 0.0


def _cache_dir() -> str:
    env = os.environ.get("REPRO_JIT_CACHE_DIR")
    if env:
        return env
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro-jit")
    return os.path.join(tempfile.gettempdir(), f"repro-jit-{os.getuid()}")


def _lib_path() -> str:
    tag = hashlib.sha256(
        (C_SOURCE + sys.platform + str(ctypes.sizeof(ctypes.c_void_p))).encode()
    ).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"reprojit-{tag}.so")


def _compile(compiler: str, out_path: str) -> None:
    cache = os.path.dirname(out_path)
    os.makedirs(cache, exist_ok=True)
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache)
    tmp_out = src_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(C_SOURCE)
        cmd = [compiler, "-O3", "-shared", "-fPIC", "-o", tmp_out, src_path]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(
                f"JIT cc build failed ({' '.join(cmd)}): {proc.stderr[-2000:]}"
            )
        # Atomic publish: concurrent first-calls may both build, but
        # the rename makes them agree; warm processes never get here.
        os.replace(tmp_out, out_path)
    finally:
        for leftover in (src_path, tmp_out):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def load(compiler: str) -> ctypes.CDLL:
    """Load (building at most once per machine) the kernel library."""
    global _lib, _build_seconds
    if _lib is not None:
        return _lib
    with _lock:
        if _lib is not None:
            return _lib
        t0 = time.perf_counter()
        path = _lib_path()
        if not os.path.exists(path):
            _compile(compiler, path)
        lib = ctypes.CDLL(path)
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
        _build_seconds = time.perf_counter() - t0
        _lib = lib
    return _lib


def build_seconds() -> float:
    """Wall seconds the last :func:`load` spent building/loading."""
    return _build_seconds


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctype)


class CCEngine:
    """Numpy-array façade over the C symbols (one per process)."""

    name = "cc"

    def __init__(self, compiler: str):
        self._lib = load(compiler)

    # -- radix ------------------------------------------------------
    _RADIX = {2: ("radix_passes_u16", _u16p),
              4: ("radix_passes_u32", _u32p),
              8: ("radix_passes_u64", _u64p)}

    def radix_passes(
        self, keys_in, vals_in, out_k, out_v, ra, rb, npasses, digit_bits, hist
    ):
        sym, kp = self._RADIX[keys_in.dtype.itemsize]
        return getattr(self._lib, sym)(
            _ptr(keys_in, kp), _ptr(vals_in, _u64p),
            _ptr(out_k, kp), _ptr(out_v, _u64p),
            _ptr(ra, _u64p), _ptr(rb, _u64p),
            len(keys_in), npasses, digit_bits, _ptr(hist, _i64p),
        )

    # -- distribute -------------------------------------------------
    def counting_argsort(self, binid, counts, order):
        self._lib.counting_argsort_i64(
            _ptr(binid, _i64p), len(binid), len(counts),
            _ptr(counts, _i64p), _ptr(order, _i64p),
        )

    _PLACE = {4: ("place_pairs_u32", _u32p), 8: ("place_pairs_u64", _u64p)}

    def place_pairs(self, keys, vals, binid, counts, out_keys, out_vals):
        sym, kp = self._PLACE[keys.dtype.itemsize]
        getattr(self._lib, sym)(
            _ptr(keys, kp), _ptr(vals, _u64p), _ptr(binid, _i64p),
            len(keys), len(counts), _ptr(counts, _i64p),
            _ptr(out_keys, kp), _ptr(out_vals, _u64p),
        )

    # -- panel ------------------------------------------------------
    _PANEL = {2: ("panel_process_u16", _u16p), 4: ("panel_process_u32", _u32p)}

    def panel_process(
        self, rows, cols, vals, m, op, hist,
        tr, tc, tv, out_rows, out_cols, out_vals, row_counts,
    ):
        sym, ip = self._PANEL[rows.dtype.itemsize]
        return getattr(self._lib, sym)(
            _ptr(rows, ip), _ptr(cols, ip), _ptr(vals, _f64p),
            len(rows), m, op, _ptr(hist, _i64p),
            _ptr(tr, ip), _ptr(tc, ip), _ptr(tv, _f64p),
            _ptr(out_rows, ip), _ptr(out_cols, ip), _ptr(out_vals, _f64p),
            _ptr(row_counts, _i64p),
        )

    def panel_fused(
        self, a_ptr, a_rows, a_vals, bk, bv, col_ptr, j_lo, m, op, mop,
        hist, wk, tvc, out_rows, out_cols, out_vals, row_counts,
    ):
        return self._lib.panel_fused_u16(
            _ptr(a_ptr, _i64p), _ptr(a_rows, _u16p), _ptr(a_vals, _f64p),
            _ptr(bk, _i64p), _ptr(bv, _f64p), _ptr(col_ptr, _i64p),
            len(col_ptr) - 1, len(a_ptr) - 1, j_lo, m, op, mop,
            _ptr(hist, _i64p), _ptr(wk, _i64p), _ptr(tvc, _f64p),
            _ptr(out_rows, _u16p), _ptr(out_cols, _u16p),
            _ptr(out_vals, _f64p), _ptr(row_counts, _i64p),
        )
