r"""Runtime-compiled C engine for the JIT kernel tier.

One translation unit containing every compiled hot kernel (the panel
sort+fold of the column kernels, the serial PB pipeline: bin count,
expand into bins, per-bin sort, per-bin compress into CSR, and the
CSR/CSC counting transpose),
built with the system C compiler the probe found and loaded through
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

Bit-identity contracts (asserted by ``tests/test_jit_backends.py`` and
``tests/test_column_harness.py``):

* every compiled fold — ``pb_compress_bins_*``, ``panel_process_*``,
  ``panel_fused_u16`` — goes through one ``static inline`` ⊕ step
  (``fold_head`` / ``fold_step``): a *sequential left fold starting
  from the run head's raw value*, storing NaN as the canonical quiet
  NaN — exactly :meth:`repro.semiring.Semiring.fold` (``add_ufunc.at``
  applies duplicates unbuffered, in stream order), down to signed
  zeros and NaNs;
* ``pb_expand_*`` fills each bin in expansion order and
  ``pb_sort_bins_*`` is a stable LSD counting sort (the stable sort
  permutation is unique), so every bin matches the numpy expand +
  stable distribute + sort.
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
/* in out_k/out_v; returns 0.  Internal to pb_sort_bins_*.          */
/* ---------------------------------------------------------------- */
#define RADIX_IMPL(SUF, KT)                                           \
static int radix_passes_##SUF(                                        \
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

RADIX_IMPL(u32, uint32_t)
RADIX_IMPL(u64, uint64_t)

/* Semiring ⊕ op codes of every compiled fold. */
#define OP_ADD 0
#define OP_MIN 1
#define OP_MAX 2
#define OP_OR  3

/* ---------------------------------------------------------------- */
/* The one ⊕ fold of every compiled kernel (pb_compress_bins_*,     */
/* panel_process_*, panel_fused_u16) — Semiring.fold's order: each  */
/* run is a sequential left fold in stream order that starts from   */
/* the run head's raw value, ((v0 ⊕ v1) ⊕ v2) ⊕ ...  fold_head is   */
/* what a fold stores for a run head, fold_step one ⊕ application;  */
/* both store a NaN as the canonical quiet NaN (numpy's np.nan      */
/* bits, Semiring.fold's canonical_nan), so the sign and payload    */
/* ⊗/⊕ operand order would pick never show.  Each op is its ufunc   */
/* exactly: min/max keep a NaN accumulator, else let a NaN v win,   */
/* else return v on ties (0.0 vs -0.0); or is 1.0 when either       */
/* operand is nonzero (np.logical_or into a float64 out).           */
/* ---------------------------------------------------------------- */
static inline double fold_head(double v)
{
    static const uint64_t qnan_bits = 0x7FF8000000000000ULL;
    double q;
    if (v == v)
        return v;
    memcpy(&q, &qnan_bits, sizeof q);
    return q;
}

static inline double fold_step(int op, double a, double v)
{
    switch (op) {
    case OP_ADD:
        return fold_head(a + v);
    case OP_MIN:
        if (a != a) return a;
        if (v != v) return fold_head(v);
        return (a < v) ? a : v;
    case OP_MAX:
        if (a != a) return a;
        if (v != v) return fold_head(v);
        return (a > v) ? a : v;
    default: /* OP_OR */
        return (a != 0.0 || v != 0.0) ? 1.0 : 0.0;
    }
}

/* ---------------------------------------------------------------- */
/* Panel sort + segmented fold: stable counting sort of the panel   */
/* stream by row id (the same permutation as                        */
/* np.argsort(rows, kind="stable")), then one scan detecting        */
/* duplicate (row, col) runs, folding each run with fold_head /     */
/* fold_step, and counting surviving entries per row.               */
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
            out_vals[nout - 1] =                                      \
                fold_step(op, out_vals[nout - 1], tv[i]);             \
        } else {                                                      \
            out_rows[nout] = tr[i];                                   \
            out_cols[nout] = tc[i];                                   \
            out_vals[nout] = fold_head(tv[i]);                        \
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
                out_vals[nout - 1] =
                    fold_step(op, out_vals[nout - 1], tvc[2 * i]);
            } else {
                out_rows[nout] = (uint16_t)r;
                out_cols[nout] = (uint16_t)ci;
                out_vals[nout] = fold_head(tvc[2 * i]);
                nout++;
            }
        }
        row_counts[r] = nout - head;
        seg_lo = seg_hi;
    }
    return nout;
}

/* ================================================================ */
/* Serial PB-SpGEMM (Alg. 2): bin count, expand into bins,          */
/* per-bin radix sort, per-bin compress straight into CSR arrays.   */
/* A is CSC (a_ptr/a_rows/a_vals), B is CSR (b_ptr/b_cols/b_vals);  */
/* bin_of_row maps an output row to its bin, bin_lo holds each      */
/* bin's first row, so a tuple's packed key is                      */
/* ((row - bin_lo[bin]) << col_bits) | col (Sec. III-D).            */
/* ================================================================ */

static inline double mul_op(int mop, double a, double b)
{
    switch (mop) {
    case MUL_TIMES:
        return a * b;
    case MUL_PLUS:
        return a + b;
    case MUL_AND:
        return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    default: /* MUL_PAIR */
        return 1.0;
    }
}

/* Symbolic bin sizing: every A(r,k) contributes nnz(B(k,:)) tuples */
/* to bin_of_row[r].  counts (nbins) is overwritten.                */
API void pb_bin_count(
    const int64_t *a_ptr, const int64_t *a_rows, const int64_t *b_ptr,
    int64_t nk, const int64_t *bin_of_row, int64_t nbins, int64_t *counts)
{
    memset(counts, 0, (size_t)nbins * sizeof(int64_t));
    for (int64_t k = 0; k < nk; ++k) {
        const int64_t w = b_ptr[k + 1] - b_ptr[k];
        if (w == 0)
            continue;
        for (int64_t i = a_ptr[k]; i < a_ptr[k + 1]; ++i)
            counts[bin_of_row[a_rows[i]]] += w;
    }
}

/* Expand: walk k, then A(:,k), then B(k,:) — the numpy expansion   */
/* order — so every bin receives its tuples in stream order.  With  */
/* local_cap > 0 each tuple is appended to its bin's thread-private */
/* local bin (lkeys/lvals, local_cap tuples per bin, Fig. 5) and a  */
/* full local bin is copied to the global bin in one block; with    */
/* local_cap == 0 every tuple is written to the global bin directly.*/
/* cursor holds each bin's start offset on entry, its end on exit.  */
#define PB_EXPAND_IMPL(SUF, KT)                                       \
API void pb_expand_##SUF(                                             \
    const int64_t *a_ptr, const int64_t *a_rows, const double *a_vals,\
    const int64_t *b_ptr, const int64_t *b_cols, const double *b_vals,\
    int64_t nk, const int64_t *bin_of_row, const int64_t *bin_lo,     \
    int col_bits, int mop, int64_t nbins, int64_t *cursor,            \
    int64_t local_cap, KT *lkeys, double *lvals, int64_t *lfill,      \
    KT *out_keys, double *out_vals)                                   \
{                                                                     \
    if (local_cap > 0)                                                \
        memset(lfill, 0, (size_t)nbins * sizeof(int64_t));           \
    for (int64_t k = 0; k < nk; ++k) {                                \
        const int64_t bs = b_ptr[k], be = b_ptr[k + 1];               \
        if (bs == be)                                                 \
            continue;                                                 \
        for (int64_t i = a_ptr[k]; i < a_ptr[k + 1]; ++i) {           \
            const int64_t r = a_rows[i];                              \
            const int64_t bin = bin_of_row[r];                        \
            const KT kp = (KT)(r - bin_lo[bin]) << col_bits;          \
            const double av = a_vals[i];                              \
            if (local_cap > 0) {                                      \
                KT *lk = lkeys + bin * local_cap;                     \
                double *lv = lvals + bin * local_cap;                 \
                int64_t f = lfill[bin];                               \
                for (int64_t e = bs; e < be; ++e) {                   \
                    lk[f] = kp | (KT)b_cols[e];                       \
                    lv[f] = mul_op(mop, av, b_vals[e]);               \
                    if (++f == local_cap) {                           \
                        const int64_t pos = cursor[bin];              \
                        memcpy(out_keys + pos, lk,                    \
                               (size_t)local_cap * sizeof(KT));       \
                        memcpy(out_vals + pos, lv,                    \
                               (size_t)local_cap * sizeof(double));   \
                        cursor[bin] = pos + local_cap;                \
                        f = 0;                                        \
                    }                                                 \
                }                                                     \
                lfill[bin] = f;                                       \
            } else {                                                  \
                int64_t pos = cursor[bin];                            \
                for (int64_t e = bs; e < be; ++e, ++pos) {            \
                    out_keys[pos] = kp | (KT)b_cols[e];               \
                    out_vals[pos] = mul_op(mop, av, b_vals[e]);       \
                }                                                     \
                cursor[bin] = pos;                                    \
            }                                                         \
        }                                                             \
    }                                                                 \
    if (local_cap > 0) {                                              \
        for (int64_t bin = 0; bin < nbins; ++bin) {                   \
            const int64_t f = lfill[bin];                             \
            const int64_t pos = cursor[bin];                          \
            memcpy(out_keys + pos, lkeys + bin * local_cap,           \
                   (size_t)f * sizeof(KT));                           \
            memcpy(out_vals + pos, lvals + bin * local_cap,           \
                   (size_t)f * sizeof(double));                       \
            cursor[bin] = pos + f;                                    \
        }                                                             \
    }                                                                 \
}

PB_EXPAND_IMPL(u32, uint32_t)
PB_EXPAND_IMPL(u64, uint64_t)

/* Sort each bin [starts[b], starts[b+1]) in place with the stable  */
/* LSD radix above (the output aliases the input: pass 0 only reads */
/* it, the last pass only writes it).  A one-pass sort stages the   */
/* bin as records in ra first.  ra/rb hold 2 * (largest bin) each.  */
#define PB_SORT_IMPL(SUF, KT)                                         \
API void pb_sort_bins_##SUF(                                          \
    KT *keys, uint64_t *vals, const int64_t *starts, int64_t nbins,   \
    int npasses, int digit_bits, uint64_t *ra, uint64_t *rb,          \
    int64_t *hist)                                                    \
{                                                                     \
    const int64_t nbuckets = (int64_t)1 << digit_bits;                \
    const uint64_t mask = (uint64_t)nbuckets - 1;                     \
    for (int64_t b = 0; b < nbins; ++b) {                             \
        const int64_t lo = starts[b];                                 \
        const int64_t n = starts[b + 1] - lo;                         \
        if (n < 2)                                                    \
            continue;                                                 \
        KT *k = keys + lo;                                            \
        uint64_t *v = vals + lo;                                      \
        if (npasses >= 2) {                                           \
            radix_passes_##SUF(k, v, k, v, ra, rb, n, npasses,        \
                               digit_bits, hist);                     \
            continue;                                                 \
        }                                                             \
        memset(hist, 0, (size_t)nbuckets * sizeof(int64_t));          \
        for (int64_t i = 0; i < n; ++i) {                             \
            ra[2 * i] = v[i];                                         \
            ra[2 * i + 1] = (uint64_t)k[i];                           \
            hist[(size_t)((uint64_t)k[i] & mask)]++;                  \
        }                                                             \
        int64_t acc = 0;                                              \
        for (int64_t d = 0; d < nbuckets; ++d) {                      \
            int64_t c = hist[d];                                      \
            hist[d] = acc;                                            \
            acc += c;                                                 \
        }                                                             \
        for (int64_t i = 0; i < n; ++i) {                             \
            const uint64_t key = ra[2 * i + 1];                       \
            int64_t pos = hist[(size_t)(key & mask)]++;               \
            k[pos] = (KT)key;                                         \
            v[pos] = ra[2 * i];                                       \
        }                                                             \
    }                                                                 \
}

PB_SORT_IMPL(u32, uint32_t)
PB_SORT_IMPL(u64, uint64_t)

/* Compress each sorted bin: fold every run of equal keys with      */
/* fold_head / fold_step (Semiring.fold's order, as the numpy        */
/* compress does), write the run's column (int64) and value at the  */
/* output cursor and count it in row_counts (m int64, zeroed by the */
/* caller), so the CSR row pointer is one cumsum away.  Keys are    */
/* sorted, so one row's entries are adjacent: the scan walks a bin  */
/* row by row and adds each row's count (outputs written since the  */
/* row began, a register difference) once, when the row ends,       */
/* instead of incrementing a counter in memory per output entry.    */
/* The public entry dispatches on op once, so each ⊕ gets its own   */
/* copy of the loop with fold_step's switch resolved.  out_vals may */
/* alias vals: a run is read before its output slot, which never    */
/* lies past it, is written.  Returns the number of entries written.*/
#define PB_COMPRESS_IMPL(SUF, KT)                                     \
static inline __attribute__((always_inline)) int64_t                  \
compress_bins_##SUF(                                                  \
    const KT *keys, const double *vals, const int64_t *starts,        \
    int64_t nbins, const int64_t *bin_lo, int col_bits, const int op, \
    int64_t *out_cols, double *out_vals, int64_t *row_counts)         \
{                                                                     \
    const KT cmask = (KT)(((KT)1 << col_bits) - 1);                   \
    int64_t o = 0;                                                    \
    for (int64_t b = 0; b < nbins; ++b) {                             \
        const int64_t hi = starts[b + 1];                             \
        int64_t *rc = row_counts + bin_lo[b];                         \
        int64_t i = starts[b];                                        \
        while (i < hi) {                                              \
            const uint64_t row = (uint64_t)keys[i] >> col_bits;       \
            const uint64_t row_end = (row + 1) << col_bits;           \
            const int64_t row_o = o;                                  \
            do {                                                      \
                const KT key = keys[i];                               \
                double acc = fold_head(vals[i]);                      \
                int64_t j = i + 1;                                    \
                for (; j < hi && keys[j] == key; ++j)                 \
                    acc = fold_step(op, acc, vals[j]);                \
                out_cols[o] = (int64_t)(key & cmask);                 \
                out_vals[o] = acc;                                    \
                ++o;                                                  \
                i = j;                                                \
            } while (i < hi && (uint64_t)keys[i] < row_end);          \
            rc[row] += o - row_o;                                     \
        }                                                             \
    }                                                                 \
    return o;                                                         \
}                                                                     \
                                                                      \
API int64_t pb_compress_bins_##SUF(                                   \
    const KT *keys, const double *vals, const int64_t *starts,        \
    int64_t nbins, const int64_t *bin_lo, int col_bits, int op,       \
    int64_t *out_cols, double *out_vals, int64_t *row_counts)         \
{                                                                     \
    switch (op) {                                                     \
    case OP_ADD:                                                      \
        return compress_bins_##SUF(keys, vals, starts, nbins, bin_lo, \
            col_bits, OP_ADD, out_cols, out_vals, row_counts);        \
    case OP_MIN:                                                      \
        return compress_bins_##SUF(keys, vals, starts, nbins, bin_lo, \
            col_bits, OP_MIN, out_cols, out_vals, row_counts);        \
    case OP_MAX:                                                      \
        return compress_bins_##SUF(keys, vals, starts, nbins, bin_lo, \
            col_bits, OP_MAX, out_cols, out_vals, row_counts);        \
    default:                                                          \
        return compress_bins_##SUF(keys, vals, starts, nbins, bin_lo, \
            col_bits, OP_OR, out_cols, out_vals, row_counts);         \
    }                                                                 \
}

PB_COMPRESS_IMPL(u32, uint32_t)
PB_COMPRESS_IMPL(u64, uint64_t)

/* ---------------------------------------------------------------- */
/* Stable counting transpose of a compressed (CSR or CSC) structure */
/* with nmajor segments over minor ids in [0, nminor): a histogram  */
/* of the minor ids, a prefix sum into out_ptr, then one scatter in */
/* stream order of each entry's major id and its 8 value bytes —    */
/* the permutation np.argsort(idx, kind="stable") gives.  out_ptr   */
/* (nminor + 1) serves as the scatter cursor and is shifted back    */
/* into a pointer afterwards.  Returns 0, or -1 (nothing useful     */
/* written) when ptr is not a non-decreasing pointer from 0 to nnz  */
/* or a minor id falls outside [0, nminor).                         */
/* ---------------------------------------------------------------- */
API int csx_transpose(
    const int64_t *ptr, const int64_t *idx, const uint64_t *vals,
    int64_t nmajor, int64_t nminor, int64_t nnz,
    int64_t *out_ptr, int64_t *out_idx, uint64_t *out_vals)
{
    if (ptr[0] != 0 || ptr[nmajor] != nnz)
        return -1;
    for (int64_t i = 0; i < nmajor; ++i)
        if (ptr[i + 1] < ptr[i])
            return -1;
    memset(out_ptr, 0, (size_t)(nminor + 1) * sizeof(int64_t));
    for (int64_t e = 0; e < nnz; ++e) {
        const int64_t j = idx[e];
        if ((uint64_t)j >= (uint64_t)nminor)
            return -1;
        out_ptr[j + 1]++;
    }
    for (int64_t j = 0; j < nminor; ++j)
        out_ptr[j + 1] += out_ptr[j];
    for (int64_t i = 0; i < nmajor; ++i) {
        for (int64_t e = ptr[i]; e < ptr[i + 1]; ++e) {
            const int64_t pos = out_ptr[idx[e]]++;
            out_idx[pos] = i;
            out_vals[pos] = vals[e];
        }
    }
    memmove(out_ptr + 1, out_ptr, (size_t)nminor * sizeof(int64_t));
    out_ptr[0] = 0;
    return 0;
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
    "pb_bin_count": (None, [_i64p, _i64p, _i64p, _i64, _i64p, _i64, _i64p]),
    "csx_transpose": (
        _int, [_i64p, _i64p, _u64p, _i64, _i64, _i64, _i64p, _i64p, _u64p]
    ),
}
for _suf, _kp in (("u32", _u32p), ("u64", _u64p)):
    _SIGNATURES[f"pb_expand_{_suf}"] = (
        None,
        [
            _i64p, _i64p, _f64p, _i64p, _i64p, _f64p,
            _i64, _i64p, _i64p, _int, _int, _i64, _i64p,
            _i64, _kp, _f64p, _i64p, _kp, _f64p,
        ],
    )
    _SIGNATURES[f"pb_sort_bins_{_suf}"] = (
        None, [_kp, _u64p, _i64p, _i64, _int, _int, _u64p, _u64p, _i64p]
    )
    _SIGNATURES[f"pb_compress_bins_{_suf}"] = (
        _i64, [_kp, _f64p, _i64p, _i64, _i64p, _int, _int, _i64p, _f64p, _i64p]
    )

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

    # -- format conversion ------------------------------------------
    def csx_transpose(self, ptr, idx, vals, nminor, out_ptr, out_idx, out_vals):
        return self._lib.csx_transpose(
            _ptr(ptr, _i64p), _ptr(idx, _i64p), _ptr(vals, _u64p),
            len(ptr) - 1, nminor, len(idx),
            _ptr(out_ptr, _i64p), _ptr(out_idx, _i64p), _ptr(out_vals, _u64p),
        )

    # -- serial PB pipeline -----------------------------------------
    _KEY = {4: ("u32", _u32p), 8: ("u64", _u64p)}

    def pb_bin_count(self, a_ptr, a_rows, b_ptr, bin_of_row, counts):
        self._lib.pb_bin_count(
            _ptr(a_ptr, _i64p), _ptr(a_rows, _i64p), _ptr(b_ptr, _i64p),
            len(a_ptr) - 1, _ptr(bin_of_row, _i64p), len(counts),
            _ptr(counts, _i64p),
        )

    def pb_expand(
        self, a_ptr, a_rows, a_vals, b_ptr, b_cols, b_vals, bin_of_row,
        bin_lo, col_bits, mop, cursor, local_cap, lkeys, lvals, lfill,
        out_keys, out_vals,
    ):
        suf, kp = self._KEY[out_keys.dtype.itemsize]
        getattr(self._lib, f"pb_expand_{suf}")(
            _ptr(a_ptr, _i64p), _ptr(a_rows, _i64p), _ptr(a_vals, _f64p),
            _ptr(b_ptr, _i64p), _ptr(b_cols, _i64p), _ptr(b_vals, _f64p),
            len(a_ptr) - 1, _ptr(bin_of_row, _i64p), _ptr(bin_lo, _i64p),
            col_bits, mop, len(cursor), _ptr(cursor, _i64p),
            local_cap, _ptr(lkeys, kp), _ptr(lvals, _f64p),
            _ptr(lfill, _i64p), _ptr(out_keys, kp), _ptr(out_vals, _f64p),
        )

    def pb_sort_bins(self, keys, vals, starts, npasses, digit_bits, ra, rb, hist):
        suf, kp = self._KEY[keys.dtype.itemsize]
        getattr(self._lib, f"pb_sort_bins_{suf}")(
            _ptr(keys, kp), _ptr(vals, _u64p), _ptr(starts, _i64p),
            len(starts) - 1, npasses, digit_bits,
            _ptr(ra, _u64p), _ptr(rb, _u64p), _ptr(hist, _i64p),
        )

    def pb_compress_bins(
        self, keys, vals, starts, bin_lo, col_bits, op, out_cols, out_vals,
        row_counts,
    ):
        suf, kp = self._KEY[keys.dtype.itemsize]
        return getattr(self._lib, f"pb_compress_bins_{suf}")(
            _ptr(keys, kp), _ptr(vals, _f64p), _ptr(starts, _i64p),
            len(starts) - 1, _ptr(bin_lo, _i64p), col_bits, op,
            _ptr(out_cols, _i64p), _ptr(out_vals, _f64p),
            _ptr(row_counts, _i64p),
        )
