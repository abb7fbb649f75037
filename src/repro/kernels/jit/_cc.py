r"""Runtime-compiled C engine for the JIT kernel tier.

One translation unit containing every compiled hot kernel (the column
kernels' panel, one kernel instantiated at uint16 and uint32 indices;
the serial PB pipeline: bin count, expand into bins, per-bin sort,
per-bin compress into CSR; and the CSR/CSC counting transpose),
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

* every compiled fold — ``pb_compress_bins_*`` and ``panel_fused_*``
  — goes through one ``static inline`` ⊕ step
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

import numpy as np

__all__ = ["load"]

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
/* The one ⊕ fold of every compiled kernel (pb_compress_bins_* and  */
/* panel_fused_*) — Semiring.fold's order: each run is a sequential */
/* left fold in stream order that starts from the run head's raw    */
/* value, ((v0 ⊕ v1) ⊕ v2) ⊕ ...  fold_head is what a fold stores   */
/* for a run head, fold_step one ⊕ application;                     */
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

/* Semiring ⊗ op codes of every compiled expansion. */
#define MUL_TIMES 0
#define MUL_PLUS  1
#define MUL_AND   2
#define MUL_PAIR  3

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

/* ---------------------------------------------------------------- */
/* Panel SpGEMM: expansion gather + ⊗ + stable row sort + col-run ⊕ */
/* fold in one kernel, never materializing the tuple stream the     */
/* numpy panel builds (expand_cols_range + repeat + argsort).  The  */
/* expansion is walked twice straight off the CSC structure: pass 1 */
/* counts rows (prefix sum = stable positions), pass 2 recomputes   */
/* each product and scatters (val, col) into row-grouped order —    */
/* row ids are implicit in the segment.  Pass 3 folds each row      */
/* segment's duplicate col runs with fold_head / fold_step.         */
/*                                                                  */
/* a_ptr/a_rows/a_vals: A in CSC (rows pre-cast to IT).             */
/* bk/bv: the panel's B entries (k id, value), output-column-major. */
/* col_ptr: ncols+1 B-entry offsets of each output column.          */
/* hist/wk: m- and nk-sized int64 scratch (nk = len(a_ptr) - 1).    */
/* tvc: 2*ntuples float64 — interleaved (value, col) records, so    */
/* the stable scatter dirties ONE cache line per tuple instead of   */
/* two (separate col and val streams land on different lines for    */
/* nearly every tuple once the panel spans more rows than cache).   */
/* out_*: ntuples-sized outputs.  row_counts: m int64, written.     */
/* Instantiated for uint16 indices (m and output cols <= 65536,     */
/* half the output index bytes) and uint32 (<= 2^32).  Col ids      */
/* round-trip exactly through the double slot, exact to 2^53.       */
/* ---------------------------------------------------------------- */
#define PANEL_FUSED_IMPL(SUF, IT)                                     \
API int64_t panel_fused_##SUF(                                        \
    const int64_t *a_ptr, const IT *a_rows, const double *a_vals,     \
    const int64_t *bk, const double *bv, const int64_t *col_ptr,      \
    int64_t ncols, int64_t nk, int64_t j_lo, int64_t m, int op,       \
    int mop, int64_t *hist, int64_t *wk, double *tvc,                 \
    IT *out_rows, IT *out_cols, double *out_vals,                     \
    int64_t *row_counts)                                              \
{                                                                     \
    memset(row_counts, 0, (size_t)m * sizeof(int64_t));               \
    memset(hist, 0, (size_t)m * sizeof(int64_t));                     \
    memset(wk, 0, (size_t)nk * sizeof(int64_t));                      \
    const int64_t ne = col_ptr[ncols];                                \
                                                                      \
    /* Pass 1: row histogram over the implicit expansion.  Each B  */ \
    /* entry with inner id k contributes A's column k once, so     */ \
    /* count k multiplicities first and walk each touched A column */ \
    /* once with that weight: repeated inner ids then cost nothing.*/ \
    for (int64_t e = 0; e < ne; ++e)                                  \
        wk[bk[e]]++;                                                  \
    for (int64_t k = 0; k < nk; ++k) {                                \
        const int64_t w = wk[k];                                      \
        if (w == 0)                                                   \
            continue;                                                 \
        for (int64_t i = a_ptr[k]; i < a_ptr[k + 1]; ++i)             \
            hist[a_rows[i]] += w;                                     \
    }                                                                 \
    int64_t acc = 0;                                                  \
    for (int64_t r = 0; r < m; ++r) {                                 \
        int64_t c = hist[r];                                          \
        hist[r] = acc;                                                \
        acc += c;                                                     \
    }                                                                 \
    if (acc == 0)                                                     \
        return 0;                                                     \
                                                                      \
    /* Pass 2: expand + ⊗ + stable scatter into row-grouped order. */ \
    for (int64_t j = 0; j < ncols; ++j) {                             \
        const double cjd = (double)(j_lo + j);                        \
        for (int64_t e = col_ptr[j]; e < col_ptr[j + 1]; ++e) {       \
            const int64_t k = bk[e];                                  \
            const double b = bv[e];                                   \
            for (int64_t i = a_ptr[k]; i < a_ptr[k + 1]; ++i) {       \
                double *rec = tvc + 2 * hist[a_rows[i]]++;            \
                rec[0] = mul_op(mop, a_vals[i], b);                   \
                rec[1] = cjd;                                         \
            }                                                         \
        }                                                             \
    }                                                                 \
                                                                      \
    /* Pass 3: per-row-segment col-run fold + compaction. */          \
    int64_t nout = 0;                                                 \
    int64_t seg_lo = 0;                                               \
    for (int64_t r = 0; r < m; ++r) {                                 \
        const int64_t seg_hi = hist[r]; /* segment end after pass 2 */\
        const int64_t head = nout;                                    \
        for (int64_t i = seg_lo; i < seg_hi; ++i) {                   \
            const double ci = tvc[2 * i + 1];                         \
            if (i > seg_lo && ci == tvc[2 * i - 1]) {                 \
                out_vals[nout - 1] =                                  \
                    fold_step(op, out_vals[nout - 1], tvc[2 * i]);    \
            } else {                                                  \
                out_rows[nout] = (IT)r;                               \
                out_cols[nout] = (IT)ci;                              \
                out_vals[nout] = fold_head(tvc[2 * i]);               \
                nout++;                                               \
            }                                                         \
        }                                                             \
        row_counts[r] = nout - head;                                  \
        seg_lo = seg_hi;                                              \
    }                                                                 \
    return nout;                                                      \
}

PANEL_FUSED_IMPL(u16, uint16_t)
PANEL_FUSED_IMPL(u32, uint32_t)

/* ================================================================ */
/* Serial PB-SpGEMM (Alg. 2): bin count, expand into bins,          */
/* per-bin radix sort, per-bin compress straight into CSR arrays.   */
/* A is CSC (a_ptr/a_rows/a_vals), B is CSR (b_ptr/b_cols/b_vals);  */
/* bin_of_row maps an output row to its bin, bin_lo holds each      */
/* bin's first row, so a tuple's packed key is                      */
/* ((row - bin_lo[bin]) << col_bits) | col (Sec. III-D).            */
/* ================================================================ */

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

_i64 = ctypes.c_int64
_int = ctypes.c_int
#: Every array argument: a raw address (``ndarray.ctypes.data``).
_p = ctypes.c_void_p

#: name -> (restype, argtypes)
_SIGNATURES = {
    "pb_bin_count": (None, [_p, _p, _p, _i64, _p, _i64, _p]),
    "csx_transpose": (_int, [_p, _p, _p, _i64, _i64, _i64, _p, _p, _p]),
}
for _suf in ("u16", "u32"):
    _SIGNATURES[f"panel_fused_{_suf}"] = (
        _i64, [_p] * 6 + [_i64, _i64, _i64, _i64, _int, _int] + [_p] * 7
    )
for _suf in ("u32", "u64"):
    _SIGNATURES[f"pb_expand_{_suf}"] = (
        None, [_p] * 6 + [_i64, _p, _p, _int, _int, _i64, _p, _i64] + [_p] * 5
    )
    _SIGNATURES[f"pb_sort_bins_{_suf}"] = (
        None, [_p, _p, _p, _i64, _int, _int, _p, _p, _p]
    )
    _SIGNATURES[f"pb_compress_bins_{_suf}"] = (
        _i64, [_p, _p, _p, _i64, _p, _int, _int, _p, _p, _p]
    )

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None


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
    global _lib
    if _lib is not None:
        return _lib
    with _lock:
        if _lib is not None:
            return _lib
        path = _lib_path()
        if not os.path.exists(path):
            _compile(compiler, path)
        lib = ctypes.CDLL(path)
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
        _lib = lib
    return _lib


class CCEngine:
    """Numpy-array façade over the C symbols (one per process).

    Arrays go to C as raw addresses (``ndarray.ctypes.data``), which do
    not keep an array alive: every array is a parameter of the method,
    bound for the whole call.  The callers in :mod:`repro.kernels.jit`
    check dtypes, contiguity and lengths; the index or key width picks
    the symbol (``_SUF``).
    """

    name = "cc"
    _SUF = {2: "u16", 4: "u32", 8: "u64"}

    def __init__(self, compiler: str):
        self._lib = load(compiler)

    def _sym(self, kernel: str, arr: np.ndarray):
        return getattr(self._lib, f"{kernel}_{self._SUF[arr.dtype.itemsize]}")

    # -- panel ------------------------------------------------------
    def panel_fused(
        self, a_ptr, a_rows, a_vals, bk, bv, col_ptr, j_lo, m, op, mop,
        hist, wk, tvc, out_rows, out_cols, out_vals, row_counts,
    ):
        return self._sym("panel_fused", a_rows)(
            a_ptr.ctypes.data, a_rows.ctypes.data, a_vals.ctypes.data,
            bk.ctypes.data, bv.ctypes.data, col_ptr.ctypes.data,
            len(col_ptr) - 1, len(a_ptr) - 1, j_lo, m, op, mop,
            hist.ctypes.data, wk.ctypes.data, tvc.ctypes.data,
            out_rows.ctypes.data, out_cols.ctypes.data,
            out_vals.ctypes.data, row_counts.ctypes.data,
        )

    # -- format conversion ------------------------------------------
    def csx_transpose(self, ptr, idx, vals, nminor, out_ptr, out_idx, out_vals):
        return self._lib.csx_transpose(
            ptr.ctypes.data, idx.ctypes.data, vals.ctypes.data,
            len(ptr) - 1, nminor, len(idx),
            out_ptr.ctypes.data, out_idx.ctypes.data, out_vals.ctypes.data,
        )

    # -- serial PB pipeline -----------------------------------------
    def pb_bin_count(self, a_ptr, a_rows, b_ptr, bin_of_row, counts):
        self._lib.pb_bin_count(
            a_ptr.ctypes.data, a_rows.ctypes.data, b_ptr.ctypes.data,
            len(a_ptr) - 1, bin_of_row.ctypes.data, len(counts),
            counts.ctypes.data,
        )

    def pb_expand(
        self, a_ptr, a_rows, a_vals, b_ptr, b_cols, b_vals, bin_of_row,
        bin_lo, col_bits, mop, cursor, local_cap, lkeys, lvals, lfill,
        out_keys, out_vals,
    ):
        self._sym("pb_expand", out_keys)(
            a_ptr.ctypes.data, a_rows.ctypes.data, a_vals.ctypes.data,
            b_ptr.ctypes.data, b_cols.ctypes.data, b_vals.ctypes.data,
            len(a_ptr) - 1, bin_of_row.ctypes.data, bin_lo.ctypes.data,
            col_bits, mop, len(cursor), cursor.ctypes.data,
            local_cap, lkeys.ctypes.data, lvals.ctypes.data,
            lfill.ctypes.data, out_keys.ctypes.data, out_vals.ctypes.data,
        )

    def pb_sort_bins(self, keys, vals, starts, npasses, digit_bits, ra, rb, hist):
        self._sym("pb_sort_bins", keys)(
            keys.ctypes.data, vals.ctypes.data, starts.ctypes.data,
            len(starts) - 1, npasses, digit_bits,
            ra.ctypes.data, rb.ctypes.data, hist.ctypes.data,
        )

    def pb_compress_bins(
        self, keys, vals, starts, bin_lo, col_bits, op, out_cols, out_vals,
        row_counts,
    ):
        return self._sym("pb_compress_bins", keys)(
            keys.ctypes.data, vals.ctypes.data, starts.ctypes.data,
            len(starts) - 1, bin_lo.ctypes.data, col_bits, op,
            out_cols.ctypes.data, out_vals.ctypes.data,
            row_counts.ctypes.data,
        )
