"""LSD radix sort over packed integer keys (the Sort phase, Sec. III-D).

The paper sorts each bin's tuples with an in-place byte-wise radix sort
(American-flag style): stable counting-sort passes, least significant
digit first.  The numpy sort here (:func:`radix_sort_pairs`) realizes
each pass as a true counting scatter — histogram the digit, prefix-sum
the bucket offsets, scatter key *and* payload into a double buffer — so
every pass moves the data exactly once.  The digit histogram/scatter runs inside numpy's C
stable integer sort: ``np.argsort(digit, kind="stable")`` on a uint8 or
uint16 digit array *is* numpy's ``bincount + cumsum + scatter`` radix
pass (npysort's aradixsort), so one pass costs one O(n) counting scan
plus one gather per array.

Two layers of pass accounting coexist on purpose:

* **Byte passes** (:func:`passes_for_bits`, the ``passes`` return of
  every sort entry point) — what the cost model charges for in-cache
  shuffling (Table III: ``4 * b * flop`` bytes when keys pack into 4
  bytes).  This matches the paper's per-byte pass structure and is
  independent of how wide a digit the implementation actually uses.
* **Counting passes** (:func:`counting_passes`) — the passes the
  double-buffered scatter actually performs; with the default 16-bit
  digits a 32-bit packed key needs 2, not 4.

Every sort entry point produces the *same stable permutation* (LSD
radix with stable passes is exactly the stable sort order), so the
numpy sort and the compiled per-bin sort of :func:`sort_tuples` give
bit-identical keys and payloads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "radix_argsort",
    "radix_sort_keys",
    "radix_sort_pairs",
    "sort_tuples",
    "passes_for_bits",
    "counting_passes",
    "DEFAULT_DIGIT_BITS",
]

#: Digit width of the counting-scatter passes.  16-bit digits halve the
#: pass count of a 32-bit key versus byte digits while the 64Ki-entry
#: histogram still lives comfortably in L2.
DEFAULT_DIGIT_BITS = 16


def passes_for_bits(key_bits: int) -> int:
    """Byte passes an LSD radix sort needs for keys of ``key_bits`` bits.

    This is the paper's (and the cost model's) accounting unit; the
    executable counting sort may cover several bytes per pass — see
    :func:`counting_passes`.
    """
    if key_bits <= 0:
        return 0
    return (key_bits + 7) // 8


def counting_passes(key_bits: int, digit_bits: int = DEFAULT_DIGIT_BITS) -> int:
    """Counting-scatter passes actually performed for ``key_bits`` keys."""
    if key_bits <= 0:
        return 0
    return (key_bits + digit_bits - 1) // digit_bits


def _normalize_keys(keys: np.ndarray, key_bits: int | None) -> tuple[np.ndarray, int]:
    """Validate keys and cast them to the minimal unsigned dtype once.

    Doing the dtype work a single time up front replaces the
    per-pass scalar re-wrapping (``np.asarray(8 * p, dtype=...)``) the
    old path paid, and guarantees shifts never upcast: with an unsigned
    array, ``keys >> int`` stays in the array's dtype under NEP 50.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
    if keys.dtype.kind not in "ui":
        raise ValueError(f"keys must be integer, got dtype {keys.dtype}")
    if key_bits is None:
        key_bits = keys.dtype.itemsize * 8
    if key_bits <= 16:
        target = np.dtype(np.uint16)
    elif key_bits <= 32:
        target = np.dtype(np.uint32)
    else:
        target = np.dtype(np.uint64)
    if keys.dtype != target:
        keys = keys.astype(target)
    return keys, key_bits


def radix_sort_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    key_bits: int | None = None,
    digit_bits: int = DEFAULT_DIGIT_BITS,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Counting-scatter LSD radix sort of (key, payload) pairs.

    Each pass extracts one ``digit_bits``-wide digit and counting-sorts
    it (histogram + prefix offsets + stable scatter, numpy's C radix on
    the narrow digit), moving keys and payload together into the
    alternate buffer — one gather per array per pass, no running
    permutation.  Input arrays are never mutated.

    Parameters
    ----------
    keys:
        1-D array of an unsigned (or non-negative signed) integer
        dtype; normalized once to the minimal unsigned dtype.
    values:
        Payload carried with the keys (any 1-D dtype).
    key_bits:
        Significant bits in the keys.  Defaults to the dtype width;
        passing the packed-key width (Sec. III-D) skips all-zero high
        digits.
    digit_bits:
        Width of each counting pass (8 or 16; default 16).

    Returns
    -------
    (sorted_keys, permuted_values, byte_passes):
        Stable-sorted keys (in the normalized dtype), payloads in the
        same order, and the *byte* pass count the cost model charges
        (see module docstring; the actual scatter count is
        :func:`counting_passes`).
    """
    if digit_bits not in (8, 16):
        raise ValueError(f"digit_bits must be 8 or 16, got {digit_bits}")
    keys, key_bits = _normalize_keys(keys, key_bits)
    values = np.asarray(values)
    if values.ndim != 1 or len(keys) != len(values):
        raise ValueError(
            f"keys/values length mismatch: {len(keys)} vs {values.shape}"
        )
    n = len(keys)
    book_passes = passes_for_bits(key_bits)
    npasses = counting_passes(key_bits, digit_bits)
    if n <= 1 or npasses == 0:
        return keys.copy(), values.copy(), book_passes

    src_k, src_v = keys, values
    dst_k, dst_v = np.empty_like(keys), np.empty_like(values)
    for p in range(npasses):
        # The cast truncates to the low digit_bits — no mask needed.
        # The final digit often has few significant bits (22-bit keys:
        # 16 + 6); narrowing it to uint8 when it fits lets the counting
        # pass scan one byte instead of two.
        shift = digit_bits * p
        remaining = key_bits - shift
        digit_dtype = np.uint8 if min(digit_bits, remaining) <= 8 else np.uint16
        digit = (src_k >> shift if shift else src_k).astype(digit_dtype, copy=False)
        # numpy's stable sort on a narrow integer dtype IS the counting
        # pass: bincount + cumsum + stable scatter in C.
        perm = np.argsort(digit, kind="stable")
        np.take(src_k, perm, out=dst_k)
        np.take(src_v, perm, out=dst_v)
        if p == 0 and npasses > 1:
            # The inputs must stay untouched: retire them from the
            # double buffer after the first pass.
            src_k, src_v = dst_k, dst_v
            dst_k, dst_v = np.empty_like(keys), np.empty_like(values)
        else:
            src_k, dst_k = dst_k, src_k
            src_v, dst_v = dst_v, src_v
    return src_k, src_v, book_passes


def radix_argsort(keys: np.ndarray, key_bits: int | None = None) -> tuple[np.ndarray, int]:
    """Stable argsort of unsigned integer ``keys`` by LSD counting passes.

    Returns ``(order, byte_passes)`` with ``keys[order]`` non-decreasing
    and stable.  Implemented by carrying ``arange(n)`` as the payload of
    :func:`radix_sort_pairs`; prefer that function (or
    :func:`sort_tuples`) when the payload is the thing you actually
    want — it skips the extra index gather.
    """
    keys, key_bits = _normalize_keys(keys, key_bits)
    n = len(keys)
    passes = passes_for_bits(key_bits)
    order = np.arange(n, dtype=np.int64)
    if n <= 1 or passes == 0:
        return order, passes
    _, order, _ = radix_sort_pairs(keys, order, key_bits=key_bits)
    return order, passes


def radix_sort_keys(keys: np.ndarray, key_bits: int | None = None) -> tuple[np.ndarray, int]:
    """Sorted copy of ``keys`` plus the pass count (see :func:`radix_argsort`)."""
    order, passes = radix_argsort(keys, key_bits)
    return np.asarray(keys)[order], passes


def sort_tuples(
    keys: np.ndarray,
    values: np.ndarray,
    key_bits: int | None = None,
    segments: np.ndarray | None = None,
    team=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sort (key, payload) tuple arrays by key.

    Without ``segments`` this is the numpy counting-scatter sort
    (:func:`radix_sort_pairs`) of the whole arrays.

    **Compiled form.** With ``segments`` (``nseg + 1`` ascending
    offsets, e.g. PB's bin starts) every segment is sorted on its own,
    *in place*, by the compiled stable radix of
    :func:`repro.kernels.jit.pb_sort_bins_jit` — segment ranges split
    over the threads of ``team`` when one is given — and the input
    arrays are returned.  The caller must have checked the engine is
    available; without one, PB's numpy tier runs the same segment
    contract through :func:`_sort_segments`.

    Every form returns the identical stable result: sorted keys,
    permuted values, and the byte pass count charged by the cost model.
    """
    if len(keys) != len(values):
        raise ValueError(f"keys/values length mismatch: {len(keys)} vs {len(values)}")
    if segments is not None:
        from .jit import pb_sort_bins_jit

        if key_bits is None:
            key_bits = np.asarray(keys).dtype.itemsize * 8
        return keys, values, pb_sort_bins_jit(keys, values, segments, key_bits, team)
    return radix_sort_pairs(keys, values, key_bits=key_bits)


def _sort_segments(keys, values, key_bits, segments, team=None):
    """The numpy form of ``sort_tuples(..., segments=)``: each segment
    sorted in place by :func:`radix_sort_pairs`, one call per segment
    (a bin fits in cache; the whole stream at once does not).  ``team``
    is accepted for the same signature and not used."""
    for lo, hi in zip(segments[:-1].tolist(), segments[1:].tolist()):
        if hi - lo > 1:
            keys[lo:hi], values[lo:hi], _ = radix_sort_pairs(
                keys[lo:hi], values[lo:hi], key_bits=key_bits
            )
    return keys, values, passes_for_bits(key_bits)
