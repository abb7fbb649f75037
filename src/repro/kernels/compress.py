"""Two-pointer compression of sorted tuple streams (the Compress phase).

After the sort phase, tuples with equal (row, col) keys sit in adjacent
positions; the paper merges them with a single two-pointer scan
(Sec. III-E).  The vectorized equivalent: run boundaries come from one
comparison of adjacent keys, values merge with :meth:`Semiring.fold` —
a sequential left fold from each run head, the scan's own order.
Exactly one linear pass over the data, like the paper's scan.
"""

from __future__ import annotations

import numpy as np

from ..semiring import PLUS_TIMES, Semiring, get_semiring

__all__ = ["compress_sorted", "compress_keyed"]


def compress_keyed(
    keys: np.ndarray,
    values: np.ndarray,
    semiring: Semiring | str = PLUS_TIMES,
    layout=None,
    segments: np.ndarray | None = None,
    team=None,
) -> tuple[np.ndarray, ...]:
    """Merge adjacent duplicate keys of a *sorted* key array.

    Returns the distinct keys and their ⊕-merged values.  Raises if the
    key array is not non-decreasing (the sort phase's postcondition).
    Runs reduce through :meth:`Semiring.fold`, the one fold order of
    every path.

    **Compiled form.** With a bin ``layout`` and its ``segments``
    (bin starts; each segment a sorted bin of PB's packed keys) the
    compiled kernel of :func:`repro.kernels.jit.pb_compress_bins_jit`
    folds every bin straight into CSR arrays and returns
    ``(row_counts, indices, data)`` with the same fold, on the threads
    of ``team`` when one is given; it consumes ``values``.  The caller
    must have checked the engine is available.
    """
    sr = get_semiring(semiring)
    if layout is not None:
        from .jit import pb_compress_bins_jit

        return pb_compress_bins_jit(keys, values, segments, layout, sr, team)
    keys = np.asarray(keys)
    values = np.asarray(values)
    if len(keys) != len(values):
        raise ValueError(f"keys/values length mismatch: {len(keys)} vs {len(values)}")
    if len(keys) == 0:
        return keys[:0], values[:0]
    if np.any(keys[1:] < keys[:-1]):  # unsigned-safe sortedness check
        raise ValueError("compress requires sorted keys (run the sort phase first)")
    run_start = np.empty(len(keys), dtype=bool)
    run_start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    return np.compress(run_start, keys), sr.fold(run_start, values)


def compress_sorted(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    semiring: Semiring | str = PLUS_TIMES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicates of a (row, col)-sorted tuple stream.

    The stream must be sorted lexicographically by (row, col) — e.g. the
    output of the sort phase after unpacking keys.  Returns deduplicated
    (rows, cols, merged values).
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    values = np.asarray(values)
    if not (len(rows) == len(cols) == len(values)):
        raise ValueError("rows/cols/values must have equal length")
    if len(rows) == 0:
        return rows[:0], cols[:0], values[:0]
    same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    # Verify sortedness where keys change: (row, col) must increase.
    changed = ~same
    if np.any(
        (rows[1:][changed] < rows[:-1][changed])
        | (
            (rows[1:][changed] == rows[:-1][changed])
            & (cols[1:][changed] < cols[:-1][changed])
        )
    ):
        raise ValueError("compress requires (row, col)-sorted tuples")
    run_start = np.concatenate([[True], changed])
    vals = get_semiring(semiring).fold(run_start, values)
    return np.compress(run_start, rows), np.compress(run_start, cols), vals
