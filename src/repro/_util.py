"""Small internal utilities shared across the library."""

from __future__ import annotations

import numpy as np


def sorted_unique(arr: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``arr``.

    Equivalent to ``np.unique`` but always via sort+mask: numpy 2.4's
    hash-based unique path is an order of magnitude slower than its own
    sort on large mostly-distinct integer arrays, and SpGEMM symbolic
    analysis hits exactly that case.
    """
    arr = np.asarray(arr)
    if arr.size <= 1:
        return arr.copy().reshape(-1)
    s = np.sort(arr, kind="stable")
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def distinct_count(arr: np.ndarray) -> int:
    """Number of distinct values in ``arr`` (sort-based, see above)."""
    arr = np.asarray(arr)
    if arr.size == 0:
        return 0
    s = np.sort(arr, kind="stable")
    return 1 + int(np.count_nonzero(s[1:] != s[:-1]))


def balanced_edges(weights: np.ndarray, parts: int) -> np.ndarray:
    """Edges cutting ``n = len(weights)`` items into ``min(parts, n)``
    contiguous ranges of roughly equal weight (the flop-balanced split of
    bins, worker groups and shards).

    Each cut sits where the weight prefix sum first reaches an equal
    share, so a heavy item can leave ranges empty (repeated edges); zero
    total weight cuts by count.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = len(weights)
    parts = max(1, min(int(parts), max(n, 1)))
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    total = prefix[-1]
    if total <= 0:
        return np.linspace(0, n, parts + 1).astype(np.int64)
    targets = total * np.arange(1, parts) / parts
    cuts = np.searchsorted(prefix, targets, side="left")
    return np.maximum.accumulate(
        np.concatenate([[0], cuts, [n]]).astype(np.int64)
    )


def balanced_ranges(weights: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """The non-empty ``(lo, hi)`` ranges of :func:`balanced_edges`."""
    edges = balanced_edges(weights, parts)
    return [
        (int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo
    ]
