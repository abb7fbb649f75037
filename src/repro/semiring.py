"""Semirings for generalized sparse matrix-matrix multiplication.

The paper multiplies over the ordinary ``(+, *)`` arithmetic semiring,
but several motivating applications in its introduction (triangle
counting, Markov clustering, multi-source BFS) are naturally expressed
as SpGEMM over other semirings.  All kernels in :mod:`repro.kernels`
and :mod:`repro.core` accept a :class:`Semiring`; the default is
:data:`PLUS_TIMES`.

A semiring here is the minimal interface the expand-sort-compress
pipeline needs:

* ``multiply(a, b)`` — elementwise combine of matched A/B values
  (the "expand" step),
* ``reduceat(values, starts)`` — segmented reduction of sorted runs of
  duplicate (row, col) values (the "compress" step),
* ``add(a, b)`` — pairwise reduction (used by accumulator-based
  column kernels: heap / hash / SPA),
* ``add_scalar(a, b)`` — the scalar ⊕ for per-collision accumulation in
  the retained loop backends (no 1-element array round trip),
* ``segment_reduce(keys, vals)`` — whole-stream duplicate reduction for
  the panel-vectorized column kernels: sort by key, reduce each run.

All operations are vectorized numpy ufunc applications, so kernels stay
loop-free regardless of the semiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_TIMES",
    "OR_AND",
    "PLUS_PAIR",
    "get_semiring",
    "available_semirings",
]


@dataclass(frozen=True)
class Semiring:
    """A (⊕, ⊗) pair with identity, realized with numpy ufuncs.

    Parameters
    ----------
    name:
        Registry key, e.g. ``"plus_times"``.
    add_ufunc:
        Binary numpy ufunc implementing ⊕ (must support ``reduceat``).
    multiply:
        Vectorized binary callable implementing ⊗.
    add_identity:
        Identity element of ⊕ (the implicit value of absent entries).
    dtype:
        Natural value dtype for this semiring.
    """

    name: str
    add_ufunc: np.ufunc
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    add_identity: float
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ⊕ of two value arrays (keeps the value dtype —
        boolean ufuncs like logical_or would otherwise return bool)."""
        out = self.add_ufunc(a, b)
        return np.asarray(out).astype(np.result_type(a, b), copy=False)

    def add_scalar(self, a, b):
        """Scalar ⊕ of two Python/numpy scalars.

        The retained ``column_backend="loop"`` accumulators apply ⊕ once
        per hash collision; boxing each operand into a 1-element array
        to call :meth:`add` costs two allocations and a ufunc dispatch
        per collision.  This resolves the scalar operation once — a
        plain Python arithmetic op where one exists, the ufunc on
        scalars otherwise — and returns a Python float.
        """
        if self.add_ufunc is np.add:
            # Plain float '+' is IEEE-identical to np.add on scalars.
            return float(a) + float(b)
        return float(self.add_ufunc(a, b))

    def segment_reduce(
        self, keys: np.ndarray, vals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """⊕-reduce duplicate keys: ``(unique_keys_sorted, reduced_vals)``.

        The panel-vectorized column kernels form one packed integer key
        per generated tuple and hand the whole stream here.  The stream
        is stably sorted by key, run boundaries are located, and each
        run is ⊕-reduced:

        * **plus-like semirings** (``add_ufunc is np.add``, float
          values) reduce through :func:`np.bincount` on the run ids —
          a *sequential left fold in stream order*, which is exactly
          the accumulation order of the loop backends' dict / SPA /
          heap accumulators, so results are bit-identical to
          ``column_backend="loop"``.  (``np.add.reduceat`` is pairwise
          on floats and would diverge in the last ulps for runs ≥ 8.)
        * **other ufunc ⊕** (min / max / logical_or) use
          :meth:`reduceat`, whose min/max is the same sequential left
          fold (numpy's vectorized min/max reduction picks signed zeros
          and NaNs by SIMD lane).
        * **non-ufunc ⊕** (a custom Semiring carrying a plain callable)
          fall back to a stable lexsort of (key, position) plus a
          per-run Python fold — slow but correct for any ⊕.

        Ties within a run keep stream order (stable sort), preserving
        the loop backends' k-ascending accumulation order.
        """
        keys = np.asarray(keys)
        vals = np.asarray(vals)
        if len(keys) != len(vals):
            raise ValueError(
                f"keys and vals must align, got {len(keys)} vs {len(vals)}"
            )
        if len(keys) == 0:
            return keys[:0], vals[:0]
        if isinstance(self.add_ufunc, np.ufunc):
            order = np.argsort(keys, kind="stable")
        else:
            # Fallback ordering: lexsort on (position, key) — positions
            # break ties, making the sort stable for any key dtype.
            order = np.lexsort((np.arange(len(keys)), keys))
        sk = keys[order]
        sv = vals[order]
        run_start = np.empty(len(sk), dtype=bool)
        run_start[0] = True
        np.not_equal(sk[1:], sk[:-1], out=run_start[1:])
        starts, reduced = self.fold_runs(run_start, sv)
        return sk[starts], reduced

    def fold_runs(
        self, run_start: np.ndarray, sorted_vals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """⊕-fold runs of an already-sorted value stream.

        The fold half of :meth:`segment_reduce`: ``run_start`` is a
        boolean mask marking the first element of every run of equal
        keys (``run_start[0]`` must be True for non-empty input) and
        ``sorted_vals`` holds the values in run order.  Returns
        ``(starts, reduced)`` with ``starts = flatnonzero(run_start)``.

        Exposed so callers that can establish the sorted order cheaper
        than a generic key sort — the panel column kernels stably sort
        by row id alone (numpy's C radix for ≤ 16-bit keys) and detect
        runs by comparing adjacent (row, col) pairs — reduce through
        the *same* fold and stay bit-identical to
        :meth:`segment_reduce`:

        * when duplicates are rare (< 1/8 of the stream — compression
          factors near 1, the regime column algorithms target), the
          run-start values are copied out and each duplicate is ⊕-ed
          into its run with ``add_ufunc.at`` — unbuffered, applied in
          ascending stream position, i.e. the same sequential left
          fold, without materializing per-element run ids;
        * otherwise plus-like ⊕ fold through ``np.bincount`` — a
          sequential left fold in stream order (never pairwise);
        * other ufunc ⊕ use :meth:`reduceat` (a sequential fold for
          min / max, exact ``reduceat`` for logical_or);
        * non-ufunc ⊕ fold each run in a Python loop.
        """
        sv = sorted_vals
        starts = np.flatnonzero(run_start)
        n_dup = sv.size - starts.size
        if isinstance(self.add_ufunc, np.ufunc) and n_dup * 8 < sv.size:
            out = sv[starts]
            if n_dup:
                dup_pos = np.flatnonzero(~run_start)
                run_idx = np.searchsorted(starts, dup_pos, side="right") - 1
                self.add_ufunc.at(out, run_idx, sv[dup_pos])
            return starts, out
        if (
            self.add_ufunc is np.add
            and np.issubdtype(sv.dtype, np.floating)
        ):
            run_ids = np.cumsum(run_start) - 1
            out = np.bincount(run_ids, weights=sv, minlength=len(starts))
            return starts, out.astype(sv.dtype, copy=False)
        if isinstance(self.add_ufunc, np.ufunc):
            return starts, self.reduceat(sv, starts)
        bounds = np.append(starts, len(sv))
        out = np.empty(len(starts), dtype=sv.dtype)
        for i in range(len(starts)):
            acc = sv[bounds[i]]
            for j in range(bounds[i] + 1, bounds[i + 1]):
                acc = self.add_ufunc(acc, sv[j])
            out[i] = acc
        return starts, out

    def fold_runs_masked(
        self, run_start: np.ndarray, sorted_vals: np.ndarray
    ) -> np.ndarray:
        """⊕-fold runs, returning only the reduced values.

        Same contract and bit-exact results as :meth:`fold_runs`, for
        callers that select run heads with the boolean ``run_start``
        mask directly (``x[run_start]``) and never need the integer
        ``starts`` array.  In the rare-duplicate regime this skips
        materializing ``flatnonzero(run_start)`` — nearly one int64
        index per element when compression is ≈ 1 — and finds each
        duplicate's run by counting: the run containing stream position
        ``p`` with ``j`` duplicates at or before it is run ``p - j - 1``
        (positions ``0..p`` hold ``p+1-(j+1)`` run heads), an
        O(duplicates) closed form replacing the searchsorted over
        ``starts``.  ``add_ufunc.at`` applies the duplicates unbuffered
        in ascending stream position — the same sequential left fold.
        Dup-heavy and non-ufunc inputs fall back to :meth:`fold_runs`.
        """
        sv = sorted_vals
        if isinstance(self.add_ufunc, np.ufunc):
            dup_pos = np.flatnonzero(~run_start)
            n_dup = dup_pos.size
            if n_dup * 8 < sv.size:
                out = sv[run_start]
                if n_dup:
                    run_idx = dup_pos - np.arange(n_dup, dtype=dup_pos.dtype) - 1
                    self.add_ufunc.at(out, run_idx, sv[dup_pos])
                return out
        return self.fold_runs(run_start, sv)[1]

    def reduceat(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Segmented ⊕-reduction: reduce ``values[starts[i]:starts[i+1]]``.

        ``starts`` must be a strictly ascending int array of segment
        start offsets with ``starts[0] == 0``; the final segment runs to
        the end of ``values``.  Matches the semantics of
        ``np.add.reduceat``, except that min/max fold each segment
        sequentially from its head (``ufunc.at`` applies the rest
        unbuffered, in ascending position): numpy's vectorized min/max
        reductions pick between 0.0 and -0.0, and between NaNs, by SIMD
        lane, while the loop and compiled kernels fold left to right.
        """
        if len(values) == 0:
            return np.asarray([], dtype=values.dtype)
        if self.add_ufunc in (np.minimum, np.maximum):
            out = values[starts]
            head = np.zeros(len(values), dtype=bool)
            head[starts] = True
            dup = np.flatnonzero(~head)
            if len(dup):
                # Duplicate p belongs to segment p - (duplicates before it) - 1.
                with np.errstate(invalid="ignore"):
                    self.add_ufunc.at(out, dup - np.arange(len(dup)) - 1, values[dup])
            return out
        out = self.add_ufunc.reduceat(values, starts)
        # Boolean ufuncs (logical_or) reduce to bool; keep value dtype.
        return out.astype(values.dtype, copy=False)

    def is_annihilated(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of values equal to the ⊕-identity (numeric zeros)."""
        return values == self.add_identity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name!r})"


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def _logical_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.logical_and(a != 0, b != 0).astype(np.float64)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # PLUS_PAIR: every structural match contributes exactly 1.  Used for
    # counting walks/triangles on unweighted graphs without multiplying.
    return np.ones(np.broadcast(a, b).shape, dtype=np.float64)


#: Ordinary arithmetic: C(i,j) = Σ_k A(i,k) * B(k,j).
PLUS_TIMES = Semiring("plus_times", np.add, _times, 0.0)

#: Tropical semiring: C(i,j) = min_k A(i,k) + B(k,j).  Shortest paths.
MIN_PLUS = Semiring("min_plus", np.minimum, _plus, np.inf)

#: C(i,j) = max_k A(i,k) * B(k,j).  Widest-path style reductions.
MAX_TIMES = Semiring("max_times", np.maximum, _times, -np.inf)

#: Boolean semiring over {0,1} floats: structural reachability.
OR_AND = Semiring("or_and", np.logical_or, _logical_and, 0.0)

#: C(i,j) = |{k : A(i,k)≠0 ∧ B(k,j)≠0}|.  Triangle / wedge counting.
PLUS_PAIR = Semiring("plus_pair", np.add, _pair, 0.0)

_REGISTRY: dict[str, Semiring] = {
    s.name: s for s in (PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND, PLUS_PAIR)
}


def get_semiring(name: str | Semiring) -> Semiring:
    """Look up a semiring by name; passes through Semiring instances."""
    if isinstance(name, Semiring):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown semiring {name!r}; available: {known}") from None


def available_semirings() -> tuple[str, ...]:
    """Names of all registered semirings."""
    return tuple(sorted(_REGISTRY))
