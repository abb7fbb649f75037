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
* ``fold(run_start, values)`` — the ⊕ fold of runs of duplicate
  (row, col) values (the "compress" step): a sequential left fold from
  each run head, the one fold order of every path,
* ``segment_reduce(keys, vals)`` — sort by key, then :meth:`fold`,
* ``add(a, b)`` / ``add_scalar(a, b)`` — one elementwise / scalar ⊕
  step, for the accumulators of the column kernels' loop backends.

All operations are vectorized numpy ufunc applications, so kernels stay
loop-free regardless of the semiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Semiring",
    "canonical_nan",
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
        Binary numpy ufunc implementing ⊕ (any binary callable works;
        a ufunc takes the vectorized ``ufunc.at`` fold).
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

        Stably sorts the stream by key (ties keep stream order) and
        hands the runs of equal keys to :meth:`fold`.
        """
        keys = np.asarray(keys)
        vals = np.asarray(vals)
        if len(keys) != len(vals):
            raise ValueError(
                f"keys and vals must align, got {len(keys)} vs {len(vals)}"
            )
        if len(keys) == 0:
            return keys[:0], vals[:0]
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        run_start = np.empty(len(sk), dtype=bool)
        run_start[0] = True
        np.not_equal(sk[1:], sk[:-1], out=run_start[1:])
        return sk[run_start], self.fold(run_start, vals[order])

    def fold(self, run_start: np.ndarray, values: np.ndarray) -> np.ndarray:
        """⊕-fold every run of a run-ordered value stream — the one fold.

        ``run_start`` is a boolean mask marking the first element of
        every run (``run_start[0]`` must be True for non-empty input);
        ``values`` holds the runs back to back.  Each run folds as a
        *sequential left fold from the run head's raw value, in stream
        order*: ``((v0 ⊕ v1) ⊕ v2) ⊕ …``.  That is the paper's
        two-pointer compress scan (Sec. III-E) and the order of every
        accumulator in the repo — PB (numpy and compiled), the column
        panel (numpy and compiled), the loop accumulators — so all of
        them agree bit for bit.  A NaN result is stored as the one
        canonical quiet NaN (:func:`canonical_nan`), so the sign and
        payload that ⊗/⊕ operand order would pick never show.

        A ufunc ⊕ copies the run heads out and applies each duplicate
        with ``add_ufunc.at``, which is unbuffered and runs in
        ascending stream position; the duplicate at stream position
        ``p`` with ``j`` duplicates before it belongs to run
        ``p - j - 1``.  Any other ⊕ runs the same fold in a Python
        loop.  (``np.add.reduceat`` would sum pairwise, and
        ``np.bincount`` sums from +0.0, turning a run of -0.0 into
        +0.0; neither is this fold.)
        """
        values = np.asarray(values)
        # compress/take, not values[run_start]: boolean-mask indexing
        # branches per element and runs ~3x slower on irregular masks.
        out = np.compress(run_start, values)
        dup_pos = np.flatnonzero(~run_start)
        if dup_pos.size:
            run_idx = np.arange(-1, -1 - dup_pos.size, -1, dtype=dup_pos.dtype)
            run_idx += dup_pos
            dups = values.take(dup_pos)
            if isinstance(self.add_ufunc, np.ufunc):
                with np.errstate(invalid="ignore"):
                    self.add_ufunc.at(out, run_idx, dups)
            else:
                for r, v in zip(run_idx.tolist(), dups):
                    out[r] = self.add_ufunc(out[r], v)
        return canonical_nan(out)

    def is_annihilated(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of values equal to the ⊕-identity (numeric zeros)."""
        return values == self.add_identity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name!r})"


#: The one NaN every fold stores (numpy's ``np.nan``: positive, quiet,
#: zero payload); the compiled folds write the same bits.
_CANONICAL_NAN = np.float64(np.nan)


def canonical_nan(values: np.ndarray) -> np.ndarray:
    """Overwrite every NaN of a float array with the canonical quiet NaN,
    in place, and return the array.

    IEEE 754 leaves the sign and payload of a NaN result to operand
    order, so two correct folds of the same run may store different
    NaN bits; writing one NaN wherever a fold stores its result keeps
    every path bit-identical.
    """
    if values.dtype.kind == "f":
        np.copyto(values, _CANONICAL_NAN, where=np.isnan(values))
    return values


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
