"""Coordinate (COO) sparse matrix.

COO is the storage format of the expanded intermediate matrix
:math:`\\hat{C}` in ESC-style SpGEMM (paper Sec. III-A): a flat stream of
``(row, col, value)`` tuples that may contain duplicates until the
compress phase merges them.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..semiring import PLUS_TIMES
from . import base


class COOMatrix:
    """Sparse matrix in coordinate format.

    Unlike :class:`~repro.matrix.csr.CSRMatrix`, a ``COOMatrix`` is *not*
    required to be canonical: duplicates and arbitrary ordering are
    allowed, because the ESC pipeline manipulates exactly such streams.
    Call :meth:`coalesce` to obtain the canonical (row-major sorted,
    duplicate-free) equivalent.

    Attributes
    ----------
    shape : tuple[int, int]
    rows, cols : int64 arrays of equal length
    vals : float64 array of the same length
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape, rows, cols, vals, *, validate: bool = True):
        self.shape = base.check_shape(shape)
        self.rows = base.as_index_array(rows, "rows")
        self.cols = base.as_index_array(cols, "cols")
        self.vals = base.as_value_array(vals, "vals", len(self.rows))
        if len(self.cols) != len(self.rows):
            raise base.FormatError(
                f"rows/cols length mismatch: {len(self.rows)} vs {len(self.cols)}"
            )
        if validate:
            base.check_indices_in_range(self.rows, self.shape[0], "rows")
            base.check_indices_in_range(self.cols, self.shape[1], "cols")

    # -- construction --------------------------------------------------
    @classmethod
    def empty(cls, shape) -> "COOMatrix":
        """A matrix with no stored entries."""
        return cls(shape, [], [], [])

    @classmethod
    def from_arrays(cls, shape, rows, cols, vals) -> "COOMatrix":
        """Alias constructor; mirrors CSR/CSC classmethod naming."""
        return cls(shape, rows, cols, vals)

    # -- basic queries ---------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of *stored* entries (duplicates each count once)."""
        return len(self.vals)

    def is_coalesced(self) -> bool:
        """True when entries are row-major sorted with no duplicate keys."""
        if self.nnz <= 1:
            return True
        key = self.rows * self.shape[1] + self.cols
        return bool(np.all(np.diff(key) > 0))

    # -- canonicalization ------------------------------------------------
    def coalesce(self, *, sum_duplicates: bool = True) -> "COOMatrix":
        """Return a row-major sorted copy with duplicates merged.

        Duplicate ``(row, col)`` entries are summed (``sum_duplicates=True``,
        the SpGEMM compress semantics: :meth:`repro.semiring.Semiring.fold`,
        in input order) or the last occurrence wins.
        Numeric zeros produced by cancellation are retained — structural
        pruning is a separate explicit operation (:func:`repro.matrix.ops.prune`).
        """
        if self.nnz == 0:
            return COOMatrix.empty(self.shape)
        order = np.lexsort((self.cols, self.rows))
        r = self.rows[order]
        c = self.cols[order]
        v = self.vals[order]
        key_change = np.empty(len(r), dtype=bool)
        key_change[0] = True
        key_change[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        if sum_duplicates:
            merged = PLUS_TIMES.fold(key_change, v)
        else:
            # The last occurrence wins: the element before each run start.
            last = np.append(key_change[1:], True)
            merged = v[last]
        return COOMatrix(
            self.shape, r[key_change], c[key_change], merged, validate=False
        )

    # -- conversions (thin wrappers; logic lives in convert.py) ----------
    def to_csr(self):
        """Convert to canonical CSR (coalescing on the way)."""
        from .convert import coo_to_csr

        return coo_to_csr(self)

    def to_csc(self):
        """Convert to canonical CSC (coalescing on the way)."""
        from .convert import coo_to_csc

        return coo_to_csc(self)

    def to_dense(self) -> np.ndarray:
        """Accumulate into a dense array (duplicates sum)."""
        out = np.zeros(self.shape, dtype=base.VALUE_DTYPE)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def transpose(self) -> "COOMatrix":
        """Transpose by swapping coordinate roles (O(1) array reuse)."""
        return COOMatrix(
            (self.shape[1], self.shape[0]), self.cols, self.rows, self.vals, validate=False
        )

    def copy(self) -> "COOMatrix":
        return COOMatrix(
            self.shape, self.rows.copy(), self.cols.copy(), self.vals.copy(), validate=False
        )

    # -- numerics ----------------------------------------------------------
    def memory_bytes(self, index_bytes: int = 4, value_bytes: int = 8) -> int:
        """Storage footprint under the paper's b=16 accounting (Sec. II-C)."""
        return self.nnz * (2 * index_bytes + value_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"

    def __matmul__(self, other):
        """``a @ b`` — delegates to :func:`repro.multiply` (the front
        door converts both operands to the kernel-facing formats)."""
        from ..api import multiply

        if self.shape[1] != getattr(other, "shape", (None, None))[0]:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return multiply(self, other)
