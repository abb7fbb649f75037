"""Compressed sparse storage, read along either axis.

CSR and CSC are one layout: ``indptr[k]:indptr[k+1]`` delimits major
segment ``k`` (a row of CSR, a column of CSC), whose minor indices and
values sit contiguously in ``indices`` and ``data``.  PB-SpGEMM streams
A column-major and B row-major and writes C row-major (paper Sec. II-A,
Alg. 2), and transposition is a zero-copy reinterpretation of the same
arrays as the other orientation.

:class:`CompressedMatrix` implements the layout once; the orientation
is class data (:attr:`~CompressedMatrix.major`, the major axis, and
:attr:`~CompressedMatrix.flipped`, the class of the other orientation).
:class:`~repro.matrix.csr.CSRMatrix` and
:class:`~repro.matrix.csc.CSCMatrix` are thin subclasses that add only
their axis-named accessors.  The two stay distinct types: a CSC is
never an instance of ``CSRMatrix`` and vice versa.

Instances are **canonical**: within each segment, minor indices
strictly increase (sorted, duplicate-free).  All constructors enforce
or establish this.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError, ShapeError
from . import base

#: Axis names, indexed by axis number (0 = rows, 1 = columns).
AXES = ("row", "column")

#: Format names, indexed by the major axis.
FORMATS = ("csr", "csc")


class CompressedMatrix:
    """Canonical compressed sparse matrix over float64 values / int64
    indices, compressed along the axis :attr:`major`."""

    __slots__ = ("shape", "indptr", "indices", "data")

    #: The compressed (major) axis: 0 for CSR, 1 for CSC.
    major: int
    #: The class of the other orientation, which :meth:`transpose` and
    #: the flip (``to_csc`` of a CSR, ``to_csr`` of a CSC) return.
    flipped: type

    def __init__(self, shape, indptr, indices, data, *, validate: bool = True):
        self.shape = base.check_shape(shape)
        self.indptr = base.as_index_array(indptr, "indptr")
        self.indices = base.as_index_array(indices, "indices")
        self.data = base.as_value_array(data, "data", len(self.indices))
        if validate:
            self._validate()

    def _validate(self) -> None:
        major = self.major
        base.check_indptr(self.indptr, self.shape[major], len(self.indices), "indptr")
        base.check_indices_in_range(self.indices, self.shape[1 - major], "indices")
        if not base.segments_sorted(self.indices, self.indptr):
            raise FormatError(
                f"{FORMATS[major].upper()} {AXES[major]}s must have strictly "
                f"increasing {AXES[1 - major]} indices (canonical form); use "
                f"{type(self).__name__}.from_coo to canonicalize"
            )

    # -- construction ------------------------------------------------------
    @classmethod
    def empty(cls, shape):
        nmajor = base.check_shape(shape)[cls.major]
        return cls(shape, np.zeros(nmajor + 1, dtype=base.INDEX_DTYPE), [], [], validate=False)

    @classmethod
    def from_coo(cls, coo):
        from .convert import coo_to_compressed

        return coo_to_compressed(coo, cls)

    @classmethod
    def from_arrays(cls, shape, rows, cols, vals):
        """Build from coordinate triples (coalescing duplicates by sum)."""
        from .coo import COOMatrix

        return cls.from_coo(COOMatrix(shape, rows, cols, vals))

    @classmethod
    def identity(cls, n: int, value: float = 1.0):
        idx = np.arange(n, dtype=base.INDEX_DTYPE)
        return cls(
            (n, n),
            np.arange(n + 1, dtype=base.INDEX_DTYPE),
            idx,
            np.full(n, value, dtype=base.VALUE_DTYPE),
            validate=False,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray):
        from .dense import from_dense

        return from_dense(dense, FORMATS[cls.major])

    @classmethod
    def from_scipy(cls, mat):
        """Adopt a ``scipy.sparse`` matrix (any format)."""
        mat = mat.asformat(FORMATS[cls.major])
        mat.sum_duplicates()
        mat.sort_indices()
        return cls(mat.shape, mat.indptr, mat.indices, mat.data)

    # -- queries -------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.data)

    def segment_nnz(self) -> np.ndarray:
        """Nonzero count of every major segment."""
        return np.diff(self.indptr)

    def segment(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Minor indices and values of major segment ``k`` (views, not
        copies)."""
        if not 0 <= k < self.shape[self.major]:
            raise ShapeError(f"{AXES[self.major]} {k} out of range for shape {self.shape}")
        lo, hi = self.indptr[k], self.indptr[k + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def mean_degree(self) -> float:
        """Average nonzeros per major segment — d(A) in the paper's
        notation."""
        nmajor = self.shape[self.major]
        return self.nnz / nmajor if nmajor else 0.0

    def memory_bytes(self, index_bytes: int = 4, value_bytes: int = 8) -> int:
        """Footprint of indptr + indices + data under the given widths."""
        return (
            (self.shape[self.major] + 1) * index_bytes
            + self.nnz * index_bytes
            + self.nnz * value_bytes
        )

    # -- conversions -----------------------------------------------------------
    def to_coo(self):
        from .convert import compressed_to_coo

        return compressed_to_coo(self)

    def to_csr(self):
        """This matrix as CSR: itself, or the flip of a CSC."""
        from .convert import flip

        return flip(self) if self.major else self

    def to_csc(self):
        """This matrix as CSC: itself, or the flip of a CSR."""
        from .convert import flip

        return self if self.major else flip(self)

    def to_dense(self) -> np.ndarray:
        from .dense import to_dense

        return to_dense(self)

    def to_scipy(self):
        import scipy.sparse as sp

        make = getattr(sp, f"{FORMATS[self.major]}_matrix")
        return make((self.data, self.indices, self.indptr), shape=self.shape)

    def transpose(self):
        """Transpose: reinterprets the same arrays as the other
        orientation of Aᵀ (zero copy)."""
        return self.flipped(self.shape[::-1], self.indptr, self.indices, self.data, validate=False)

    def copy(self):
        return type(self)(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy(), validate=False
        )

    # -- algebra ---------------------------------------------------------------
    def __matmul__(self, other):
        """``a @ b`` — sparse·sparse delegates to :func:`repro.multiply`
        (default algorithm, any COO/CSR/CSC operand; the product is
        CSR); CSR·dense is the reference SpMV/SpMM."""
        from .coo import COOMatrix

        if isinstance(other, (CompressedMatrix, COOMatrix)):
            from ..api import multiply

            return multiply(self, other)
        if isinstance(other, np.ndarray) and hasattr(self, "dot_dense"):
            return self.dot_dense(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz})"
