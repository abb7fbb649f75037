"""Unit tests for structural/elementwise matrix operations."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.matrix import COOMatrix, CSRMatrix
from repro.matrix.ops import (
    add,
    allclose,
    col_slice,
    extract_diagonal,
    prune,
    row_slice,
    scale,
    transpose,
    tril,
    triu,
)

from tests.util import random_coo


class TestAllclose:
    def test_identical(self, rng):
        m = random_coo(rng, 8, 8, 20).to_csr()
        assert allclose(m, m.copy())

    def test_format_independent(self, rng):
        coo = random_coo(rng, 8, 8, 20)
        assert allclose(coo.to_csr(), coo.to_csc())

    def test_explicit_zero_equals_absent(self):
        with_zero = COOMatrix((2, 2), [0, 1], [0, 1], [0.0, 3.0])
        without = COOMatrix((2, 2), [1], [1], [3.0])
        assert allclose(with_zero, without)

    def test_detects_difference(self, rng):
        m = random_coo(rng, 8, 8, 20).to_csr()
        other = scale(m, 1.001)
        assert not allclose(m, other)

    def test_shape_mismatch_false(self):
        assert not allclose(CSRMatrix.empty((2, 2)), CSRMatrix.empty((2, 3)))


class TestAddScale:
    def test_add_dense_equiv(self, rng):
        a = random_coo(rng, 6, 9, 20)
        b = random_coo(rng, 6, 9, 25)
        c = add(a, b)
        np.testing.assert_allclose(c.to_dense(), a.to_dense() + b.to_dense())

    def test_add_weighted(self, rng):
        a = random_coo(rng, 5, 5, 10)
        b = random_coo(rng, 5, 5, 10)
        c = add(a, b, alpha=2.0, beta=-0.5)
        np.testing.assert_allclose(c.to_dense(), 2 * a.to_dense() - 0.5 * b.to_dense())

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(CSRMatrix.empty((2, 2)), CSRMatrix.empty((3, 3)))

    def test_scale(self, rng):
        m = random_coo(rng, 4, 4, 8).to_csr()
        np.testing.assert_allclose(scale(m, 3.0).to_dense(), 3 * m.to_dense())

    def test_scale_coo(self, rng):
        m = random_coo(rng, 4, 4, 8)
        np.testing.assert_allclose(scale(m, -1.0).to_dense(), -m.to_dense())


class TestStructural:
    def test_transpose_all_formats(self, rng):
        coo = random_coo(rng, 7, 11, 30)
        for m in (coo, coo.to_csr(), coo.to_csc()):
            t = transpose(m)
            np.testing.assert_allclose(t.to_dense(), coo.to_dense().T)
            assert type(t).__name__ == type(m).__name__

    def test_diagonal(self):
        m = COOMatrix((3, 3), [0, 1, 1], [0, 1, 2], [5.0, 6.0, 7.0])
        np.testing.assert_allclose(extract_diagonal(m), [5.0, 6.0, 0.0])

    def test_prune_zeros(self):
        m = COOMatrix((2, 2), [0, 1], [0, 1], [0.0, 2.0])
        p = prune(m)
        assert p.nnz == 1

    def test_prune_threshold(self):
        m = COOMatrix((2, 2), [0, 1], [0, 1], [0.1, 2.0])
        assert prune(m, threshold=0.5).nnz == 1

    def test_triu_tril_partition(self, rng):
        m = random_coo(rng, 9, 9, 40).coalesce()
        up = triu(m, 1)
        lo = tril(m, 0)
        np.testing.assert_allclose(
            add(up, lo).to_dense(), m.to_dense()
        )
        assert np.all(np.triu(up.to_dense(), 1) == up.to_dense())

    def test_row_slice(self, rng):
        m = random_coo(rng, 10, 6, 30).to_csr()
        s = row_slice(m, 3, 7)
        np.testing.assert_allclose(s.to_dense(), m.to_dense()[3:7])

    def test_row_slice_bounds(self, rng):
        m = random_coo(rng, 10, 6, 30).to_csr()
        with pytest.raises(ShapeError):
            row_slice(m, 5, 11)
        with pytest.raises(ShapeError):
            row_slice(m, -1, 5)

    def test_row_slice_empty(self, rng):
        m = random_coo(rng, 10, 6, 30).to_csr()
        s = row_slice(m, 4, 4)
        assert s.shape == (0, 6)
        assert s.nnz == 0

    def test_col_slice(self, rng):
        m = random_coo(rng, 10, 6, 30).to_csc()
        s = col_slice(m, 2, 5)
        np.testing.assert_allclose(s.to_dense(), m.to_dense()[:, 2:5])

    def test_col_slice_views(self, rng):
        # indices/data must be views into the parent, not copies.
        m = random_coo(rng, 10, 6, 30).to_csc()
        s = col_slice(m, 1, 4)
        assert s.indices.base is not None
        assert s.data.base is not None

    def test_col_slice_bounds(self, rng):
        m = random_coo(rng, 10, 6, 30).to_csc()
        with pytest.raises(ShapeError):
            col_slice(m, 4, 7)
        with pytest.raises(ShapeError):
            col_slice(m, -1, 3)

    def test_col_slice_empty(self, rng):
        m = random_coo(rng, 10, 6, 30).to_csc()
        s = col_slice(m, 3, 3)
        assert s.shape == (10, 0)
        assert s.nnz == 0

    def test_col_slice_of_csr_raises(self, rng):
        # A CSR's major segments are rows: col_slice must not cut them.
        m = random_coo(rng, 16, 16, 60).to_csr()
        with pytest.raises(FormatError, match="CSC"):
            col_slice(m, 0, 8)

    def test_row_slice_of_csc_raises(self, rng):
        m = random_coo(rng, 16, 16, 60).to_csc()
        with pytest.raises(FormatError, match="CSR"):
            row_slice(m, 0, 8)
        with pytest.raises(FormatError):
            row_slice(m.to_coo(), 0, 8)
