"""Unit tests for CSR/CSC formats and conversions."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.matrix import COOMatrix, CSCMatrix, CSRMatrix

from tests.util import random_coo


class TestCSRConstruction:
    def test_valid(self):
        m = CSRMatrix((2, 3), [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0])
        assert m.nnz == 3
        assert m.row_nnz().tolist() == [2, 1]

    def test_empty(self):
        m = CSRMatrix.empty((4, 6))
        assert m.nnz == 0
        assert len(m.indptr) == 5

    def test_identity(self):
        e = CSRMatrix.identity(5)
        np.testing.assert_allclose(e.to_dense(), np.eye(5))

    def test_bad_indptr_length(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 3), [0, 1], [0], [1.0])

    def test_indptr_not_starting_at_zero(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 3), [1, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0])

    def test_indptr_nnz_mismatch(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 3), [0, 1, 5], [0, 1], [1.0, 1.0])

    def test_decreasing_indptr(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 3), [0, 2, 1], [0, 1, 2][:1], [1.0])

    def test_unsorted_row_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix((1, 4), [0, 2], [3, 1], [1.0, 1.0])

    def test_duplicate_in_row_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix((1, 4), [0, 2], [1, 1], [1.0, 1.0])

    def test_index_out_of_range(self):
        with pytest.raises(FormatError):
            CSRMatrix((2, 3), [0, 1, 1], [3], [1.0])

    def test_row_access(self):
        m = CSRMatrix((2, 4), [0, 2, 3], [1, 3, 0], [5.0, 6.0, 7.0])
        idx, vals = m.row(0)
        assert idx.tolist() == [1, 3]
        assert vals.tolist() == [5.0, 6.0]
        with pytest.raises(ShapeError):
            m.row(2)

    def test_from_scipy_roundtrip(self, rng):
        coo = random_coo(rng, 12, 9, 40, duplicates=True)
        ours = coo.to_csr()
        theirs = CSRMatrix.from_scipy(ours.to_scipy())
        np.testing.assert_allclose(ours.to_dense(), theirs.to_dense())


class TestCSCConstruction:
    def test_valid(self):
        m = CSCMatrix((3, 2), [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0])
        assert m.col_nnz().tolist() == [2, 1]

    def test_col_access(self):
        m = CSCMatrix((4, 2), [0, 2, 3], [1, 3, 0], [5.0, 6.0, 7.0])
        idx, vals = m.col(0)
        assert idx.tolist() == [1, 3]
        with pytest.raises(ShapeError):
            m.col(5)

    def test_unsorted_col_rejected(self):
        with pytest.raises(FormatError):
            CSCMatrix((4, 1), [0, 2], [3, 1], [1.0, 1.0])

    def test_identity(self):
        np.testing.assert_allclose(CSCMatrix.identity(4).to_dense(), np.eye(4))


class TestConversionRoundtrips:
    @pytest.mark.parametrize("m,n,nnz", [(10, 10, 30), (5, 20, 40), (20, 5, 40), (1, 1, 1), (7, 3, 0)])
    def test_coo_csr_coo(self, rng, m, n, nnz):
        coo = random_coo(rng, m, n, nnz, duplicates=True).coalesce()
        back = coo.to_csr().to_coo()
        np.testing.assert_allclose(back.to_dense(), coo.to_dense())

    @pytest.mark.parametrize("m,n,nnz", [(10, 10, 30), (5, 20, 40), (20, 5, 40)])
    def test_coo_csc_coo(self, rng, m, n, nnz):
        coo = random_coo(rng, m, n, nnz, duplicates=True).coalesce()
        back = coo.to_csc().to_coo()
        np.testing.assert_allclose(back.to_dense(), coo.to_dense())

    def test_csr_csc_csr(self, rng):
        csr = random_coo(rng, 14, 11, 50, duplicates=True).to_csr()
        back = csr.to_csc().to_csr()
        np.testing.assert_allclose(back.to_dense(), csr.to_dense())
        assert back.indptr.tolist() == csr.indptr.tolist()
        assert back.indices.tolist() == csr.indices.tolist()

    def test_csc_canonical_after_conversion(self, rng):
        csc = random_coo(rng, 30, 20, 100, duplicates=True).to_csr().to_csc()
        csc._validate()  # raises on violation

    def test_transpose_is_zero_copy_view(self, rng):
        csr = random_coo(rng, 9, 13, 40).to_csr()
        t = csr.transpose()  # CSC of the transpose
        assert t.shape == (13, 9)
        assert t.indices is csr.indices
        np.testing.assert_allclose(t.to_dense(), csr.to_dense().T)

    def test_dense_roundtrip(self, rng):
        dense = rng.normal(size=(8, 12)) * (rng.random((8, 12)) < 0.3)
        m = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(m.to_dense(), dense)


class TestSpMVAndMisc:
    def test_dot_dense_vector(self, rng):
        csr = random_coo(rng, 10, 8, 30).to_csr()
        x = rng.normal(size=8)
        np.testing.assert_allclose(csr.dot_dense(x), csr.to_dense() @ x)

    def test_dot_dense_matrix(self, rng):
        csr = random_coo(rng, 10, 8, 30).to_csr()
        x = rng.normal(size=(8, 3))
        np.testing.assert_allclose(csr.dot_dense(x), csr.to_dense() @ x)

    def test_dot_shape_mismatch(self, rng):
        csr = random_coo(rng, 10, 8, 30).to_csr()
        with pytest.raises(ShapeError):
            csr.dot_dense(np.ones(9))

    def test_matmul_operator(self, rng):
        a = random_coo(rng, 6, 7, 20).to_csr()
        b = random_coo(rng, 7, 5, 20).to_csr()
        c = a @ b
        np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-12)

    def test_matmul_shape_mismatch(self, rng):
        a = random_coo(rng, 6, 7, 10).to_csr()
        b = random_coo(rng, 6, 7, 10).to_csr()
        with pytest.raises(ShapeError):
            a @ b

    def test_density_and_degree(self):
        m = CSRMatrix((2, 2), [0, 1, 2], [0, 1], [1.0, 1.0])
        assert m.density() == 0.5
        assert m.mean_degree() == 1.0

    def test_memory_bytes(self):
        m = CSRMatrix((2, 2), [0, 1, 2], [0, 1], [1.0, 1.0])
        assert m.memory_bytes() == 3 * 4 + 2 * 4 + 2 * 8

    def test_to_csr_identity(self, rng):
        m = random_coo(rng, 5, 5, 10).to_csr()
        assert m.to_csr() is m
        c = m.to_csc()
        assert c.to_csc() is c


def _with_values(mat, dtype, rng):
    """``mat`` with its values replaced by ``dtype`` values (the formats
    coerce to float64 on construction, so the conversions can also meet
    narrower arrays set afterwards)."""
    n = len(mat.data)
    if dtype == np.float64:
        vals = rng.normal(size=n)
        specials = [-0.0, np.nan, -np.nan, np.inf, -np.inf]
        vals[: min(n, len(specials))] = specials[: min(n, len(specials))]
    elif dtype == np.bool_:
        vals = rng.random(n) < 0.5
    else:
        vals = rng.integers(-1000, 1000, size=n).astype(dtype)
    mat.data = np.asarray(vals, dtype=dtype)
    return mat


def _structures(rng):
    """CSR matrices covering the degenerate and rectangular shapes."""
    holes = random_coo(rng, 30, 20, 120).to_csr().to_dense()
    holes[[2, 5, 17], :] = 0.0  # empty rows
    holes[:, [0, 3, 19]] = 0.0  # empty columns
    return {
        "0xn": CSRMatrix.empty((0, 5)),
        "mx0": CSRMatrix.empty((5, 0)),
        "1x1": CSRMatrix((1, 1), [0, 1], [0], [2.5]),
        "1x1_empty": CSRMatrix.empty((1, 1)),
        "nnz0": CSRMatrix.empty((7, 9)),
        "wide": random_coo(rng, 9, 300, 400, duplicates=True).to_csr(),
        "tall": random_coo(rng, 300, 9, 400, duplicates=True).to_csr(),
        "holes": CSRMatrix.from_dense(holes),
    }


class TestCompiledTranspose:
    """``csr_to_csc``/``csc_to_csr`` on the compiled counting transpose
    against the argsort fallback run under ``jit.disabled()``: bit for
    bit, and the compiled kernel serves exactly the int64-index,
    8-byte-value conversions."""

    @pytest.fixture(autouse=True)
    def _engine(self):
        from repro.kernels import jit

        if not jit.jit_available():
            pytest.skip("compiled engine unavailable")

    @staticmethod
    def _assert_bits(out, ref):
        assert out.shape == ref.shape
        assert out.indptr.tobytes() == ref.indptr.tobytes()
        assert out.indices.tobytes() == ref.indices.tobytes()
        assert out.data.dtype == ref.data.dtype
        assert out.data.tobytes() == ref.data.tobytes()

    @staticmethod
    def _counting_calls(monkeypatch):
        from repro.kernels import jit

        calls = []
        real = jit.transpose_jit

        def counted(*args):
            out = real(*args)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(jit, "transpose_jit", counted)
        return calls

    @pytest.mark.parametrize(
        "dtype,compiled",
        [(np.float64, True), (np.int64, True), (np.float32, False), (np.bool_, False)],
    )
    def test_matches_argsort_path(self, rng, monkeypatch, dtype, compiled):
        from repro.kernels import jit

        for name, csr in _structures(rng).items():
            csr = _with_values(csr, dtype, rng)
            csc = CSCMatrix(
                (csr.shape[1], csr.shape[0]), csr.indptr, csr.indices, csr.data,
                validate=False,
            )  # the transpose's structure, read as CSC
            csc.data = csr.data
            calls = self._counting_calls(monkeypatch)
            got = [csr.to_csc(), csc.to_csr()]
            assert calls == [compiled, compiled], name
            monkeypatch.undo()
            with jit.disabled():
                want = [csr.to_csc(), csc.to_csr()]
            for out, ref in zip(got, want):
                self._assert_bits(out, ref)

    def test_roundtrip_is_identity(self, rng):
        for csr in _structures(rng).values():
            back = csr.to_csc().to_csr()
            self._assert_bits(back, csr)

    def test_kernel_declines_what_it_cannot_serve(self):
        from repro.kernels import jit

        ptr = np.array([0, 2, 1, 3], dtype=np.int64)  # decreasing
        assert jit.transpose_jit(ptr, np.zeros(3, np.int64), np.zeros(3), 4) is None
        ptr = np.array([0, 1, 2], dtype=np.int64)
        idx = np.array([0, 4], dtype=np.int64)  # minor id out of range
        assert jit.transpose_jit(ptr, idx, np.zeros(2), 4) is None
        idx = np.array([0, 3], dtype=np.int64)
        assert jit.transpose_jit(ptr, idx, np.zeros(2), 4) is not None
        assert jit.transpose_jit(ptr, idx.astype(np.int32), np.zeros(2), 4) is None
        assert jit.transpose_jit(ptr, idx, np.zeros(2, np.float32), 4) is None
        assert jit.transpose_jit(ptr[:2], idx, np.zeros(2), 4) is None  # nnz mismatch
