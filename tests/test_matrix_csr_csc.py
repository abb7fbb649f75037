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


ORIENTATIONS = [CSRMatrix, CSCMatrix]
SHAPES = [(9, 13), (0, 5), (5, 0)]


def _dense(rng, shape):
    """A dense reference with an empty row and an empty column (when
    the shape has room for them)."""
    m, n = shape
    dense = rng.normal(size=shape) * (rng.random(shape) < 0.35)
    if m > 2 and n > 2:
        dense[1, :] = 0.0
        dense[:, 2] = 0.0
    return dense


def _segments(dense, cls):
    """``dense`` indexed by the major axis of ``cls``: rows for CSR,
    columns for CSC."""
    return dense if cls.major == 0 else dense.T


def _assert_arrays(a, b):
    assert type(a) is type(b)
    assert a.shape == b.shape
    assert a.indptr.tobytes() == b.indptr.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.data.tobytes() == b.data.tobytes()


@pytest.fixture(params=[(cls, shape, transposed) for cls in ORIENTATIONS
                        for shape in SHAPES for transposed in (False, True)],
                ids=lambda p: f"{p[0].__name__}-{p[1][0]}x{p[1][1]}"
                              + ("-T" if p[2] else ""))
def oriented(request, rng):
    """(matrix, its dense reference): each orientation, built directly
    and read as the transpose of the other orientation."""
    cls, shape, transposed = request.param
    dense = _dense(rng, shape)
    if transposed:
        other = CSCMatrix if cls is CSRMatrix else CSRMatrix
        mat = other.from_dense(dense.T).transpose()
    else:
        mat = cls.from_dense(dense)
    assert type(mat) is cls
    return mat, dense


class TestOrientations:
    """Every operation of the shared compressed base through both
    orientations, on a matrix and on the transpose of the other
    orientation, including 0xn and mx0 shapes."""

    def test_orientation_is_class_data(self):
        assert (CSRMatrix.major, CSCMatrix.major) == (0, 1)
        assert CSRMatrix.flipped is CSCMatrix and CSCMatrix.flipped is CSRMatrix
        csr, csc = CSRMatrix.identity(3), CSCMatrix.identity(3)
        assert not isinstance(csc, CSRMatrix)
        assert not isinstance(csr, CSCMatrix)

    def test_segment_accessor(self, oriented):
        mat, dense = oriented
        access = mat.row if mat.major == 0 else mat.col
        for k, line in enumerate(_segments(dense, type(mat))):
            idx, vals = access(k)
            assert idx.tolist() == np.flatnonzero(line).tolist()
            assert vals.tobytes() == line[line != 0].tobytes()
        nmajor = mat.shape[mat.major]
        name = "row" if mat.major == 0 else "column"
        with pytest.raises(ShapeError, match=f"{name} {nmajor} out of range"):
            access(nmajor)
        with pytest.raises(ShapeError):
            access(-1)

    def test_segment_nnz(self, oriented):
        mat, dense = oriented
        counts = mat.row_nnz() if mat.major == 0 else mat.col_nnz()
        assert counts.tolist() == (_segments(dense, type(mat)) != 0).sum(axis=1).tolist()

    def test_slice(self, oriented):
        from repro.matrix import col_slice, row_slice

        mat, dense = oriented
        cut = row_slice if mat.major == 0 else col_slice
        nmajor = mat.shape[mat.major]
        for lo, hi in [(0, nmajor), (nmajor // 3, nmajor // 3 + 2), (nmajor, nmajor)]:
            hi = min(hi, nmajor)
            s = cut(mat, lo, hi)
            assert type(s) is type(mat)
            want = dense[lo:hi] if mat.major == 0 else dense[:, lo:hi]
            assert s.shape == want.shape
            np.testing.assert_array_equal(s.to_dense(), want)
            s._validate()
        with pytest.raises(ShapeError, match="slice"):
            cut(mat, 0, nmajor + 1)
        with pytest.raises(ShapeError):
            cut(mat, -1, 0)

    def test_memory_bytes_and_mean_degree(self, oriented):
        mat, dense = oriented
        nmajor, nnz = mat.shape[mat.major], int((dense != 0).sum())
        assert mat.nnz == nnz
        assert mat.memory_bytes() == (nmajor + 1) * 4 + nnz * 4 + nnz * 8
        assert mat.memory_bytes(8, 4) == (nmajor + 1) * 8 + nnz * 8 + nnz * 4
        assert mat.mean_degree() == (nnz / nmajor if nmajor else 0.0)

    def test_to_coo(self, oriented):
        mat, dense = oriented
        coo = mat.to_coo()
        assert coo.shape == dense.shape
        np.testing.assert_array_equal(coo.to_dense(), dense)
        # Entries come out in the matrix's major-axis order.
        major = coo.rows if mat.major == 0 else coo.cols
        assert np.all(np.diff(major) >= 0)
        np.testing.assert_array_equal(mat.to_dense(), dense)

    def test_from_scipy(self, oriented):
        import scipy.sparse as sp

        mat, dense = oriented
        cls = type(mat)
        for fmt in ("coo", "csr", "csc"):
            got = cls.from_scipy(sp.coo_matrix(dense).asformat(fmt))
            _assert_arrays(got, cls.from_dense(dense))
        assert type(mat.to_scipy()).__name__ == f"{('csr', 'csc')[mat.major]}_matrix"
        np.testing.assert_array_equal(mat.to_scipy().toarray(), dense)

    def test_flip(self, oriented):
        mat, dense = oriented
        other = type(mat).flipped
        flipped = mat.to_csc() if mat.major == 0 else mat.to_csr()
        _assert_arrays(flipped, other.from_dense(dense))
        back = flipped.to_csr() if mat.major == 0 else flipped.to_csc()
        _assert_arrays(back, type(mat).from_dense(dense))
        # The same-orientation conversion is the identity.
        assert (mat.to_csr() if mat.major == 0 else mat.to_csc()) is mat
        # Transpose reinterprets the arrays as the other orientation.
        t = mat.transpose()
        assert type(t) is other and t.indices is mat.indices
        np.testing.assert_array_equal(t.to_dense(), dense.T)

    def test_copy_is_deep_and_same_orientation(self, oriented):
        mat, _ = oriented
        dup = mat.copy()
        _assert_arrays(dup, mat)
        assert dup.indptr is not mat.indptr and dup.data is not mat.data

    def test_empty_and_identity(self, oriented):
        mat, _ = oriented
        cls = type(mat)
        empty = cls.empty(mat.shape)
        assert type(empty) is cls and empty.nnz == 0
        assert len(empty.indptr) == mat.shape[cls.major] + 1
        np.testing.assert_array_equal(cls.identity(4).to_dense(), np.eye(4))

    @pytest.mark.parametrize("cls", ORIENTATIONS)
    def test_validation_errors(self, cls):
        major, minor = ("row", "column") if cls.major == 0 else ("column", "row")
        fmt = cls.__name__[:3]
        with pytest.raises(FormatError, match=f"{fmt} {major}s must have strictly "
                                              f"increasing {minor} indices"):
            cls((3, 3), [0, 2, 2, 2], [2, 0], [1.0, 1.0])  # unsorted
        with pytest.raises(FormatError):
            cls((3, 3), [0, 2, 2, 2], [1, 1], [1.0, 1.0])  # duplicate
        with pytest.raises(FormatError):
            cls((3, 3), [0, 1, 1, 1], [3], [1.0])  # minor index out of range
        with pytest.raises(FormatError):
            cls((3, 3), [0, 1, 1], [0], [1.0])  # indptr too short
        # Validation reads the shape along the matrix's own axes.
        shape = (2, 4) if cls.major == 0 else (4, 2)
        cls(shape, [0, 1, 2], [3, 0], [1.0, 2.0])
        with pytest.raises(FormatError):
            cls(shape[::-1], [0, 1, 2], [3, 0], [1.0, 2.0])

    @pytest.mark.parametrize("cls", ORIENTATIONS)
    def test_flip_is_patchable_per_class(self, cls, monkeypatch):
        # Tracing wraps CSRMatrix.to_csc and CSCMatrix.to_csr on their
        # own classes; a patch must reach that orientation only.
        name = "to_csc" if cls is CSRMatrix else "to_csr"
        calls = []
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self: calls.append(1) or real(self))
        mat = cls.identity(3)
        getattr(mat.transpose(), name)()  # the other orientation: identity
        assert calls == []
        getattr(mat, name)()
        assert calls == [1]
