"""Tests of the ``repro.multiply`` front door and ``@`` delegation.

The kernels keep their strict ``(A as CSC, B as CSR)`` contract;
``multiply`` accepts COO / CSR / CSC / scipy.sparse / dense ndarray in
either position and converts.  Every combination must yield the same
canonical CSR product.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core import PBConfig
from repro.errors import FormatError, ShapeError
from repro.kernels import scipy_spgemm_oracle
from repro.matrix import COOMatrix, CSCMatrix, CSRMatrix
from repro.matrix.ops import allclose
from tests.util import random_coo

FORMATS = ("coo", "csr", "csc")


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(7)
    a = random_coo(rng, 25, 19, 80, duplicates=True)
    b = random_coo(rng, 19, 31, 80, duplicates=True)
    return a, b


@pytest.fixture(scope="module")
def reference(pair):
    a, b = pair
    return scipy_spgemm_oracle(a.to_csc(), b.to_csr())


def _as(mat: COOMatrix, fmt: str):
    return mat if fmt == "coo" else getattr(mat, f"to_{fmt}")()


class TestFormatMatrix:
    @pytest.mark.parametrize("fmt_a", FORMATS)
    @pytest.mark.parametrize("fmt_b", FORMATS)
    def test_all_nine_combinations(self, pair, reference, fmt_a, fmt_b):
        a, b = pair
        c = repro.multiply(_as(a, fmt_a), _as(b, fmt_b))
        assert isinstance(c, CSRMatrix)
        assert allclose(c, reference)

    def test_dense_operands(self, pair, reference):
        a, b = pair
        c = repro.multiply(a.to_dense(), b.to_dense())
        assert isinstance(c, CSRMatrix)
        assert allclose(c, reference)

    def test_scipy_operands(self, pair, reference):
        a, b = pair
        a_sp = sp.coo_matrix(a.to_dense())
        b_sp = sp.csc_matrix(b.to_dense())
        c = repro.multiply(a_sp, b_sp)
        assert allclose(c, reference)

    def test_mixed_native_and_foreign(self, pair, reference):
        a, b = pair
        c = repro.multiply(a.to_csr(), sp.csr_matrix(b.to_dense()))
        assert allclose(c, reference)

    def test_unsupported_operand_raises(self, pair):
        a, b = pair
        with pytest.raises(FormatError, match="operand A"):
            repro.multiply("not a matrix", b)
        with pytest.raises(FormatError, match="operand B"):
            repro.multiply(a, [[1, 2], [3, 4]])

    def test_shape_mismatch(self, pair):
        a, _ = pair
        other = COOMatrix((a.shape[1] + 1, 4), [], [], [])
        with pytest.raises(ShapeError, match="cannot multiply"):
            repro.multiply(a, other)


class TestMatmulOperator:
    @pytest.mark.parametrize("fmt_a", FORMATS)
    @pytest.mark.parametrize("fmt_b", FORMATS)
    def test_operator_equals_multiply(self, pair, reference, fmt_a, fmt_b):
        a, b = pair
        c = _as(a, fmt_a) @ _as(b, fmt_b)
        assert isinstance(c, CSRMatrix)
        assert allclose(c, reference)

    def test_csr_at_dense_stays_dense(self, pair):
        a, b = pair
        out = a.to_csr() @ b.to_dense()
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, a.to_dense() @ b.to_dense(), atol=1e-9)

    def test_operator_shape_mismatch(self, pair):
        a, _ = pair
        tall = CSCMatrix.identity(a.shape[1] + 3)
        with pytest.raises(ShapeError):
            a.to_csr() @ tall


class TestRouting:
    @pytest.mark.parametrize("alg", ("heap", "hash", "hashvec", "spa", "esc_column"))
    def test_algorithm_selection(self, pair, reference, alg):
        a, b = pair
        assert allclose(repro.multiply(a, b, algorithm=alg), reference)

    def test_config_reaches_pb(self, pair, reference):
        a, b = pair
        c = repro.multiply(a, b, config=PBConfig(nbins=4, bin_mapping="balanced"))
        assert allclose(c, reference)

    def test_config_reaches_column_kernels(self, pair, reference):
        # The column kernels accept a config for the uniform dispatch
        # signature; it has no column field for them to read.
        a, b = pair
        cfg = PBConfig(nbins=4)
        assert allclose(repro.multiply(a, b, algorithm="hash", config=cfg),
                        reference)

    def test_string_semiring(self, pair):
        a, b = pair
        by_name = repro.multiply(a, b, semiring="max_times")
        by_obj = repro.multiply(a, b, semiring=repro.semiring.MAX_TIMES)
        assert allclose(by_name, by_obj)

    def test_spgemm_alias(self, pair, reference):
        # repro.spgemm shares multiply's forgiving format contract; the
        # strict positional entry point lives at repro.kernels.spgemm.
        a, b = pair
        assert allclose(repro.spgemm(a, b), reference)
        assert allclose(
            repro.spgemm(a.to_csr(), b.to_csc(), algorithm="heap"), reference
        )

    def test_exported_at_top_level(self):
        assert "multiply" in repro.__all__
        assert callable(repro.process_backend_available)
