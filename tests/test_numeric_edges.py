"""Numeric and structural edge cases / failure injection."""

import importlib

import numpy as np
import pytest

from repro.core import PBConfig, pb_spgemm, plan_bins
from repro.errors import ConfigError
from repro.kernels import scipy_spgemm_oracle, spgemm
from repro.matrix import COOMatrix, CSCMatrix, CSRMatrix
from repro.matrix.ops import allclose

# The modules, not the functions ``repro.core`` re-exports.
PB_MODULE = importlib.import_module("repro.core.pb_spgemm")
CONFIG_MODULE = importlib.import_module("repro.core.config")

ALGS = ("pb", "heap", "hash", "hashvec", "spa", "esc_column")


class TestSpecialValues:
    def _pair_with_values(self, vals_a, vals_b):
        a = COOMatrix((2, 2), [0, 1], [0, 1], vals_a).to_csc()
        b = COOMatrix((2, 2), [0, 1], [0, 1], vals_b).to_csr()
        return a, b

    @pytest.mark.parametrize("alg", ALGS)
    def test_infinities(self, alg):
        a, b = self._pair_with_values([np.inf, 2.0], [3.0, -np.inf])
        c = spgemm(a, b, algorithm=alg)
        dense = c.to_dense()
        assert dense[0, 0] == np.inf
        assert dense[1, 1] == -np.inf

    @pytest.mark.parametrize("alg", ALGS)
    def test_nan_propagates(self, alg):
        a, b = self._pair_with_values([np.nan, 1.0], [1.0, 1.0])
        c = spgemm(a, b, algorithm=alg)
        assert np.isnan(c.to_dense()[0, 0])

    @pytest.mark.parametrize("alg", ALGS)
    def test_tiny_and_huge_magnitudes(self, alg):
        a, b = self._pair_with_values([1e-300, 1e300], [1e-300, 1e300])
        with np.errstate(over="ignore", under="ignore"):
            c = spgemm(a, b, algorithm=alg)
        dense = c.to_dense()
        assert dense[0, 0] == 0.0 or dense[0, 0] == pytest.approx(1e-600)
        assert np.isinf(dense[1, 1]) or dense[1, 1] == pytest.approx(1e600)

    def test_negative_values_cancel_exactly(self):
        a = COOMatrix((1, 2), [0, 0], [0, 1], [1.5, -1.5]).to_csc()
        b = COOMatrix((2, 1), [0, 1], [0, 0], [2.0, 2.0]).to_csr()
        for alg in ALGS:
            c = spgemm(a, b, algorithm=alg)
            assert allclose(c, scipy_spgemm_oracle(a, b)), alg


class TestDegenerateShapes:
    @pytest.mark.parametrize("alg", ALGS)
    def test_zero_by_zero(self, alg):
        c = spgemm(CSCMatrix.empty((0, 0)), CSRMatrix.empty((0, 0)), algorithm=alg)
        assert c.shape == (0, 0)

    @pytest.mark.parametrize("alg", ALGS)
    def test_one_by_one(self, alg):
        a = CSCMatrix((1, 1), [0, 1], [0], [3.0])
        b = CSRMatrix((1, 1), [0, 1], [0], [4.0])
        c = spgemm(a, b, algorithm=alg)
        assert c.to_dense()[0, 0] == 12.0

    @pytest.mark.parametrize("alg", ALGS)
    def test_row_vector_times_column_vector(self, alg):
        # (1 x 5) @ (5 x 1) -> scalar
        a = COOMatrix((1, 5), [0, 0], [1, 3], [2.0, 3.0]).to_csc()
        b = COOMatrix((5, 1), [1, 3], [0, 0], [5.0, 7.0]).to_csr()
        c = spgemm(a, b, algorithm=alg)
        assert c.to_dense()[0, 0] == 31.0

    @pytest.mark.parametrize("alg", ALGS)
    def test_outer_product_shape(self, alg):
        # (5 x 1) @ (1 x 5) -> rank-1
        a = COOMatrix((5, 1), [0, 4], [0, 0], [1.0, 2.0]).to_csc()
        b = COOMatrix((1, 5), [0, 0], [0, 4], [3.0, 4.0]).to_csr()
        c = spgemm(a, b, algorithm=alg)
        dense = c.to_dense()
        assert dense[0, 0] == 3.0 and dense[4, 4] == 8.0
        assert c.nnz == 4

    def test_dense_row_in_sparse_matrix(self):
        # One fully dense row (worst-case single bin load).
        n = 64
        dense_row = COOMatrix(
            (n, n),
            np.concatenate([np.zeros(n, dtype=int), [5]]),
            np.concatenate([np.arange(n), [5]]),
            np.ones(n + 1),
        ).to_csr()
        a = dense_row.to_csc()
        c = pb_spgemm(a, dense_row)
        assert allclose(c, scipy_spgemm_oracle(a, dense_row))


class TestKeyPackingLimits:
    def test_oversized_key_rejected(self):
        with pytest.raises(ConfigError):
            plan_bins(1 << 35, 1 << 35, 16, 1 << 31)

    def test_large_dims_fall_back_to_64bit(self):
        layout = plan_bins(1 << 22, 1 << 22, 1024, 1 << 12)
        assert layout.key_dtype == np.uint64  # 12 + 22 = 34 bits > 32

    def test_paper_example_packs(self):
        layout = plan_bins(1 << 20, 1 << 20, 1024, 1 << 10)
        assert layout.key_dtype == np.uint32


class TestPBConfigExtremes:
    def test_one_tuple_local_bin(self, small_pair):
        a, b = small_pair
        cfg = PBConfig(local_bin_bytes=16, use_local_bins=True)  # one tuple
        assert allclose(pb_spgemm(a, b, config=cfg), scipy_spgemm_oracle(a, b))

    def test_giant_l2_target_single_bin(self, small_pair, monkeypatch):
        monkeypatch.setattr(CONFIG_MODULE, "DEFAULT_L2_TARGET_BYTES", 1 << 40)
        a, b = small_pair
        assert allclose(pb_spgemm(a, b), scipy_spgemm_oracle(a, b))

    def test_chunk_of_one_flop(self, monkeypatch):
        monkeypatch.setattr(PB_MODULE, "DEFAULT_CHUNK_FLOPS", 1)
        a = COOMatrix((8, 8), [0, 3, 5], [1, 2, 7], [1.0, 2.0, 3.0]).to_csc()
        b = COOMatrix((8, 8), [1, 2, 7], [4, 4, 0], [1.0, 1.0, 1.0]).to_csr()
        assert allclose(pb_spgemm(a, b), scipy_spgemm_oracle(a, b))


class TestLargeFlopTotals:
    def test_flop_count_uses_int64(self):
        # Pointer-only symbolic with counts that would overflow int32.
        from repro.core.symbolic import symbolic_phase

        n = 4
        big = 70_000  # 70k * 70k per column pair > 2^32 total
        indptr = np.arange(n + 1) * big
        indices = np.tile(np.arange(big) % (n * big), 1)  # placeholder
        # Build via column counts only: use matrices with many entries in
        # one column but tiny dims is impossible; instead check the dtype
        # arithmetic directly.
        a_colnnz = np.full(n, big, dtype=np.int64)
        b_rownnz = np.full(n, big, dtype=np.int64)
        per_k = a_colnnz * b_rownnz
        assert per_k.sum() == 4 * big * big  # no overflow at int64
        assert per_k.sum() > np.iinfo(np.int32).max
