"""Tests for MatrixMarket I/O and the statistics module."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.generators import erdos_renyi
from repro.matrix import (
    COOMatrix,
    matrix_stats,
    multiply_stats,
    read_matrix_market,
    write_matrix_market,
)
from repro.matrix.stats import (
    degree_histogram,
    flops_per_k,
    flops_per_row,
    total_flops,
)
from repro.matrix.ops import allclose

from tests.util import random_coo


class TestMatrixMarket:
    def test_roundtrip(self, rng, tmp_path):
        m = random_coo(rng, 12, 9, 30).coalesce()
        path = tmp_path / "m.mtx"
        write_matrix_market(m, path)
        back = read_matrix_market(path)
        assert allclose(m, back)

    def test_roundtrip_csr(self, rng, tmp_path):
        m = random_coo(rng, 6, 6, 12).to_csr()
        path = tmp_path / "m.mtx"
        write_matrix_market(m, path)
        assert allclose(m, read_matrix_market(path))

    def test_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
        )
        m = read_matrix_market(path)
        np.testing.assert_allclose(m.to_dense(), np.eye(2))

    def test_symmetric_unfolds(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n"
        )
        m = read_matrix_market(path)
        dense = m.to_dense()
        assert dense[1, 0] == 5.0 and dense[0, 1] == 5.0
        assert dense[2, 2] == 1.0

    def test_skew_symmetric(self, tmp_path):
        path = tmp_path / "sk.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4.0\n"
        )
        dense = read_matrix_market(path).to_dense()
        assert dense[1, 0] == 4.0 and dense[0, 1] == -4.0

    def test_missing_banner(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("1 1 0\n")
        with pytest.raises(FormatError):
            read_matrix_market(path)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")
        with pytest.raises(FormatError):
            read_matrix_market(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
        with pytest.raises(FormatError):
            read_matrix_market(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n% a comment\n\n1 1 1\n1 1 2.5\n"
        )
        assert read_matrix_market(path).to_dense()[0, 0] == 2.5


class TestStats:
    def test_matrix_stats_basic(self):
        m = COOMatrix((3, 3), [0, 0, 1], [0, 1, 2], [1.0, 1.0, 1.0]).to_csr()
        s = matrix_stats(m)
        assert s.nnz == 3
        assert s.max_row_nnz == 2
        assert s.mean_degree == 1.0

    def test_flops_per_k_matches_bruteforce(self, rng):
        a = random_coo(rng, 15, 12, 40).to_csc()
        b = random_coo(rng, 12, 18, 40).to_csr()
        per_k = flops_per_k(a, b)
        da, db = a.to_dense(), b.to_dense()
        expected = [
            np.count_nonzero(da[:, k]) * np.count_nonzero(db[k, :])
            for k in range(12)
        ]
        assert per_k.tolist() == expected

    @pytest.mark.parametrize(
        "m, k, n", [(15, 12, 18), (30, 4, 2), (3, 40, 25), (0, 5, 4), (6, 0, 4), (6, 5, 0)]
    )
    def test_flops_per_row_matches_bruteforce(self, rng, m, k, n):
        a = random_coo(rng, m, k, (m * k) // 3).to_csc()
        b = random_coo(rng, k, n, (k * n) // 3).to_csr()
        got = flops_per_row(a, b)
        da, db = a.to_dense(), b.to_dense()
        expected = [
            sum(np.count_nonzero(db[kk, :]) for kk in range(k) if da[i, kk] != 0)
            for i in range(m)
        ]
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert int(got.sum()) == total_flops(a, b)

    def test_total_flops_equals_expanded_tuples(self, small_pair):
        from repro.kernels import expand_outer

        a, b = small_pair
        rows, _, _ = expand_outer(a, b)
        assert total_flops(a, b) == len(rows)

    def test_multiply_stats_exact(self, small_pair):
        from repro.kernels import scipy_spgemm_oracle

        a, b = small_pair
        ms = multiply_stats(a, b)
        oracle = scipy_spgemm_oracle(a, b)
        assert ms.exact
        assert ms.nnz_c == oracle.nnz
        assert ms.cf == pytest.approx(ms.flop / oracle.nnz)

    def test_multiply_stats_sampled_close(self, small_pair):
        a, b = small_pair
        exact = multiply_stats(a, b)
        sampled = multiply_stats(a, b, exact_threshold=0)
        assert not sampled.exact
        assert sampled.nnz_c == pytest.approx(exact.nnz_c, rel=0.15)

    def test_multiply_stats_empty(self):
        from repro.matrix import CSCMatrix, CSRMatrix

        ms = multiply_stats(CSCMatrix.empty((4, 4)), CSRMatrix.empty((4, 4)))
        assert ms.flop == 0 and ms.nnz_c == 0 and ms.cf == 1.0

    def test_cf_at_least_one(self, skewed_pair):
        a, b = skewed_pair
        ms = multiply_stats(a, b)
        assert ms.cf >= 1.0

    def test_degree_histogram(self):
        m = COOMatrix((4, 4), [0, 0, 1], [0, 1, 2], [1.0] * 3).to_csr()
        hist = degree_histogram(m, "row")
        # rows: degrees 2,1,0,0 -> hist[0]=2, hist[1]=1, hist[2]=1
        assert hist.tolist() == [2, 1, 1]

    def test_degree_histogram_col(self):
        m = COOMatrix((4, 4), [0, 1, 2], [0, 0, 0], [1.0] * 3).to_csr()
        hist = degree_histogram(m, "col")
        assert hist[3] == 1 and hist[0] == 3

    def test_degree_histogram_bad_axis(self):
        m = COOMatrix.empty((2, 2)).to_csr()
        with pytest.raises(ValueError):
            degree_histogram(m, "diag")

    def test_er_expected_stats_sane(self):
        from repro.generators.er import er_expected_stats

        st = er_expected_stats(1 << 14, 8)
        a = erdos_renyi(1 << 14, 8, seed=0)
        ms = multiply_stats(a.to_csc(), a)
        assert ms.flop == pytest.approx(st["flop"], rel=0.05)
        assert ms.nnz_c == pytest.approx(st["nnz_c"], rel=0.05)
