"""Tests for the ESC primitives: expand, radix sort, compress."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels.compress import compress_keyed, compress_sorted
from repro.kernels.outer_expand import (
    expand_arena,
    expand_chunks,
    expand_outer,
    iter_expand_columns,
)
from repro.kernels.radix import (
    counting_passes,
    passes_for_bits,
    radix_argsort,
    radix_sort_keys,
    radix_sort_pairs,
    sort_tuples,
)
from repro.matrix import CSCMatrix, CSRMatrix

from tests.util import random_coo


def dense_tuple_multiset(a_csc, b_csr):
    """All (row, col, val) products via dense loops — the expand oracle."""
    da, db = a_csc.to_dense(), b_csr.to_dense()
    out = []
    for k in range(a_csc.shape[1]):
        for i in np.nonzero(da[:, k])[0]:
            for j in np.nonzero(db[k, :])[0]:
                out.append((i, j, da[i, k] * db[k, j]))
    return sorted(out)


class TestExpand:
    def test_matches_dense_multiset(self, rng):
        a = random_coo(rng, 12, 10, 30).to_csc()
        b = random_coo(rng, 10, 14, 30).to_csr()
        rows, cols, vals = expand_outer(a, b)
        got = sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))
        expected = dense_tuple_multiset(a, b)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[0] == e[0] and g[1] == e[1]
            assert g[2] == pytest.approx(e[2])

    def test_tuple_count_is_flop(self, small_pair):
        from repro.matrix.stats import total_flops

        a, b = small_pair
        rows, _, _ = expand_outer(a, b)
        assert len(rows) == total_flops(a, b)

    def test_outer_order_grouped_by_k(self, rng):
        # Tuples from outer product k appear contiguously, k ascending.
        a = random_coo(rng, 8, 6, 15).to_csc()
        b = random_coo(rng, 6, 9, 15).to_csr()
        per_k = a.col_nnz() * b.row_nnz()
        rows, cols, _ = expand_outer(a, b)
        pos = 0
        for k in range(6):
            cnt = int(per_k[k])
            seg_rows = set(rows[pos : pos + cnt].tolist())
            assert seg_rows <= set(a.col(k)[0].tolist())
            pos += cnt

    def test_empty_operands(self):
        rows, cols, vals = expand_outer(CSCMatrix.empty((5, 4)), CSRMatrix.empty((4, 6)))
        assert len(rows) == len(cols) == len(vals) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            expand_outer(CSCMatrix.empty((5, 4)), CSRMatrix.empty((5, 6)))

    def test_chunks_concatenate_to_full(self, small_pair):
        a, b = small_pair
        full = expand_outer(a, b)
        parts = list(expand_chunks(a, b, chunk_flops=500))
        assert len(parts) > 1
        rows = np.concatenate([p[0] for p in parts])
        cols = np.concatenate([p[1] for p in parts])
        vals = np.concatenate([p[2] for p in parts])
        np.testing.assert_array_equal(rows, full[0])
        np.testing.assert_array_equal(cols, full[1])
        np.testing.assert_allclose(vals, full[2])

    def test_chunks_respect_budget_loosely(self, small_pair):
        a, b = small_pair
        budget = 1000
        max_per_k = int((a.col_nnz() * b.row_nnz()).max())
        for rows, _, _ in expand_chunks(a, b, chunk_flops=budget):
            assert len(rows) <= budget + max_per_k

    def test_chunks_without_values(self, small_pair):
        a, b = small_pair
        for rows, cols, vals in expand_chunks(a, b, chunk_flops=1000, with_values=False):
            assert vals is None
            assert len(rows) == len(cols)

    def test_chunks_invalid_budget(self, small_pair):
        a, b = small_pair
        with pytest.raises(ValueError):
            list(expand_chunks(a, b, chunk_flops=0))

    @staticmethod
    def _column_major(a, b):
        """The whole column-major stream, from the chunked expand."""
        parts = list(iter_expand_columns(a, b, chunk_flops=16))
        assert [p[0] for p in parts[1:]] == [p[1] for p in parts[:-1]]
        return tuple(np.concatenate([p[i] for p in parts]) for i in (2, 3, 4))

    def test_column_major_same_multiset(self, rng):
        a = random_coo(rng, 10, 8, 25).to_csc()
        b = random_coo(rng, 8, 12, 25).to_csr()
        r1, c1, v1 = expand_outer(a, b)
        r2, c2, v2 = self._column_major(a, b)
        k1 = sorted(zip(r1.tolist(), c1.tolist(), np.round(v1, 9).tolist()))
        k2 = sorted(zip(r2.tolist(), c2.tolist(), np.round(v2, 9).tolist()))
        assert k1 == k2

    def test_column_major_grouped_by_output_column(self, rng):
        a = random_coo(rng, 10, 8, 25).to_csc()
        b = random_coo(rng, 8, 12, 25).to_csr()
        _, cols, _ = self._column_major(a, b)
        assert np.all(np.diff(cols) >= 0)

    def test_semiring_multiply_used(self, small_pair):
        a, b = small_pair
        _, _, v_pair = expand_outer(a, b, semiring="plus_pair")
        assert np.all(v_pair == 1.0)


class TestRadixSort:
    def test_passes_for_bits(self):
        assert passes_for_bits(0) == 0
        assert passes_for_bits(1) == 1
        assert passes_for_bits(8) == 1
        assert passes_for_bits(9) == 2
        assert passes_for_bits(32) == 4
        assert passes_for_bits(64) == 8

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_sorts_random(self, rng, dtype):
        keys = rng.integers(0, np.iinfo(dtype).max, size=500, dtype=dtype)
        out, passes = radix_sort_keys(keys)
        np.testing.assert_array_equal(out, np.sort(keys))
        assert passes == keys.dtype.itemsize

    def test_key_bits_reduce_passes(self, rng):
        keys = rng.integers(0, 1 << 20, size=300, dtype=np.uint64)
        out, passes = radix_sort_keys(keys, key_bits=20)
        np.testing.assert_array_equal(out, np.sort(keys))
        assert passes == 3

    def test_stability(self):
        keys = np.array([3, 1, 3, 1, 2], dtype=np.uint32)
        order, _ = radix_argsort(keys)
        # Equal keys keep original relative order.
        assert order.tolist() == [1, 3, 4, 0, 2]

    def test_empty_and_single(self):
        order, _ = radix_argsort(np.array([], dtype=np.uint32))
        assert len(order) == 0
        order, _ = radix_argsort(np.array([7], dtype=np.uint32))
        assert order.tolist() == [0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            radix_argsort(np.array([1.5]))
        with pytest.raises(ValueError):
            radix_argsort(np.zeros((2, 2), dtype=np.uint32))

    def test_sort_tuples_carries_payloads(self, rng):
        keys = rng.integers(0, 100, size=200, dtype=np.uint32)
        vals = rng.normal(size=200)
        sk, sv, _ = sort_tuples(keys, vals)
        order = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(sk, keys[order])
        np.testing.assert_allclose(sv, vals[order])

    def test_sort_tuples_length_mismatch(self):
        with pytest.raises(ValueError):
            sort_tuples(np.array([1, 2], dtype=np.uint32), np.array([1.0]))


class TestCountingScatter:
    """The counting-scatter hot path and its degenerate bins."""

    def test_counting_passes(self):
        assert counting_passes(0) == 0
        assert counting_passes(16) == 1
        assert counting_passes(17) == 2
        assert counting_passes(32) == 2
        assert counting_passes(22, digit_bits=8) == 3
        assert counting_passes(64) == 4

    def test_empty_bin(self):
        sk, sv, passes = radix_sort_pairs(
            np.array([], dtype=np.uint32), np.array([], dtype=np.float64), key_bits=22
        )
        assert len(sk) == 0 and len(sv) == 0
        assert passes == 3  # byte-pass accounting is size-independent

    def test_single_tuple_bin(self):
        sk, sv, _ = radix_sort_pairs(
            np.array([41], dtype=np.uint32), np.array([2.5]), key_bits=22
        )
        assert sk.tolist() == [41] and sv.tolist() == [2.5]

    def test_all_equal_keys_preserve_payload_order(self, rng):
        keys = np.full(257, 9, dtype=np.uint32)
        vals = rng.normal(size=257)
        sk, sv, _ = radix_sort_pairs(keys, vals, key_bits=22)
        np.testing.assert_array_equal(sk, keys)
        np.testing.assert_allclose(sv, vals)  # stability: untouched order

    def test_17_bit_keys_three_byte_passes(self, rng):
        # key_bits not a multiple of 8: 17 bits → 3 byte passes charged,
        # 2 counting passes performed (16 + a 1-bit uint8 tail digit).
        keys = rng.integers(0, 1 << 17, size=400, dtype=np.uint32)
        vals = rng.normal(size=400)
        sk, sv, passes = radix_sort_pairs(keys, vals, key_bits=17)
        assert passes == passes_for_bits(17) == 3
        assert counting_passes(17) == 2
        order = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(sk, keys[order])
        np.testing.assert_allclose(sv, vals[order])

    @pytest.mark.parametrize("backend", ["radix", "compiled"])
    def test_backends_bit_identical(self, rng, backend):
        keys = rng.integers(0, 1 << 22, size=1000, dtype=np.uint32)
        vals = rng.normal(size=1000)
        ref_o = np.argsort(keys, kind="stable")
        if backend == "radix":
            sk, sv, _ = sort_tuples(keys, vals, key_bits=22)
        else:
            from repro.kernels import jit

            if not jit.jit_available():
                pytest.skip("no JIT engine on this machine")
            segments = np.array([0, len(keys)], dtype=np.int64)
            sk, sv, _ = sort_tuples(
                keys.copy(), vals.copy(), key_bits=22, segments=segments
            )
        np.testing.assert_array_equal(sk, keys[ref_o])
        # Bit-identical, not approximately equal: both sorts must
        # produce the one stable permutation.
        assert np.array_equal(sv, vals[ref_o])

    def test_duplicate_heavy_keys_stable(self, rng):
        keys = rng.integers(0, 7, size=800, dtype=np.uint32)
        payload = np.arange(800, dtype=np.int64)
        _, sp, _ = radix_sort_pairs(keys, payload, key_bits=3)
        ref = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(sp, ref)

    def test_input_arrays_not_mutated(self, rng):
        keys = rng.integers(0, 1 << 22, size=300, dtype=np.uint32)
        vals = rng.normal(size=300)
        keys_copy, vals_copy = keys.copy(), vals.copy()
        radix_sort_pairs(keys, vals, key_bits=22)
        np.testing.assert_array_equal(keys, keys_copy)
        np.testing.assert_array_equal(vals, vals_copy)

    def test_normalizes_once_no_upcast(self, rng):
        # 22-bit keys handed over as int64 come back uint32: one cast up
        # front, no per-pass casting churn and no signed upcasts.
        keys = rng.integers(0, 1 << 22, size=100, dtype=np.int64)
        sk, _, _ = radix_sort_pairs(keys, np.ones(100), key_bits=22)
        assert sk.dtype == np.uint32
        sk16, _, _ = radix_sort_pairs(
            rng.integers(0, 1 << 9, size=50, dtype=np.int32), np.ones(50), key_bits=9
        )
        assert sk16.dtype == np.uint16

    def test_digit_bits_8(self, rng):
        keys = rng.integers(0, 1 << 22, size=500, dtype=np.uint32)
        vals = rng.normal(size=500)
        sk, sv, _ = radix_sort_pairs(keys, vals, key_bits=22, digit_bits=8)
        order = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(sk, keys[order])
        assert np.array_equal(sv, vals[order])

    def test_rejects_bad_digit_bits(self):
        with pytest.raises(ValueError):
            radix_sort_pairs(
                np.array([1], dtype=np.uint32), np.array([1.0]), digit_bits=12
            )

    def test_arena_matches_chunk_concat(self, small_pair):
        a, b = small_pair
        rows, cols, vals = expand_arena(a, b, chunk_flops=500)
        full = expand_outer(a, b)
        np.testing.assert_array_equal(rows, full[0])
        np.testing.assert_array_equal(cols, full[1])
        assert np.array_equal(vals, full[2])  # bit-identical, same chunks

    def test_arena_empty_operands(self):
        rows, cols, vals = expand_arena(CSCMatrix.empty((5, 4)), CSRMatrix.empty((4, 6)))
        assert len(rows) == len(cols) == len(vals) == 0


class TestCompress:
    def test_merges_runs(self):
        keys = np.array([1, 1, 2, 5, 5, 5], dtype=np.uint32)
        vals = np.array([1.0, 2.0, 3.0, 1.0, 1.0, 1.0])
        ck, cv = compress_keyed(keys, vals)
        assert ck.tolist() == [1, 2, 5]
        np.testing.assert_allclose(cv, [3.0, 3.0, 3.0])

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            compress_keyed(np.array([2, 1], dtype=np.uint32), np.array([1.0, 1.0]))

    def test_empty(self):
        ck, cv = compress_keyed(np.array([], dtype=np.uint32), np.array([]))
        assert len(ck) == 0 and len(cv) == 0

    def test_no_duplicates_identity(self, rng):
        keys = np.sort(rng.choice(1000, size=50, replace=False)).astype(np.uint32)
        vals = rng.normal(size=50)
        ck, cv = compress_keyed(keys, vals)
        np.testing.assert_array_equal(ck, keys)
        np.testing.assert_allclose(cv, vals)

    def test_matches_dict_accumulation(self, rng):
        keys = np.sort(rng.integers(0, 30, size=200)).astype(np.uint64)
        vals = rng.normal(size=200)
        ck, cv = compress_keyed(keys, vals)
        expected = {}
        for k, v in zip(keys.tolist(), vals.tolist()):
            expected[k] = expected.get(k, 0.0) + v
        assert ck.tolist() == sorted(expected)
        np.testing.assert_allclose(cv, [expected[k] for k in sorted(expected)])

    def test_min_plus_semiring(self):
        keys = np.array([1, 1, 2], dtype=np.uint32)
        vals = np.array([5.0, 3.0, 9.0])
        _, cv = compress_keyed(keys, vals, semiring="min_plus")
        np.testing.assert_allclose(cv, [3.0, 9.0])

    def test_compress_sorted_rowcol(self, rng):
        rows = np.array([0, 0, 0, 1, 1])
        cols = np.array([1, 1, 2, 0, 0])
        vals = np.array([1.0, 1.0, 5.0, 2.0, 3.0])
        cr, cc, cv = compress_sorted(rows, cols, vals)
        assert cr.tolist() == [0, 0, 1]
        assert cc.tolist() == [1, 2, 0]
        np.testing.assert_allclose(cv, [2.0, 5.0, 5.0])

    def test_compress_sorted_rejects_unsorted(self):
        with pytest.raises(ValueError):
            compress_sorted(
                np.array([1, 0]), np.array([0, 0]), np.array([1.0, 1.0])
            )

    def test_compress_sorted_length_mismatch(self):
        with pytest.raises(ValueError):
            compress_sorted(np.array([0]), np.array([0, 1]), np.array([1.0]))
