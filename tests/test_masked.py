"""Tests for masked SpGEMM."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import pb_spgemm
from repro.errors import ShapeError
from repro.generators import erdos_renyi
from repro.kernels import masked_spgemm, scipy_spgemm_oracle
from repro.matrix import CSCMatrix, CSRMatrix
from repro.matrix.coo import COOMatrix
from repro.matrix.ops import tril, triu

from tests.test_block_core import problems
from tests.util import random_coo


def _restrict(full: CSRMatrix, mask: CSRMatrix, complement=False) -> np.ndarray:
    fd, md = full.to_dense(), mask.to_dense() != 0
    if complement:
        md = ~md
    return np.where(md, fd, 0.0)


class TestMaskedSpGEMM:
    def test_equals_restricted_product(self, rng):
        a = random_coo(rng, 40, 30, 150).to_csc()
        b = random_coo(rng, 30, 45, 150).to_csr()
        mask = random_coo(rng, 40, 45, 120).to_csr()
        got = masked_spgemm(a, b, mask)
        full = scipy_spgemm_oracle(a, b)
        np.testing.assert_allclose(got.to_dense(), _restrict(full, mask), atol=1e-12)

    def test_complement(self, rng):
        a = random_coo(rng, 25, 25, 100).to_csc()
        b = random_coo(rng, 25, 25, 100).to_csr()
        mask = random_coo(rng, 25, 25, 80).to_csr()
        got = masked_spgemm(a, b, mask, complement=True)
        full = scipy_spgemm_oracle(a, b)
        np.testing.assert_allclose(
            got.to_dense(), _restrict(full, mask, complement=True), atol=1e-12
        )

    def test_mask_and_complement_partition(self, rng):
        a = random_coo(rng, 20, 20, 80).to_csc()
        b = random_coo(rng, 20, 20, 80).to_csr()
        mask = random_coo(rng, 20, 20, 60).to_csr()
        on = masked_spgemm(a, b, mask)
        off = masked_spgemm(a, b, mask, complement=True)
        full = scipy_spgemm_oracle(a, b)
        np.testing.assert_allclose(
            on.to_dense() + off.to_dense(), full.to_dense(), atol=1e-12
        )

    def test_empty_mask_empty_output(self, rng):
        a = random_coo(rng, 10, 10, 40).to_csc()
        b = random_coo(rng, 10, 10, 40).to_csr()
        got = masked_spgemm(a, b, CSRMatrix.empty((10, 10)))
        assert got.nnz == 0

    def test_full_mask_is_unmasked(self, rng):
        a = random_coo(rng, 12, 12, 50).to_csc()
        b = random_coo(rng, 12, 12, 50).to_csr()
        dense_mask = CSRMatrix.from_dense(np.ones((12, 12)))
        got = masked_spgemm(a, b, dense_mask)
        from repro.matrix.ops import allclose

        assert allclose(got, scipy_spgemm_oracle(a, b))

    def test_triangle_mask_pattern(self):
        a = erdos_renyi(150, 5, seed=3)
        mask = tril(a, -1)
        got = masked_spgemm(tril(a, -1).to_csc(), triu(a, 1).to_csr(), mask, semiring="plus_pair")
        # Output support is a subset of the mask support.
        gm = got.to_dense() != 0
        mm = mask.to_dense() != 0
        assert np.all(~gm | mm)

    def test_shape_mismatch(self, rng):
        a = random_coo(rng, 5, 5, 10).to_csc()
        b = random_coo(rng, 5, 5, 10).to_csr()
        with pytest.raises(ShapeError):
            masked_spgemm(a, b, CSRMatrix.empty((4, 5)))
        with pytest.raises(ShapeError):
            masked_spgemm(a, CSRMatrix.empty((6, 5)), CSRMatrix.empty((5, 5)))

    def test_chunked(self, rng):
        a = random_coo(rng, 30, 30, 120).to_csc()
        b = random_coo(rng, 30, 30, 120).to_csr()
        mask = random_coo(rng, 30, 30, 90).to_csr()
        c1 = masked_spgemm(a, b, mask)
        c2 = masked_spgemm(a, b, mask, chunk_flops=32)
        np.testing.assert_allclose(c1.to_dense(), c2.to_dense())

    def test_semiring(self, rng):
        a = random_coo(rng, 15, 15, 60).to_csc()
        b = random_coo(rng, 15, 15, 60).to_csr()
        mask = random_coo(rng, 15, 15, 50).to_csr()
        got = masked_spgemm(a, b, mask, semiring="plus_pair")
        pa = (a.to_dense() != 0).astype(float)
        pb = (b.to_dense() != 0).astype(float)
        expected = np.where(mask.to_dense() != 0, pa @ pb, 0.0)
        np.testing.assert_allclose(got.to_dense(), expected)


def _mask(kind: str, shape, rng) -> CSRMatrix:
    """An empty, full or random structural mask of ``shape``."""
    m, n = shape
    if kind == "empty" or m * n == 0:
        return CSRMatrix.empty(shape)
    if kind == "full":
        keys = np.arange(m * n)
    else:
        keys = np.unique(rng.integers(0, m * n, size=int(rng.integers(1, m * n + 1))))
    return COOMatrix(shape, keys // n, keys % n, np.ones(len(keys))).to_csr()


def _restrict_csr(c: CSRMatrix, mask: CSRMatrix, complement: bool) -> CSRMatrix:
    """The entries of ``c`` on (or, with ``complement``, off) the
    mask's support, in ``c``'s own order."""
    n = c.shape[1]
    rows = np.repeat(np.arange(c.shape[0]), np.diff(c.indptr))
    mrows = np.repeat(np.arange(mask.shape[0]), np.diff(mask.indptr))
    keep = np.isin(rows * n + c.indices, mrows * n + mask.indices)
    if complement:
        keep = ~keep
    indptr = np.zeros(c.shape[0] + 1, dtype=c.indptr.dtype)
    np.cumsum(np.bincount(rows[keep], minlength=c.shape[0]), out=indptr[1:])
    return CSRMatrix(c.shape, indptr, c.indices[keep], c.data[keep])


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    problems(),
    st.sampled_from(["empty", "full", "random"]),
    st.booleans(),
    st.sampled_from([1, 7, 1 << 16]),
    st.integers(0, 2**16),
)
def test_masked_equals_restricted_reference_bitwise(problem, kind, complement, chunk, seed):
    """On the block-core shapes (rectangular, 0/1 extents) and all five
    semirings, the masked product is the reference PB product
    restricted to the mask (or its complement), bit for bit."""
    a, b, sr = problem
    mask = _mask(kind, (a.shape[0], b.shape[1]), np.random.default_rng(seed))
    got = masked_spgemm(a, b, mask, sr, complement=complement, chunk_flops=chunk)
    want = _restrict_csr(pb_spgemm(a, b, sr), mask, complement)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
