"""Block-diagonal batch fusion (:func:`repro.core.blocks.fused_multiply_detailed`).

The serve scheduler's throughput mechanism: diag(A_1..A_p) ·
diag(B_1..B_p) = diag(A_1 B_1 .. A_p B_p), executed as ONE PB multiply.
The contract under test is *bit*-identity: every split-out product must
equal its standalone ``repro.multiply`` exactly — indptr, indices, and
value bytes — for every registered semiring, because stacked expansion
visits block columns in the same order a standalone run would and every
downstream phase (stable distribute, stable LSD sort, left-to-right
compress fold) preserves that order.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro

pytestmark = pytest.mark.parallel
from repro import PBConfig
from repro.core.blocks import fused_multiply_detailed
from repro.matrix import CSRMatrix
from repro.semiring import available_semirings


def _csr_from_dense(dense) -> CSRMatrix:
    dense = np.asarray(dense, dtype=np.float64)
    indptr = [0]
    indices = []
    data = []
    for row in dense:
        (nz,) = np.nonzero(row)
        indices.extend(nz.tolist())
        data.extend(row[nz].tolist())
        indptr.append(len(indices))
    return CSRMatrix(
        dense.shape,
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(data, dtype=np.float64),
    )


def _pairs(mixed_shapes: bool = True):
    """Coerced (A_csc, B_csr) pairs: mixed sizes, a rectangular block,
    and an all-zero block."""
    rng = np.random.default_rng(42)
    out = []
    for n in (8, 13) if mixed_shapes else (8, 8):
        b = repro.erdos_renyi(n, 3, seed=n, fmt="csr")
        out.append((b.to_csc(), b))
    if mixed_shapes:
        a = _csr_from_dense(rng.integers(0, 3, size=(5, 9)).astype(float))
        b = _csr_from_dense(rng.integers(0, 3, size=(9, 4)).astype(float))
        out.append((a.to_csc(), b))
        zero = _csr_from_dense(np.zeros((6, 6)))
        out.append((zero.to_csc(), zero))
    return out


def _assert_identical(ref, got):
    assert np.array_equal(ref.indptr, got.indptr)
    assert np.array_equal(ref.indices, got.indices)
    assert ref.data.tobytes() == got.data.tobytes()


class TestStackSplit:
    def test_block_shapes(self):
        # Blocks with 0 rows, 0 inner extent and 0 columns sit between
        # ordinary ones; each product keeps its own (m_i, n_i) shape.
        empty = [
            (CSRMatrix.empty((0, 4)), CSRMatrix.empty((4, 3))),
            (CSRMatrix.empty((3, 0)), CSRMatrix.empty((0, 5))),
            (CSRMatrix.empty((2, 6)), CSRMatrix.empty((6, 0))),
        ]
        pairs = _pairs()
        pairs = pairs[:2] + [(a.to_csc(), b) for a, b in empty] + pairs[2:]
        cfg = PBConfig()
        products, detail = fused_multiply_detailed(pairs, config=cfg)
        assert [c.shape for c in products] == [(a.shape[0], b.shape[1]) for a, b in pairs]
        assert detail.c.shape == (
            sum(a.shape[0] for a, _ in pairs),
            sum(b.shape[1] for _, b in pairs),
        )
        for (a, b), got in zip(pairs, products):
            _assert_identical(repro.multiply(a, b, config=cfg), got)
        with pytest.raises(ValueError):
            fused_multiply_detailed([], config=cfg)

    def test_split_roundtrip(self):
        pairs = _pairs()
        cfg = PBConfig()
        refs = [repro.multiply(a, b, config=cfg) for a, b in pairs]
        products, detail = fused_multiply_detailed(pairs, config=cfg)
        assert len(products) == len(pairs)
        for ref, got in zip(refs, products):
            _assert_identical(ref, got)
        assert detail.c.shape[0] == sum(a.shape[0] for a, _ in pairs)
        assert "expand" in detail.phase_seconds

    def test_single_pair(self):
        pairs = _pairs()[:1]
        (product,), _ = fused_multiply_detailed(pairs, config=PBConfig())
        _assert_identical(repro.multiply(*pairs[0], config=PBConfig()), product)

    @pytest.mark.parametrize("name", sorted(available_semirings()))
    def test_bit_identity_per_semiring(self, name):
        pairs = _pairs()
        cfg = PBConfig()
        refs = [repro.multiply(a, b, semiring=name, config=cfg) for a, b in pairs]
        products, _ = fused_multiply_detailed(pairs, semiring=name, config=cfg)
        for ref, got in zip(refs, products):
            _assert_identical(ref, got)

    def test_products_own_their_arrays(self):
        # Mutating one product must not alias another product or the
        # stacked product.
        pairs = _pairs(mixed_shapes=False)
        products, detail = fused_multiply_detailed(pairs, config=PBConfig())
        stacked = [detail.c.indptr.tobytes(), detail.c.indices.tobytes(),
                   detail.c.data.tobytes()]
        others = [(c.indptr.tobytes(), c.indices.tobytes(), c.data.tobytes())
                  for c in products[1:]]
        first = products[0]
        assert first.nnz
        first.indptr[:] = 0
        first.indices[:] = -1
        first.data[:] = -1.0
        assert [detail.c.indptr.tobytes(), detail.c.indices.tobytes(),
                detail.c.data.tobytes()] == stacked
        assert others == [(c.indptr.tobytes(), c.indices.tobytes(),
                           c.data.tobytes()) for c in products[1:]]


class TestSessionFusedPath:
    def test_multiply_many_fused_matches_loop(self):
        b = repro.erdos_renyi(32, 3, seed=9, fmt="csr")
        pairs = [(b, b)] * 3
        with repro.Session(PBConfig(executor="process", nthreads=2)) as s:
            looped = [s.multiply(a, b) for a, b in pairs]
            fused = s.multiply_many(pairs)
            assert s.stats.fused_waves == 1
            assert s.stats.fused_requests == 3
        for ref, got in zip(looped, fused):
            _assert_identical(ref, got)

    def test_fused_requires_compatible_kwargs(self):
        b = repro.erdos_renyi(16, 2, seed=1, fmt="csr")
        with repro.Session(PBConfig(executor="process", nthreads=2)) as s:
            # Any kwarg beyond semiring=/config= runs the per-pair loop,
            # and so does a batch of one.
            out = s.multiply_many([(b, b), (b, b)], algorithm="hash")
            assert len(out) == 2 and s.stats.fused_waves == 0
            assert len(s.multiply_many([(b, b)])) == 1
            assert s.stats.fused_waves == 0
