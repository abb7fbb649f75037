"""Differential harness: every SpGEMM path equals numpy PB bit for bit.

heap, hash, hashvec and spa each run under three strategies — the
``loop`` accumulators, the default ``panel`` (compiled whenever an
engine exists) and ``panel`` inside ``jit.disabled()`` (the numpy
panel) — and, with ``esc_column`` and compiled PB, must equal the numpy
PB pipeline bit for bit on the block-core ``problems`` shapes (k >> n,
n >> k, extents of 0 and 1) and all five semirings.  Every path folds
duplicates with the one ⊕ fold (:meth:`repro.semiring.Semiring.fold`:
a sequential left fold from the run head, NaN stored canonically), so
nothing may differ, not even the rounding of a sum, the sign of a zero
or the sign of a NaN.

Each example draws its values from one of three pools: the problem's
standard-normal values (where a pairwise sum rounds differently from a
left fold), ±0 and ±1 (where a fold that starts from the +0.0 identity
loses the sign of a zero), and the specials ±0, NaN of both signs, ±inf
and ±1 (where min/max and NaN propagation depend on order).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import pb_spgemm
from repro.kernels import (
    esc_column_spgemm,
    hash_spgemm,
    hashvec_spgemm,
    heap_spgemm,
    jit,
    spa_spgemm,
)
from repro.semiring import available_semirings

from tests.test_block_core import problems

KERNELS = {
    "heap": heap_spgemm,
    "hash": hash_spgemm,
    "hashvec": hashvec_spgemm,
    "spa": spa_spgemm,
}

POOLS = {
    "normal": None,
    "zeros": np.array([0.0, -0.0, 1.0, -1.0, 2.0]),
    "specials": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0]),
}


def _bits(c):
    return (c.shape, c.indptr.tobytes(), c.indices.tobytes(), c.data.tobytes())


def _revalue(mat, rng, pool):
    """``mat`` with every value drawn from ``POOLS[pool]`` (kept as is
    for ``"normal"``)."""
    if POOLS[pool] is None:
        return mat
    data = rng.choice(POOLS[pool], size=mat.nnz)
    return type(mat)(mat.shape, mat.indptr, mat.indices, data)


def _assert_every_path_equals_numpy_pb(a, b, sr):
    with np.errstate(invalid="ignore"):
        with jit.disabled():
            ref = _bits(pb_spgemm(a, b, sr))
        assert _bits(pb_spgemm(a, b, sr)) == ref, "compiled pb"
        assert _bits(esc_column_spgemm(a, b, semiring=sr)) == ref, "esc_column"
        for name, kernel in KERNELS.items():
            loop = kernel(a, b, semiring=sr, column_backend="loop")
            assert _bits(loop) == ref, f"{name} loop"
            assert _bits(kernel(a, b, semiring=sr)) == ref, f"{name} panel"
            with jit.disabled():
                numpy_panel = kernel(a, b, semiring=sr, column_backend="panel")
            assert _bits(numpy_panel) == ref, f"{name} numpy panel"


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from(sorted(POOLS)), st.integers(0, 2**16))
def test_column_kernels_agree_on_every_strategy(problem, pool, seed):
    a, b, sr = problem
    rng = np.random.default_rng(seed)
    _assert_every_path_equals_numpy_pb(
        _revalue(a, rng, pool), _revalue(b, rng, pool), sr
    )


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("sr", sorted(available_semirings()))
def test_every_path_equals_numpy_pb_on_rmat(sr, pool):
    """R-MAT 7/8 squared: skewed rows give long duplicate runs, where a
    pairwise sum, a +0.0-seeded fold or an operand-ordered NaN would
    each show up in hundreds of entries."""
    a = repro.rmat(7, 8, seed=1).to_csr()
    rng = np.random.default_rng(0)
    a = type(a)(a.shape, a.indptr, a.indices, rng.standard_normal(a.nnz))
    a = _revalue(a, rng, pool)
    _assert_every_path_equals_numpy_pb(a.to_csc(), a, sr)
