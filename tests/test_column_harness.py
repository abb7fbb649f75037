"""Differential harness for the column kernels.

heap, hash, hashvec and spa each run under three strategies — the
``loop`` accumulators (ground truth), the default ``panel`` (compiled
whenever an engine exists) and ``panel`` inside ``jit.disabled()`` (the
numpy panel) — and must agree bit for bit on the block-core
``problems`` shapes (k >> n, n >> k, extents of 0 and 1) and all five
semirings.  ``esc_column`` must equal numpy PB bit for bit.

For min/max the values are drawn from ±0, NaN, ±inf and ±1: the values
whose folds depend on order.  Each example uses one NaN sign for both
inputs.  IEEE 754 does not fix which payload NaN ⊗ NaN keeps, and with
NaNs of both signs in the inputs the paths are known to disagree in the
sign bit of NaN results (an open finding in CHANGES.md), so mixed signs
are left out.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import pb_spgemm
from repro.kernels import (
    esc_column_spgemm,
    hash_spgemm,
    hashvec_spgemm,
    heap_spgemm,
    jit,
    spa_spgemm,
)

from tests.test_block_core import problems

KERNELS = {
    "heap": heap_spgemm,
    "hash": hash_spgemm,
    "hashvec": hashvec_spgemm,
    "spa": spa_spgemm,
}


def _bits(c):
    return (c.shape, c.indptr.tobytes(), c.indices.tobytes(), c.data.tobytes())


def _with_specials(mat, rng, nan):
    """``mat`` with every value drawn from ±0, ``nan``, ±inf and ±1."""
    specials = np.array([0.0, -0.0, nan, np.inf, -np.inf, 1.0, -1.0])
    data = rng.choice(specials, size=mat.nnz)
    return type(mat)(mat.shape, mat.indptr, mat.indices, data)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from([np.nan, -np.nan]), st.integers(0, 2**16))
def test_column_kernels_agree_on_every_strategy(problem, nan, seed):
    a, b, sr = problem
    if sr in ("min_plus", "max_times"):
        rng = np.random.default_rng(seed)
        a, b = _with_specials(a, rng, nan), _with_specials(b, rng, nan)
    with np.errstate(invalid="ignore"):
        for name, kernel in KERNELS.items():
            loop = _bits(kernel(a, b, semiring=sr, column_backend="loop"))
            assert _bits(kernel(a, b, semiring=sr)) == loop, name
            with jit.disabled():
                assert _bits(kernel(a, b, semiring=sr, column_backend="panel")) == loop, name
        esc = _bits(esc_column_spgemm(a, b, semiring=sr))
        with jit.disabled():
            assert esc == _bits(pb_spgemm(a, b, sr))
