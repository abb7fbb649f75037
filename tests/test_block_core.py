"""Differential harness for the block-decomposition core (``repro.core.blocks``).

Tiled, partitioned, sharded and fused SpGEMM are four drivers over one core:
a :class:`~repro.core.blocks.BlockGrid`, one tile loop, one B
column-panel split and one preallocated-CSR assembler.  Whatever the
runner, grid or shape, the product must be bit-identical to monolithic
``pb_spgemm`` on all five semirings — including k >> n, n >> k and
extents of 0 and 1 — with no shard recovered and the sharded fallback
taken only for its documented reasons.  Example counts stay small
(sharded examples fork real workers) so the harness fits tier-1.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import PBConfig
from repro.core import partitioned_pb_spgemm, pb_spgemm, pb_spgemm_detailed
from repro.core.blocks import (
    BlockGrid,
    assemble_rows,
    fused_multiply_detailed,
    uniform_edges,
)
from repro.core.sharded import plan_shards, sharded_spgemm_detailed
from repro.core.tiled import tiled_spgemm_detailed
from repro.kernels import jit as jit_tier
from repro.matrix import CSRMatrix
from repro.matrix.stats import flops_per_row
from repro.parallel import process_backend_available
from repro.semiring import available_semirings

from tests.util import random_coo

SEMIRINGS = sorted(available_semirings())

#: (m, k, n): arbitrary small extents (hypothesis favors the 0 and 1
#: boundaries of the range), k >> n, and n >> k.
shapes = st.one_of(
    st.tuples(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48)),
    st.tuples(st.integers(2, 40), st.integers(80, 160), st.integers(1, 6)),
    st.tuples(st.integers(2, 40), st.integers(1, 6), st.integers(80, 160)),
)


@st.composite
def problems(draw):
    m, k, n = draw(shapes)
    density = draw(st.floats(0.02, 0.3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    a = random_coo(rng, m, k, int(round(density * m * k)), duplicates=True)
    b = random_coo(rng, k, n, int(round(density * k * n)), duplicates=True)
    return a.to_csc(), b.to_csr(), draw(st.sampled_from(SEMIRINGS))


def _bit_equal(c, ref):
    assert c.shape == ref.shape
    assert np.array_equal(c.indptr, ref.indptr)
    assert np.array_equal(c.indices, ref.indices)
    assert c.data.tobytes() == ref.data.tobytes()


BUDGETS = st.sampled_from([1, 512, 4096, 1 << 16])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.integers(1, 50), st.integers(1, 50), BUDGETS)
def test_tiled_matches_monolithic(problem, tile_rows, tile_cols, budget):
    a, b, sr = problem
    ref = pb_spgemm(a, b, sr)
    pinned = tiled_spgemm_detailed(
        a, b, sr, PBConfig(tile_rows=tile_rows, tile_cols=tile_cols)
    )
    _bit_equal(pinned.c, ref)
    assert pinned.tiles_computed + pinned.tiles_empty == pinned.grid.ntiles
    budgeted = tiled_spgemm_detailed(a, b, sr, PBConfig(memory_budget=budget))
    _bit_equal(budgeted.c, ref)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from([1, 2, 3]))
def test_partitioned_matches_monolithic(problem, parts):
    a, b, sr = problem
    _bit_equal(partitioned_pb_spgemm(a, b, parts, sr), pb_spgemm(a, b, sr))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(problems(), min_size=2, max_size=3), st.sampled_from(SEMIRINGS))
def test_fused_matches_monolithic(batch, sr):
    """A serial fused wave: each block of the diagonal product equals
    its standalone multiply, whatever the blocks' shapes."""
    pairs = [(a, b) for a, b, _ in batch]
    products, detail = fused_multiply_detailed(pairs, sr)
    assert detail.executor_used == "serial"
    for (a, b), c in zip(pairs, products):
        _bit_equal(c, pb_spgemm(a, b, sr))


@pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from([2, 3]), st.sampled_from([None, 4096]))
def test_sharded_matches_monolithic(problem, shards, budget):
    a, b, sr = problem
    cfg = PBConfig(shards=shards, memory_budget=budget)
    res = sharded_spgemm_detailed(a, b, sr, cfg)
    event(f"fallback: {res.fallback}")
    _bit_equal(res.c, pb_spgemm(a, b, sr))
    assert res.recovered_shards == 0
    m = a.shape[0]
    flop = int(a.col_nnz() @ b.row_nnz())
    if m <= 1:
        assert res.fallback == "shards resolve to 1"
    elif flop == 0:
        assert res.fallback == "empty product"
    elif res.fallback is not None:
        # a flop-balanced split can put every flop in one range
        assert res.fallback == "row split degenerates to one shard"
        row_flops = flops_per_row(a, b)
        assert plan_shards(b.shape[1], row_flops, shards, cfg).grid_rows == 1


@pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from(["auto", "barrier"]))
def test_standalone_process_pb_matches_serial(problem, pipeline):
    """``executor="process"`` without a session: one private engine per
    call, on rectangular and 0/1 extents alike.  The engine serves only
    the numpy pipeline, so the compiled tier is off for the call."""
    a, b, sr = problem
    cfg = PBConfig(executor="process", nthreads=2, pipeline=pipeline)
    with jit_tier.disabled():
        res = pb_spgemm_detailed(a, b, sr, cfg)
    _bit_equal(res.c, pb_spgemm(a, b, sr))
    flop = int(a.col_nnz() @ b.row_nnz())
    assert res.executor_used == ("process" if flop else "serial")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    problems(),
    st.booleans(),
    st.sampled_from(["range", "balanced"]),
    st.sampled_from([None, 1, 3]),
    st.booleans(),
    st.sampled_from([16, 48, 512]),
)
def test_compiled_pipeline_matches_numpy(
    problem, pack, mapping, nbins, local_bins, local_bytes
):
    """Default serial PB runs the compiled pipeline (expand into local
    bins, per-bin sort, compress into CSR) and equals the numpy pipeline
    bit for bit — 32- and 64-bit keys, fixed and flop-balanced bins,
    local bins that flush every 1, 3 or 32 tuples, and direct scatter."""
    if not jit_tier.jit_available():
        pytest.skip("no JIT engine on this machine")
    a, b, sr = problem
    cfg = PBConfig(
        pack_keys=pack,
        bin_mapping=mapping,
        nbins=nbins,
        use_local_bins=local_bins,
        local_bin_bytes=local_bytes,
    )
    res = pb_spgemm_detailed(a, b, sr, cfg)
    assert res.pipeline == "compiled"
    with jit_tier.disabled():
        ref = pb_spgemm_detailed(a, b, sr, cfg)
    assert ref.pipeline == "numpy:no_engine"
    _bit_equal(res.c, ref.c)
    assert np.array_equal(res.tuples_per_bin, ref.tuples_per_bin)
    assert res.radix_passes == ref.radix_passes
    assert res.layout.key_dtype == ref.layout.key_dtype


def test_uniform_edges():
    assert uniform_edges(0, 5) == (0, 0)
    assert uniform_edges(7, 3) == (0, 3, 6, 7)
    assert uniform_edges(4, 100) == (0, 4)


def test_assemble_rows_with_empty_panels():
    grid = BlockGrid((0, 0, 2, 2, 3), (0, 4))
    top = CSRMatrix.identity(2)
    panels = [
        CSRMatrix.empty((0, 4)),
        CSRMatrix((2, 4), top.indptr, top.indices, top.data),
        CSRMatrix.empty((0, 4)),
        CSRMatrix.empty((1, 4)),
    ]
    c = assemble_rows((3, 4), grid.row_edges, [p.nnz for p in panels], panels.__getitem__)
    assert c.shape == (3, 4)
    assert c.indptr.tolist() == [0, 1, 2, 2]
    assert c.indices.tolist() == [0, 1]
