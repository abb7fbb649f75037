"""Tests for the tiled out-of-core engine (``repro.core.tiled``).

The load-bearing contract is the ISSUE 9 ablation: the tiled path must
be **bit-identical** to the monolithic ``pb_spgemm`` for every built-in
semiring on every grid — 1x1, ragged, budget-derived, degenerate — because
the grid is strictly 2D (the k dimension is never split, so every
output position folds the exact same value sequence in the same
order).  Around that: the spill store's .npz round trip, session/engine
reuse, planner budget gating, and the tile-merge kernels.
"""

import os

import numpy as np
import pytest

import repro
from repro import PBConfig
from repro.core import partitioned_pb_spgemm, pb_spgemm
from repro.core.tiled import (
    MAX_GRID_DIM,
    SpillStore,
    grid_for_budget,
    monolithic_peak_bytes,
    plan_tile_grid,
    tiled_peak_bytes,
    tiled_spgemm,
    tiled_spgemm_detailed,
)
from repro.errors import ShapeError
from repro.generators import erdos_renyi
from repro.kernels import available_algorithms, spgemm
from repro.kernels.tile_merge import accumulate_partials, hstack_tiles
from repro.matrix import CSCMatrix, CSRMatrix
from repro.matrix.ops import allclose, col_slice, row_slice
from repro.parallel import process_backend_available
from repro.semiring import Semiring, available_semirings, get_semiring

from tests.util import random_coo

pytestmark = pytest.mark.tiled

needs_pool = pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)

SEMIRINGS = sorted(available_semirings())

#: Grid configurations the identity ablation sweeps: monolithic
#: degenerate, ragged odd sizes, row-only and column-only splits, tiles
#: larger than the matrix, and a budget-derived grid with spilling.
GRID_CONFIGS = (
    PBConfig(),
    PBConfig(tile_rows=17, tile_cols=23),
    PBConfig(tile_rows=40),
    PBConfig(tile_cols=16),
    PBConfig(tile_rows=10_000, tile_cols=10_000),
    PBConfig(memory_budget=8192),
)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(7)
    a = random_coo(rng, 110, 80, 850, duplicates=True).to_csc()
    b = random_coo(rng, 80, 130, 850, duplicates=True).to_csr()
    return a, b


def _identical(x, y) -> bool:
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and x.data.tobytes() == y.data.tobytes()
    )


class TestGridPlanning:
    def test_pinned_tiles(self):
        g = plan_tile_grid(100, 60, 1000, PBConfig(tile_rows=30, tile_cols=25))
        assert g.row_edges == (0, 30, 60, 90, 100)
        assert g.col_edges == (0, 25, 50, 60)
        assert (g.grid_rows, g.grid_cols, g.ntiles) == (4, 3, 12)

    def test_default_is_monolithic(self):
        g = plan_tile_grid(100, 60, 1000, PBConfig())
        assert (g.grid_rows, g.grid_cols) == (1, 1)

    def test_tile_larger_than_matrix_degrades_to_one_panel(self):
        g = plan_tile_grid(10, 8, 100, PBConfig(tile_rows=500, tile_cols=900))
        assert (g.grid_rows, g.grid_cols) == (1, 1)

    def test_budget_drives_unpinned_dimensions(self):
        cfg = PBConfig(memory_budget=1 << 16)
        g = plan_tile_grid(1 << 10, 1 << 10, 1 << 20, cfg)
        assert g.ntiles > 1
        pinned = PBConfig(memory_budget=1 << 16, tile_rows=1 << 10)
        g2 = plan_tile_grid(1 << 10, 1 << 10, 1 << 20, pinned)
        assert g2.grid_rows == 1  # the pin wins over the budget
        assert g2.grid_cols > 1

    def test_pathological_budget_clamped(self):
        gr, gc = grid_for_budget(1 << 20, 1 << 20, 1 << 30, 1)
        assert gr <= MAX_GRID_DIM and gc <= MAX_GRID_DIM

    def test_budget_never_exceeds_extents(self):
        gr, gc = grid_for_budget(3, 2, 1 << 30, 1)
        assert gr <= 3 and gc <= 2

    def test_peak_models_ordering(self):
        # More tiles -> strictly smaller modeled working set.
        mono = monolithic_peak_bytes(1 << 20, 1000, 1000, 5000)
        tiled = tiled_peak_bytes(1 << 20, 1000, 1000, 5000, 4, 4)
        assert tiled < mono


class TestSpillStore:
    def _block(self, rng, nnz=40):
        return random_coo(rng, 20, 20, nnz).to_csr()

    def test_in_memory_round_trip(self, rng):
        m = self._block(rng)
        with SpillStore() as store:
            store.put("x", m)
            assert store.staged_bytes > 0
            assert store.staging_dir is None  # nothing spilled
            got = store.pop("x")
            assert _identical(m, got)
            assert store.pop("x") is None

    def test_eviction_to_disk_and_restore(self, rng, tmp_path):
        blocks = {f"k{i}": self._block(rng) for i in range(6)}
        one = SpillStore._size(next(iter(blocks.values())))
        with SpillStore(str(tmp_path), mem_budget=2 * one) as store:
            for key, m in blocks.items():
                store.put(key, m)
            assert store.spilled_entries >= 4
            assert store.staged_bytes <= 2 * one
            on_disk = list(tmp_path.glob("*.npz"))
            assert len(on_disk) == store.spilled_entries
            for key, m in blocks.items():
                assert _identical(m, store.pop(key))
        # popped spill files are unlinked; requested dir is kept
        assert not list(tmp_path.glob("*.npz"))
        assert tmp_path.exists()

    def test_replace_semantics(self, rng):
        with SpillStore() as store:
            store.put("k", self._block(rng, nnz=10))
            newer = self._block(rng, nnz=30)
            store.put("k", newer)
            assert _identical(newer, store.pop("k"))
            assert store.pop("k") is None

    def test_close_removes_own_tempdir(self, rng):
        store = SpillStore(mem_budget=0)
        store.put("k", self._block(rng))
        staged = store.staging_dir
        assert staged is not None and os.path.isdir(staged)
        store.close()
        assert not os.path.exists(staged)


class TestBitIdentity:
    """The mandatory ablation: tiled == monolithic, bit for bit."""

    @pytest.mark.parametrize("semiring", SEMIRINGS)
    def test_all_grids_all_semirings(self, semiring, pair):
        a, b = pair
        ref = pb_spgemm(a, b, semiring)
        for cfg in GRID_CONFIGS:
            got = tiled_spgemm(a, b, semiring, cfg)
            assert _identical(ref, got), (semiring, cfg.tile_rows, cfg.tile_cols)

    def test_matches_scipy_oracle(self, pair):
        from repro.kernels import scipy_spgemm_oracle

        a, b = pair
        c = tiled_spgemm(a, b, config=PBConfig(tile_rows=32, tile_cols=32))
        assert allclose(c, scipy_spgemm_oracle(a, b))

    def test_dispatch_algorithm(self, pair):
        a, b = pair
        assert "tiled" in available_algorithms()
        c = spgemm(a, b, algorithm="tiled")
        assert allclose(c, pb_spgemm(a, b))

    def test_multiply_front_door(self, pair):
        a, b = pair
        cfg = PBConfig(tile_rows=50, tile_cols=50)
        c = repro.multiply(a, b, algorithm="tiled", config=cfg)
        assert _identical(c, pb_spgemm(a, b))


class TestDegenerate:
    @pytest.mark.parametrize("shape", [(0, 5, 4), (5, 0, 4), (5, 4, 0)])
    def test_empty_extents(self, shape):
        m, k, n = shape
        cfg = PBConfig(tile_rows=2, tile_cols=2)
        c = tiled_spgemm(CSCMatrix.empty((m, k)), CSRMatrix.empty((k, n)), config=cfg)
        assert c.shape == (m, n) and c.nnz == 0

    def test_empty_tiles_skipped(self):
        # Block-diagonal A x B: off-diagonal tiles generate zero flop
        # and must be skipped, not multiplied.
        eye = CSCMatrix.identity(8)
        b = CSRMatrix.identity(8)
        cfg = PBConfig(tile_rows=4, tile_cols=4)
        res = tiled_spgemm_detailed(eye, b, config=cfg)
        assert res.tiles_empty > 0
        assert res.tiles_computed < res.grid.ntiles
        assert _identical(res.c, CSRMatrix.identity(8))

    def test_1xn_and_nx1_grids(self, pair):
        a, b = pair
        ref = pb_spgemm(a, b)
        rows_only = tiled_spgemm_detailed(a, b, config=PBConfig(tile_rows=13))
        assert rows_only.grid.grid_cols == 1 and rows_only.grid.grid_rows > 1
        assert _identical(ref, rows_only.c)
        cols_only = tiled_spgemm_detailed(a, b, config=PBConfig(tile_cols=13))
        assert cols_only.grid.grid_rows == 1 and cols_only.grid.grid_cols > 1
        assert _identical(ref, cols_only.c)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tiled_spgemm(CSCMatrix.empty((3, 4)), CSRMatrix.empty((5, 3)))

    def test_tile_stats_cover_grid(self, pair):
        a, b = pair
        res = tiled_spgemm_detailed(
            a, b, config=PBConfig(tile_rows=30, tile_cols=40)
        )
        assert res.tiles_computed + res.tiles_empty == res.grid.ntiles
        assert 0 < res.peak_tile_flop <= res.total_flop
        assert res.total_flop == int(a.col_nnz() @ b.row_nnz())


class TestSpillRoundTrip:
    def test_tiny_budget_spills_and_stays_identical(self, pair, tmp_path):
        a, b = pair
        cfg = PBConfig(memory_budget=2048, spill_dir=str(tmp_path))
        res = tiled_spgemm_detailed(a, b, config=cfg)
        assert res.spilled_tiles > 0
        assert res.spilled_bytes > 0
        assert res.peak_staged_bytes <= max(2048 // 8, 1)
        assert _identical(res.c, pb_spgemm(a, b))
        # staging files are consumed by the merge; the caller's dir stays
        assert not list(tmp_path.glob("*.npz"))
        assert tmp_path.exists()

    def test_no_budget_never_spills(self, pair):
        a, b = pair
        res = tiled_spgemm_detailed(a, b, config=PBConfig(tile_rows=20))
        assert res.spilled_tiles == 0 and res.spilled_bytes == 0


@needs_pool
@pytest.mark.usefixtures("numpy_pipeline")
class TestEngineReuse:
    """Tiles on a process engine: it serves only the numpy pipeline."""

    def test_session_engine_shared_across_tiles(self, pair):
        a, b = pair
        cfg = PBConfig(
            executor="process", nthreads=2, tile_rows=40, tile_cols=50
        )
        with repro.Session(cfg, warm=True) as s:
            r1 = tiled_spgemm_detailed(a, b, config=cfg, session=s)
            r2 = tiled_spgemm_detailed(a, b, config=cfg, session=s)
            assert r1.executor_used == "process"
            assert s._engine.spawn_count == 1  # one pool for both grids
        assert _identical(r1.c, r2.c)
        assert _identical(r1.c, pb_spgemm(a, b))

    def test_partitioned_reuses_session_engine(self, pair):
        a, b = pair
        a_csr = a.to_csr()
        cfg = PBConfig(executor="process", nthreads=2)
        with repro.Session(cfg, warm=True) as s:
            c = partitioned_pb_spgemm(a_csr, b, config=cfg, session=s)
            assert s._engine.spawn_count == 1
        assert _identical(c, pb_spgemm(a, b))

    def test_private_engine_closed(self, pair):
        a, b = pair
        cfg = PBConfig(
            executor="process", nthreads=2, tile_rows=40, tile_cols=50
        )
        res = tiled_spgemm_detailed(a, b, config=cfg)
        assert res.executor_used == "process"
        assert _identical(res.c, pb_spgemm(a, b))

    def test_unpicklable_semiring_reports_serial(self, pair):
        """Tiles over a semiring that cannot travel to workers run
        serially, and the result says so."""
        a, b = pair
        sr = Semiring("custom_lambda", np.add, lambda x, y: x * y, 0.0)
        cfg = PBConfig(executor="process", nthreads=2, tile_rows=64)
        res = tiled_spgemm_detailed(a, b, sr, cfg)
        assert res.executor_used == "serial"
        assert _identical(res.c, pb_spgemm(a, b, sr))


class TestPlannerBudgetGate:
    @pytest.fixture(scope="class")
    def planner_pair(self):
        b = erdos_renyi(1 << 12, 16, seed=3, fmt="csr")
        return b.to_csc(), b

    def test_budget_flips_winner_to_tiled(self, planner_pair):
        from repro.planner import PlanCache, plan

        a, b = planner_pair
        p0 = plan(a, b, cache=PlanCache())
        pb_cand = next(c for c in p0.candidates if c.algorithm == "pb")
        assert pb_cand.predicted_peak_bytes > 0
        budget = int(pb_cand.predicted_peak_bytes * 0.3)

        p1 = plan(a, b, config=PBConfig(memory_budget=budget), cache=PlanCache())
        assert p1.algorithm == "tiled"
        winner = p1.candidates[0]
        assert winner.predicted_peak_bytes <= budget
        assert p1.overrides.get("tile_rows") is not None
        assert p1.overrides.get("tile_cols") is not None
        # the overrides resolve into the executable config
        assert p1.config is not None and p1.config.tile_rows is not None
        # monolithic pb was rejected for the budget, and says so
        pb_loser = next(c for c in p1.candidates if c.algorithm == "pb")
        assert pb_loser.reason and "budget" in pb_loser.reason

    def test_unbudgeted_tiled_collapses_to_overhead_loser(self, planner_pair):
        from repro.planner import PlanCache, plan

        a, b = planner_pair
        p = plan(a, b, cache=PlanCache())
        assert p.algorithm != "tiled"  # pure cost without memory pressure
        assert any(c.algorithm == "tiled" for c in p.candidates)

    def test_budget_keys_cache_separately(self, planner_pair):
        from repro.planner import PlanCache, plan

        a, b = planner_pair
        cache = PlanCache()
        p0 = plan(a, b, cache=cache)
        p1 = plan(a, b, config=PBConfig(memory_budget=1 << 22), cache=cache)
        assert p0.cache_key != p1.cache_key
        # replanning unbudgeted must hit the unbudgeted entry
        again = plan(a, b, cache=cache)
        assert again.source in ("cache", "feedback")
        assert again.algorithm == p0.algorithm

    def test_auto_multiply_with_budget_runs(self, planner_pair):
        a, b = planner_pair
        cfg = PBConfig(memory_budget=1 << 23)
        c = repro.multiply(a, b, algorithm="auto", config=cfg)
        assert allclose(c, pb_spgemm(a, b))


class TestMergeKernels:
    def test_hstack_matches_column_slices(self, rng):
        m = random_coo(rng, 30, 50, 400, duplicates=True).to_csr()
        csc = m.to_csc()
        starts = [0, 17, 30]
        tiles = [
            col_slice(csc, 0, 17).to_csr(),
            col_slice(csc, 17, 30).to_csr(),
            col_slice(csc, 30, 50).to_csr(),
        ]
        out = hstack_tiles(tiles, starts, 30, 50)
        assert _identical(m, out)

    def test_hstack_none_tiles_are_empty(self, rng):
        m = random_coo(rng, 10, 8, 40).to_csr()
        out = hstack_tiles([None, m], [0, 5], 10, 13)
        np.testing.assert_allclose(out.to_dense()[:, 5:], m.to_dense())
        assert out.to_dense()[:, :5].sum() == 0.0

    def test_hstack_height_mismatch_raises(self, rng):
        m = random_coo(rng, 10, 8, 40).to_csr()
        with pytest.raises(ShapeError):
            hstack_tiles([m], [0], 12, 8)

    @pytest.mark.parametrize("semiring", ["min_plus", "max_times", "or_and"])
    def test_accumulate_k_split_exact(self, semiring, rng):
        # A k-split is the one decomposition the 2D driver never makes;
        # accumulate_partials must still fold it exactly for semirings
        # whose ⊕ is order-insensitive.
        a = random_coo(rng, 25, 40, 300, duplicates=True).to_csc()
        b = random_coo(rng, 40, 30, 300, duplicates=True).to_csr()
        sr = get_semiring(semiring)
        ref = pb_spgemm(a, b, sr)
        a_csr = a.to_csr()
        b_csc = b.to_csc()
        parts = [
            pb_spgemm(_kslice_a(a_csr, 0, 18), _kslice_b(b_csc, 0, 18), sr),
            pb_spgemm(_kslice_a(a_csr, 18, 40), _kslice_b(b_csc, 18, 40), sr),
        ]
        got = accumulate_partials(parts, sr)
        assert _identical(ref, got)

    def test_accumulate_plus_times_close(self, rng):
        a = random_coo(rng, 25, 40, 300, duplicates=True).to_csc()
        b = random_coo(rng, 40, 30, 300, duplicates=True).to_csr()
        ref = pb_spgemm(a, b)
        a_csr = a.to_csr()
        b_csc = b.to_csc()
        parts = [
            pb_spgemm(_kslice_a(a_csr, 0, 21), _kslice_b(b_csc, 0, 21)),
            pb_spgemm(_kslice_a(a_csr, 21, 40), _kslice_b(b_csc, 21, 40)),
        ]
        got = accumulate_partials(parts, shape=(25, 30))
        assert allclose(ref, got)

    def test_accumulate_single_and_none(self, rng):
        m = random_coo(rng, 10, 8, 40).to_csr()
        assert accumulate_partials([None, m, None]) is m
        empty = accumulate_partials([None, None], shape=(10, 8))
        assert empty.shape == (10, 8) and empty.nnz == 0


def _kslice_a(a_csr: CSRMatrix, k0: int, k1: int) -> CSCMatrix:
    """A[:, k0:k1] as CSC, zero-padded back to full k extent."""
    csc = a_csr.to_csc()
    sl = col_slice(csc, k0, k1)
    k = csc.shape[1]
    indptr = np.concatenate(
        [np.zeros(k0 + 1, dtype=sl.indptr.dtype), sl.indptr[1:],
         np.full(k - k1, sl.indptr[-1], dtype=sl.indptr.dtype)]
    )
    return CSCMatrix((csc.shape[0], k), indptr, sl.indices, sl.data, validate=False)


def _kslice_b(b_csc: CSCMatrix, k0: int, k1: int) -> CSRMatrix:
    """B[k0:k1, :] as CSR, zero-padded back to full k extent."""
    csr = b_csc.to_csr()
    sl = row_slice(csr, k0, k1)
    k = csr.shape[0]
    indptr = np.concatenate(
        [np.zeros(k0 + 1, dtype=sl.indptr.dtype), sl.indptr[1:],
         np.full(k - k1, sl.indptr[-1], dtype=sl.indptr.dtype)]
    )
    return CSRMatrix((k, csr.shape[1]), indptr, sl.indices, sl.data, validate=False)


class TestCLI:
    @pytest.fixture
    def er_mtx(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "a.mtx"
        assert main(
            ["matrix", "generate", "er", str(path), "--scale", "7",
             "--edge-factor", "4", "--seed", "1"]
        ) == 0
        return path

    def test_tiled_flag(self, er_mtx, capsys):
        from repro.cli import main

        rc = main(
            ["matrix", "multiply", str(er_mtx), "--algorithm", "tiled",
             "--memory-budget", "1000000"]
        )
        assert rc == 0
        assert "algorithm=tiled" in capsys.readouterr().out

    def test_pinned_tiles_flags(self, er_mtx, capsys):
        from repro.cli import main

        rc = main(
            ["matrix", "multiply", str(er_mtx), "--algorithm", "tiled",
             "--tile-rows", "64", "--tile-cols", "32"]
        )
        assert rc == 0
        assert "algorithm=tiled" in capsys.readouterr().out

    def test_tiled_flags_need_tiled_or_auto(self, er_mtx, capsys):
        from repro.cli import main

        rc = main(
            ["matrix", "multiply", str(er_mtx), "--tile-rows", "8",
             "--algorithm", "hash"]
        )
        assert rc == 2
        assert "tiled" in capsys.readouterr().err

    def test_budget_with_auto_allowed(self, er_mtx, capsys):
        from repro.cli import main

        rc = main(
            ["matrix", "multiply", str(er_mtx), "--algorithm", "auto",
             "--memory-budget", "100000000"]
        )
        assert rc == 0
        assert "C = A*B" in capsys.readouterr().out
