"""Tests for the PB-SpGEMM core: config, symbolic, binning, pipeline."""

import importlib
import warnings

import numpy as np
import pytest

from repro.core import (
    BinLayout,
    PBConfig,
    pack_keys,
    partitioned_pb_spgemm,
    pb_spgemm,
    pb_spgemm_detailed,
    plan_bins,
    symbolic_phase,
    unpack_keys,
)
from repro.core.binning import distribute_packed
from repro.errors import ConfigError, ShapeError
from repro.generators import erdos_renyi, rmat
from repro.kernels import scipy_spgemm_oracle
from repro.matrix import CSCMatrix, CSRMatrix
from repro.matrix.ops import allclose

from tests.util import random_coo

# The module, not the function ``repro.core`` re-exports under its name.
PB_MODULE = importlib.import_module("repro.core.pb_spgemm")


class TestPBConfig:
    def test_defaults(self):
        cfg = PBConfig()
        assert cfg.local_bin_bytes == 512
        assert cfg.bin_mapping == "range"
        assert cfg.use_local_bins is False  # direct scatter (DESIGN §6)

    def test_with_(self):
        cfg = PBConfig().with_(nbins=64)
        assert cfg.nbins == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nbins=0),
            dict(local_bin_bytes=8),
            dict(pipeline="pipelined"),
            dict(bin_mapping="hash"),
            dict(column_backend="jit_panel"),
            dict(executor="threads"),
            dict(shards=0),
            dict(tile_rows=0),
            dict(nthreads=0),
            dict(bin_mapping="modulo", pack_keys=True),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            PBConfig(**kwargs)

    def test_hot_path_defaults(self):
        # The defaults never keep serial PB off the compiled pipeline.
        assert PB_MODULE.config_blocker(PBConfig()) is None
        assert PB_MODULE.config_blocker(PBConfig(bin_mapping="balanced")) is None
        assert (
            PB_MODULE.config_blocker(PBConfig(bin_mapping="modulo", pack_keys=False))
            == "mapping"
        )


class TestSymbolic:
    def test_flop_exact(self, small_pair):
        from repro.matrix.stats import total_flops

        a, b = small_pair
        sym = symbolic_phase(a, b)
        assert sym.flop == total_flops(a, b)

    def test_bins_cover_rows(self, small_pair):
        a, b = small_pair
        sym = symbolic_phase(a, b)
        assert sym.nbins * sym.rows_per_bin >= a.shape[0]
        assert sym.gbin_bytes == sym.flop * 16

    def test_nbins_clamped_to_paper_band(self):
        a = erdos_renyi(1 << 12, 4, seed=0)
        sym = symbolic_phase(a.to_csc(), a)
        assert 1 <= sym.nbins <= 2048

    def test_nbins_override(self, small_pair):
        a, b = small_pair
        sym = symbolic_phase(a, b, PBConfig(nbins=8))
        assert sym.nbins == 8

    def test_nbins_never_exceeds_rows(self, small_pair):
        a, b = small_pair
        sym = symbolic_phase(a, b, PBConfig(nbins=10_000))
        assert sym.nbins <= a.shape[0]

    def test_empty(self):
        sym = symbolic_phase(CSCMatrix.empty((6, 4)), CSRMatrix.empty((4, 5)))
        assert sym.flop == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            symbolic_phase(CSCMatrix.empty((6, 4)), CSRMatrix.empty((5, 5)))


class TestKeyPacking:
    def _layout(self, nrows, ncols, nbins, cfg=None):
        rows_per_bin = max(1, -(-nrows // nbins))
        return plan_bins(nrows, ncols, nbins, rows_per_bin, cfg)

    def test_packs_into_32_bits_when_possible(self):
        # Paper's example: 1M rows/cols, 1K bins -> 10 + 20 bits.
        layout = self._layout(1 << 20, 1 << 20, 1024)
        assert layout.key_dtype == np.uint32
        assert layout.key_bits == 30

    def test_wide_matrix_needs_64(self):
        layout = self._layout(1 << 24, 1 << 24, 16)
        assert layout.key_dtype == np.uint64

    def test_pack_unpack_roundtrip(self, rng):
        layout = self._layout(1000, 800, 16)
        rows = rng.integers(0, 1000, size=300)
        cols = rng.integers(0, 800, size=300)
        keys = pack_keys(layout, rows, cols)
        binid = layout.bin_of_rows(rows)
        for b in np.unique(binid):
            mask = binid == b
            r2, c2 = unpack_keys(layout, keys[mask], int(b))
            np.testing.assert_array_equal(r2, rows[mask])
            np.testing.assert_array_equal(c2, cols[mask])

    def test_key_order_is_rowcol_order_within_bin(self, rng):
        layout = self._layout(100, 90, 4)
        rows = rng.integers(0, 100, size=500)
        cols = rng.integers(0, 90, size=500)
        binid = layout.bin_of_rows(rows)
        keys = pack_keys(layout, rows, cols)
        for b in np.unique(binid):
            mask = binid == b
            order = np.argsort(keys[mask], kind="stable")
            rr, cc = rows[mask][order], cols[mask][order]
            lex = np.lexsort((cols[mask], rows[mask]))
            np.testing.assert_array_equal(rr, rows[mask][lex])
            np.testing.assert_array_equal(cc, cols[mask][lex])

    def test_modulo_mapping(self, rng):
        cfg = PBConfig(bin_mapping="modulo", pack_keys=False)
        layout = self._layout(64, 64, 8, cfg)
        rows = rng.integers(0, 64, size=100)
        assert np.all(layout.bin_of_rows(rows) == rows % 8)

    def test_row_range(self):
        layout = self._layout(100, 50, 8)
        lo, hi = layout.row_range(7)
        assert lo == 7 * layout.rows_per_bin
        assert hi == 100


def _distribute(layout, rows, cols, vals):
    """Binned (rows, cols, vals, starts): distribute_packed + unpack_keys."""
    keys, bvals, starts = distribute_packed(layout, rows, cols, vals)
    br, bc = [], []
    for b in range(layout.nbins):
        r, c = unpack_keys(layout, keys[starts[b] : starts[b + 1]], b)
        br.append(r)
        bc.append(c)
    return np.concatenate(br), np.concatenate(bc), bvals, starts


class TestBinning:
    def test_distribute_partitions_all(self, rng):
        layout = plan_bins(60, 40, 6, 10)
        rows = rng.integers(0, 60, size=400)
        cols = rng.integers(0, 40, size=400)
        vals = rng.normal(size=400)
        br, bc, bv, starts = _distribute(layout, rows, cols, vals)
        assert starts[-1] == 400
        for b in range(6):
            seg = br[starts[b] : starts[b + 1]]
            assert np.all(seg // 10 == b)

    def test_distribute_stable_within_bin(self):
        layout = plan_bins(4, 4, 2, 2)
        rows = np.array([0, 2, 0, 2, 1])
        cols = np.array([0, 1, 2, 3, 0])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        br, bc, bv, starts = _distribute(layout, rows, cols, vals)
        # bin 0 keeps arrival order of rows 0,0,1
        np.testing.assert_array_equal(bc[: starts[1]], [0, 2, 0])
        np.testing.assert_array_equal(bv[: starts[1]], [1.0, 3.0, 5.0])

    def test_counting_matches_argsort_placement(self, rng):
        # The uint8, uint16 and radix bin-id paths against a stable argsort.
        for nbins in (6, 300, 70000):
            layout = plan_bins(nbins * 2, 40, nbins, 2)
            rows = rng.integers(0, nbins * 2, size=400)
            cols = rng.integers(0, 40, size=400)
            vals = rng.normal(size=400)
            ref = np.argsort(rows // 2, kind="stable")
            keys, bvals, starts = distribute_packed(layout, rows, cols, vals)
            assert np.array_equal(keys, pack_keys(layout, rows[ref], cols[ref]))
            assert np.array_equal(bvals, vals[ref])  # bit-exact stable placement
            counts = np.bincount(rows // 2, minlength=nbins)
            assert np.array_equal(starts[1:], np.cumsum(counts))

    def test_distribute_packed_fuses_pack(self, rng):
        layout = plan_bins(60, 40, 6, 10)
        rows = rng.integers(0, 60, size=400)
        cols = rng.integers(0, 40, size=400)
        vals = rng.normal(size=400)
        keys, bvals, starts = distribute_packed(layout, rows, cols, vals)
        br, bc, _, _ = _distribute(layout, rows, cols, vals)
        ref = np.argsort(rows // 10, kind="stable")
        np.testing.assert_array_equal(br, rows[ref])
        np.testing.assert_array_equal(bc, cols[ref])
        np.testing.assert_array_equal(keys, pack_keys(layout, br, bc))

    def test_distribute_packed_empty(self):
        layout = plan_bins(8, 8, 4, 2)
        keys, bvals, starts = distribute_packed(
            layout,
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([]),
        )
        assert len(keys) == len(bvals) == 0
        assert starts.tolist() == [0] * (layout.nbins + 1)


class TestPBSpGEMM:
    def test_matches_oracle(self, small_pair):
        a, b = small_pair
        assert allclose(pb_spgemm(a, b), scipy_spgemm_oracle(a, b))

    def test_detailed_instrumentation(self, small_pair):
        a, b = small_pair
        res = pb_spgemm_detailed(a, b)
        assert res.flop == res.symbolic.flop
        assert res.nnz_c == res.c.nnz
        assert res.compression_factor == pytest.approx(res.flop / res.nnz_c)
        assert res.tuples_per_bin.sum() == res.flop
        assert res.radix_passes >= 1

    @pytest.mark.parametrize("nbins", [1, 2, 7, 64, 1000])
    def test_any_bin_count(self, small_pair, nbins):
        a, b = small_pair
        c = pb_spgemm(a, b, config=PBConfig(nbins=nbins))
        assert allclose(c, scipy_spgemm_oracle(a, b))

    def test_modulo_mapping_correct(self, small_pair):
        a, b = small_pair
        cfg = PBConfig(bin_mapping="modulo", pack_keys=False, nbins=16)
        assert allclose(pb_spgemm(a, b, config=cfg), scipy_spgemm_oracle(a, b))

    def test_unpacked_keys(self, small_pair):
        a, b = small_pair
        cfg = PBConfig(pack_keys=False)
        res = pb_spgemm_detailed(a, b, config=cfg)
        assert res.layout.key_dtype == np.uint64
        assert allclose(res.c, scipy_spgemm_oracle(a, b))

    def test_tiny_chunks(self, small_pair, monkeypatch):
        monkeypatch.setattr(PB_MODULE, "DEFAULT_CHUNK_FLOPS", 64)
        a, b = small_pair
        assert allclose(pb_spgemm(a, b), scipy_spgemm_oracle(a, b))

    def test_empty(self):
        res = pb_spgemm_detailed(CSCMatrix.empty((5, 4)), CSRMatrix.empty((4, 3)))
        assert res.c.nnz == 0
        assert res.flop == 0

    def test_skewed(self, skewed_pair):
        a, b = skewed_pair
        assert allclose(pb_spgemm(a, b), scipy_spgemm_oracle(a, b))

    def test_rectangular(self, rect_pair):
        a, b = rect_pair
        assert allclose(pb_spgemm(a, b), scipy_spgemm_oracle(a, b))

    def test_radix_pass_count_from_key_bits(self, small_pair):
        a, b = small_pair
        res = pb_spgemm_detailed(a, b)
        assert res.radix_passes == -(-res.layout.key_bits // 8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(use_local_bins=True),
            dict(pack_keys=False),
            dict(bin_mapping="balanced"),
        ],
    )
    def test_single_ablation_matches_oracle(self, small_pair, kwargs):
        a, b = small_pair
        c = pb_spgemm(a, b, config=PBConfig(**kwargs))
        assert allclose(c, scipy_spgemm_oracle(a, b))

    def test_phase_seconds_are_independent_stopwatches(self, small_pair):
        a, b = small_pair
        res = pb_spgemm_detailed(a, b)
        assert {"symbolic", "expand", "sort_compress", "convert"} <= set(
            res.phase_seconds
        )
        assert all(v >= 0.0 for v in res.phase_seconds.values())


class TestPartitioned:
    @pytest.mark.parametrize("parts", [1, 2, 3, 5])
    def test_matches_oracle(self, small_pair, parts):
        a, b = small_pair
        c = partitioned_pb_spgemm(a, b, npartitions=parts)
        assert allclose(c, scipy_spgemm_oracle(a, b))

    def test_more_partitions_than_rows(self):
        rng = np.random.default_rng(1)
        a = random_coo(rng, 3, 5, 8).to_csc()
        b = random_coo(rng, 5, 4, 8).to_csr()
        c = partitioned_pb_spgemm(a, b, npartitions=10)
        assert allclose(c, scipy_spgemm_oracle(a, b))

    def test_invalid_partitions(self, small_pair):
        a, b = small_pair
        with pytest.raises(ValueError):
            partitioned_pb_spgemm(a, b, npartitions=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            partitioned_pb_spgemm(CSCMatrix.empty((3, 3)), CSRMatrix.empty((4, 4)))


class TestPipelineChoice:
    """``PBResult.pipeline``: which kernel pipeline ran, and why not the
    compiled one."""

    def test_disabled_engine_falls_back_silently(self, small_pair, monkeypatch):
        from repro.kernels.jit import reset_jit_state

        a, b = small_pair
        monkeypatch.setenv("REPRO_JIT_DISABLE", "1")
        reset_jit_state()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = pb_spgemm_detailed(a, b)
        finally:
            monkeypatch.delenv("REPRO_JIT_DISABLE")
            reset_jit_state()
        assert res.pipeline == "numpy:no_engine"
        assert "jit_warmup_s" not in res.phase_seconds

    @pytest.mark.parametrize(
        "kwargs, reason",
        [
            (dict(bin_mapping="modulo", pack_keys=False), "mapping"),
        ],
    )
    def test_config_reasons(self, small_pair, kwargs, reason):
        a, b = small_pair
        res = pb_spgemm_detailed(a, b, config=PBConfig(**kwargs))
        assert res.pipeline == f"numpy:{reason}"

    def test_semiring_and_dtype_reasons(self, small_pair):
        from repro.semiring import PLUS_TIMES, Semiring

        a, b = small_pair
        custom = Semiring("plus_custom", np.add, lambda x, y: x * y, 0.0)
        single = Semiring(
            "plus_times32", np.add, PLUS_TIMES.multiply, 0.0, np.dtype(np.float32)
        )
        assert pb_spgemm_detailed(a, b, custom).pipeline == "numpy:semiring"
        assert pb_spgemm_detailed(a, b, single).pipeline == "numpy:dtype"

    def test_default_runs_compiled_when_engine_builds(self, small_pair):
        from repro.kernels.jit import jit_available

        a, b = small_pair
        res = pb_spgemm_detailed(a, b)
        assert res.pipeline == ("compiled" if jit_available() else "numpy:no_engine")
