"""Tests for variable-range (flop-balanced) binning — paper Sec. V-C."""

import numpy as np
import pytest

from repro.core import PBConfig, pb_spgemm, pb_spgemm_detailed
from repro.core.binning import VariableBinLayout, balanced_bin_edges
from repro.errors import ConfigError
from repro.generators import erdos_renyi, rmat
from repro.kernels import scipy_spgemm_oracle
from repro.matrix.ops import allclose


class TestBalancedEdges:
    def test_uniform_work_gives_equal_ranges(self):
        edges = balanced_bin_edges(np.ones(100), 4)
        assert edges.tolist() == [0, 25, 50, 75, 100]

    def test_skewed_work_narrows_hot_bins(self):
        work = np.ones(100)
        work[:10] = 100.0
        edges = balanced_bin_edges(work, 4)
        widths = np.diff(edges)
        # Early (hot) bins cover fewer rows than late (cold) ones.
        assert widths[0] < widths[-1]

    def test_covers_all_rows(self):
        rng = np.random.default_rng(0)
        work = rng.pareto(1.2, size=257)
        edges = balanced_bin_edges(work, 16)
        assert edges[0] == 0 and edges[-1] == 257
        assert np.all(np.diff(edges) >= 0)

    def test_zero_work(self):
        edges = balanced_bin_edges(np.zeros(10), 2)
        assert edges[0] == 0 and edges[-1] == 10

    def test_more_bins_than_rows(self):
        edges = balanced_bin_edges(np.ones(3), 10)
        assert edges[-1] == 3

    def test_invalid_bins(self):
        with pytest.raises(ConfigError):
            balanced_bin_edges(np.ones(5), 0)

    def test_balance_improves_on_fixed_ranges(self):
        rng = np.random.default_rng(1)
        work = rng.pareto(1.0, size=1024) + 0.01
        nb = 16
        fixed_loads = np.add.reduceat(work, np.arange(0, 1024, 1024 // nb))
        edges = balanced_bin_edges(work, nb)
        var_loads = np.add.reduceat(work, edges[:-1])
        assert var_loads.max() <= fixed_loads.max()


class TestVariableLayout:
    def test_bin_of_rows(self):
        layout = VariableBinLayout(10, 8, np.array([0, 3, 7, 10]))
        rows = np.array([0, 2, 3, 6, 7, 9])
        assert layout.bin_of_rows(rows).tolist() == [0, 0, 1, 1, 2, 2]

    def test_row_range(self):
        layout = VariableBinLayout(10, 8, np.array([0, 3, 10]))
        assert layout.row_range(0) == (0, 3)
        assert layout.row_range(1) == (3, 10)

    def test_invalid_edges(self):
        with pytest.raises(ConfigError):
            VariableBinLayout(10, 8, np.array([1, 10]))
        with pytest.raises(ConfigError):
            VariableBinLayout(10, 8, np.array([0, 7, 5, 10]))

    def test_key_bits_from_widest_bin(self):
        layout = VariableBinLayout(1000, 100, np.array([0, 10, 1000]))
        assert layout.rows_per_bin == 990
        assert layout.key_bits == layout.row_bits + layout.col_bits


class TestBalancedPB:
    def test_matches_oracle_er(self):
        a = erdos_renyi(400, 6, seed=2)
        cfg = PBConfig(bin_mapping="balanced", nbins=16)
        c = pb_spgemm(a.to_csc(), a.to_csr(), config=cfg)
        assert allclose(c, scipy_spgemm_oracle(a.to_csc(), a.to_csr()))

    def test_matches_oracle_rmat(self):
        a = rmat(9, 8, seed=4)
        cfg = PBConfig(bin_mapping="balanced", nbins=32)
        c = pb_spgemm(a.to_csc(), a.to_csr(), config=cfg)
        assert allclose(c, scipy_spgemm_oracle(a.to_csc(), a.to_csr()))

    def test_bins_more_even_on_skewed_input(self):
        a = rmat(10, 8, seed=4, shuffle=False)  # hubs at low ids: worst case
        fixed = pb_spgemm_detailed(
            a.to_csc(), a.to_csr(), config=PBConfig(nbins=16)
        )
        balanced = pb_spgemm_detailed(
            a.to_csc(), a.to_csr(), config=PBConfig(bin_mapping="balanced", nbins=16)
        )
        assert balanced.tuples_per_bin.max() <= fixed.tuples_per_bin.max()
        assert balanced.tuples_per_bin.sum() == fixed.tuples_per_bin.sum()

    def test_detailed_reports_variable_layout(self):
        a = erdos_renyi(200, 4, seed=1)
        res = pb_spgemm_detailed(
            a.to_csc(), a.to_csr(), config=PBConfig(bin_mapping="balanced", nbins=8)
        )
        assert res.layout.mapping == "variable"


@pytest.mark.parametrize("mapping", ["range", "balanced"])
def test_pack_keys_picks_the_key_width_on_every_mapping(mapping):
    """One key-width rule: ``pack_keys=False`` forces 64-bit keys under
    variable row ranges exactly as under fixed ones."""
    a = erdos_renyi(1 << 10, 8, seed=1)
    a_csc, b = a.to_csc(), a.to_csr()
    packed = pb_spgemm_detailed(a_csc, b, config=PBConfig(bin_mapping=mapping))
    wide = pb_spgemm_detailed(
        a_csc, b, config=PBConfig(bin_mapping=mapping, pack_keys=False)
    )
    assert packed.layout.key_dtype == np.uint32
    assert wide.layout.key_dtype == np.uint64
    assert wide.c.data.tobytes() == packed.c.data.tobytes()
