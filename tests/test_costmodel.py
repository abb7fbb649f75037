"""Tests for the roofline model and the per-algorithm byte accounting."""

import numpy as np
import pytest

from repro.core.config import PBConfig, TUPLE_BYTES
from repro.costmodel import (
    ai_column_lower_bound,
    ai_esc_lower_bound,
    ai_upper_bound,
    algorithm_phase_costs,
    attainable_mflops,
    column_phase_costs,
    pb_phase_costs,
    roofline_curve,
    roofline_mflops,
    spgemm_arithmetic_intensity,
    workload_stats,
)
from repro.generators import erdos_renyi, rmat
from repro.machine import skylake_sp

from tests.util import random_coo


class TestRoofline:
    def test_paper_numbers_er(self):
        # Paper Sec. II-C: cf=1, b=16 -> AI upper 1/16; Eq. 4 -> 1/80.
        assert ai_upper_bound(1.0) == pytest.approx(1 / 16)
        assert ai_esc_lower_bound(1.0) == pytest.approx(1 / 80)
        assert ai_column_lower_bound(1.0) == pytest.approx(1 / 48)

    def test_peak_at_50gbs(self):
        # Paper: 50 GB/s * 1/16 = 3.13 GFLOPS.
        assert attainable_mflops(ai_upper_bound(1.0), 50.0) == pytest.approx(3125.0)
        # and 50 * 1/80 = 625 MFLOPS for the ESC bound.
        assert attainable_mflops(ai_esc_lower_bound(1.0), 50.0) == pytest.approx(625.0)

    def test_bounds_ordering(self):
        for cf in (1.0, 1.5, 2.0, 4.0, 8.0, 16.0):
            up = ai_upper_bound(cf)
            col = ai_column_lower_bound(cf)
            esc = ai_esc_lower_bound(cf)
            assert esc < col < up

    def test_monotone_in_cf(self):
        cfs = [1.0, 2.0, 4.0, 8.0]
        for f in (ai_upper_bound, ai_column_lower_bound, ai_esc_lower_bound):
            vals = [f(c) for c in cfs]
            assert vals == sorted(vals)

    def test_invalid_cf(self):
        with pytest.raises(ValueError):
            ai_upper_bound(0.5)
        with pytest.raises(ValueError):
            ai_esc_lower_bound(1.0, bytes_per_nnz=0)

    def test_roofline_mflops_bounds(self):
        assert roofline_mflops(1.0, 50.0, "upper") > roofline_mflops(1.0, 50.0, "esc")
        with pytest.raises(ValueError):
            roofline_mflops(1.0, 50.0, "sideways")

    def test_compute_ceiling(self):
        assert attainable_mflops(10.0, 100.0, peak_compute_mflops=500.0) == 500.0

    def test_measured_ai(self):
        ai = spgemm_arithmetic_intensity(100, 10, 10, 10, chat_accesses=2)
        assert ai == pytest.approx(100 / ((30 + 200) * 16))
        assert spgemm_arithmetic_intensity(0, 0, 0, 0) == 0.0

    def test_curve(self):
        pts = roofline_curve(50.0, 3000.0, points=16)
        assert len(pts) == 16
        regimes = [p.regime for p in pts]
        assert "memory" in regimes and "compute" in regimes
        flops = [p.mflops for p in pts]
        assert flops == sorted(flops)
        with pytest.raises(ValueError):
            roofline_curve(0, 10)
        with pytest.raises(ValueError):
            roofline_curve(10, 10, ai_range=(1, 1))


@pytest.fixture(scope="module")
def er_stats():
    a = erdos_renyi(1 << 11, 8, seed=4)
    return workload_stats(a.to_csc(), a)


class TestWorkloadStats:
    def test_flop_consistency(self, er_stats):
        assert er_stats.flop == er_stats.flops_per_k.sum()
        assert er_stats.flop == er_stats.flops_per_row.sum()
        assert er_stats.flop == er_stats.flops_per_col.sum()

    def test_cf_at_least_one(self, er_stats):
        assert er_stats.cf >= 1.0

    def test_bin_loads_partition_flop(self, er_stats):
        loads = er_stats.bin_loads(16)
        assert loads.sum() == er_stats.flop
        assert len(loads) == 16

    def test_bin_loads_single_bin(self, er_stats):
        loads = er_stats.bin_loads(1)
        assert loads.tolist() == [er_stats.flop]

    def test_bin_loads_invalid(self, er_stats):
        with pytest.raises(ValueError):
            er_stats.bin_loads(0)

    def test_known_nnz_c_passthrough(self):
        a = erdos_renyi(256, 4, seed=1)
        st = workload_stats(a.to_csc(), a, nnz_c=1234)
        assert st.nnz_c == 1234

    def test_rows_vs_cols_flops_match_expand(self, rng):
        from repro.kernels import expand_outer

        a = random_coo(rng, 30, 25, 80).to_csc()
        b = random_coo(rng, 25, 35, 80).to_csr()
        st = workload_stats(a, b)
        rows, cols, _ = expand_outer(a, b)
        np.testing.assert_array_equal(
            st.flops_per_row, np.bincount(rows, minlength=30)
        )
        np.testing.assert_array_equal(
            st.flops_per_col, np.bincount(cols, minlength=35)
        )


class TestPBPhaseCosts:
    def test_table3_byte_formulas(self, er_stats):
        m = skylake_sp()
        phases = {p.name: p for p in pb_phase_costs(er_stats, m)}
        b = TUPLE_BYTES
        # Expand: reads both inputs once, writes flop tuples (plus the
        # modelled flush overhead, bounded by ~15%).
        exp = phases["expand"]
        assert exp.dram_read_bytes == 12 * (er_stats.nnz_a + er_stats.nnz_b)
        assert b * er_stats.flop <= exp.dram_write_bytes <= 1.3 * b * er_stats.flop
        # Sort: reads flop tuples (no spill at this size).
        assert phases["sort"].dram_read_bytes == b * er_stats.flop
        # Compress: writes nnz(C) tuples.
        assert phases["compress"].dram_write_bytes == b * er_stats.nnz_c

    def test_no_local_bins_wastes_lines(self, er_stats):
        m = skylake_sp()
        with_bins = pb_phase_costs(er_stats, m, PBConfig(use_local_bins=True))
        without = pb_phase_costs(er_stats, m, PBConfig(use_local_bins=False))
        w1 = next(p for p in with_bins if p.name == "expand").dram_write_bytes
        w2 = next(p for p in without if p.name == "expand").dram_write_bytes
        assert w2 > 2 * w1  # 16-byte tuples on 64-byte lines -> 4x waste

    def test_wider_local_bins_more_efficient(self, er_stats):
        m = skylake_sp()
        def write_bytes(w):
            cfg = PBConfig(local_bin_bytes=w, use_local_bins=True)
            return next(
                p for p in pb_phase_costs(er_stats, m, cfg) if p.name == "expand"
            ).dram_write_bytes
        assert write_bytes(64) > write_bytes(512) > write_bytes(1024)

    def test_key_packing_halves_sort_cycles(self, er_stats):
        m = skylake_sp()
        packed = next(
            p for p in pb_phase_costs(er_stats, m, PBConfig(pack_keys=True))
            if p.name == "sort"
        )
        unpacked = next(
            p for p in pb_phase_costs(er_stats, m, PBConfig(pack_keys=False))
            if p.name == "sort"
        )
        assert unpacked.compute_cycles == pytest.approx(2 * packed.compute_cycles)

    def test_oversized_bins_spill_to_dram(self):
        # Huge flop with few bins -> DRAM-resident bins -> extra streamed passes.
        a = rmat(13, 16, seed=2)
        st = workload_stats(a.to_csc(), a)
        m = skylake_sp()
        few = next(
            p for p in pb_phase_costs(st, m, PBConfig(nbins=2), nbins=2) if p.name == "sort"
        )
        many = next(
            p for p in pb_phase_costs(st, m, PBConfig(nbins=2048), nbins=2048)
            if p.name == "sort"
        )
        assert few.dram_read_bytes > many.dram_read_bytes


class TestColumnPhaseCosts:
    def test_streams_b_and_c_only(self, er_stats):
        m = skylake_sp()
        (merge,) = column_phase_costs("hash", er_stats, m)
        assert merge.dram_read_bytes == 12 * er_stats.nnz_b
        assert merge.dram_write_bytes == 12 * er_stats.nnz_c
        assert merge.random_line_touches > 0
        assert merge.overlap == "add"

    def test_random_useful_bytes_le_lines(self, er_stats):
        m = skylake_sp()
        (merge,) = column_phase_costs("heap", er_stats, m)
        assert merge.random_useful_bytes <= merge.random_line_touches * m.line_bytes

    def test_heap_costs_more_than_hash_per_flop(self, er_stats):
        m = skylake_sp()
        heap = column_phase_costs("heap", er_stats, m)[0]
        hash_ = column_phase_costs("hash", er_stats, m)[0]
        assert heap.compute_cycles > hash_.compute_cycles

    def test_skew_spills_accumulators(self):
        from repro.costmodel.bytes_model import _accumulator_spill_cycles

        m = skylake_sp()
        r = rmat(15, 16, seed=1)
        st_skew = workload_stats(r.to_csc(), r)
        e = erdos_renyi(1 << 15, 16, seed=1)
        st_er = workload_stats(e.to_csc(), e)
        skew = _accumulator_spill_cycles("hash", st_skew, m) / st_skew.flop
        er = _accumulator_spill_cycles("hash", st_er, m) / st_er.flop
        # R-MAT hub columns overflow L2 accumulators; ER columns never do.
        assert er == 0.0
        assert skew > 0.0

    def test_unknown_algorithm(self, er_stats):
        with pytest.raises(ValueError):
            column_phase_costs("pb", er_stats, skylake_sp())

    def test_dispatch(self, er_stats):
        m = skylake_sp()
        assert len(algorithm_phase_costs("pb", er_stats, m)) == 4
        assert len(algorithm_phase_costs("hash", er_stats, m)) == 1
        assert len(algorithm_phase_costs("esc_column", er_stats, m)) == 2

    def test_esc_column_chat_roundtrip(self, er_stats):
        m = skylake_sp()
        expand, sortc = algorithm_phase_costs("esc_column", er_stats, m)
        b = TUPLE_BYTES
        assert expand.dram_write_bytes == b * er_stats.flop
        assert sortc.dram_read_bytes == b * er_stats.flop
