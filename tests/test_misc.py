"""Edge-case tests: utilities, error hierarchy, engine NUMA options,
variable layout integration, rendering edge cases."""

import numpy as np
import pytest

from repro._util import (
    balanced_edges,
    balanced_ranges,
    distinct_count,
    sorted_unique,
)
from repro.errors import (
    ConfigError,
    FormatError,
    MachineError,
    ReproError,
    ShapeError,
    SimulationError,
)


class TestUtil:
    def test_sorted_unique_basic(self):
        out = sorted_unique(np.array([3, 1, 3, 2, 1]))
        assert out.tolist() == [1, 2, 3]

    def test_sorted_unique_matches_numpy(self, rng):
        x = rng.integers(0, 50, size=500)
        np.testing.assert_array_equal(sorted_unique(x), np.unique(x))

    def test_sorted_unique_empty_and_single(self):
        assert sorted_unique(np.array([], dtype=int)).tolist() == []
        assert sorted_unique(np.array([7])).tolist() == [7]

    def test_distinct_count(self, rng):
        x = rng.integers(0, 30, size=200)
        assert distinct_count(x) == len(np.unique(x))
        assert distinct_count(np.array([])) == 0

    def test_sorted_unique_all_duplicates(self):
        assert sorted_unique(np.full(10, 4)).tolist() == [4]


    @pytest.mark.parametrize(
        "weights, parts",
        [
            ([5, 1, 1, 1, 8, 1, 1], 3),
            ([0, 0, 9, 0, 0], 4),  # one item heavier than every share
            ([1] * 10, 4),
            ([0] * 6, 3),  # no weight: cut by count
            ([2, 3], 5),  # more parts than items
            ([], 3),
        ],
    )
    def test_balanced_edges_matches_bruteforce(self, weights, parts):
        edges = balanced_edges(np.asarray(weights, dtype=float), parts)
        n = len(weights)
        p = max(1, min(parts, max(n, 1)))
        prefix = [sum(weights[:i]) for i in range(n + 1)]
        total = prefix[-1]
        if total == 0:
            expected = [j * n // p for j in range(p + 1)]
        else:
            expected = [0]
            for j in range(1, p):
                first = next(i for i in range(n + 1) if prefix[i] >= total * j / p)
                expected.append(max(expected[-1], first))
            expected.append(n)
        assert edges.tolist() == expected
        ranges = balanced_ranges(np.asarray(weights, dtype=float), parts)
        assert ranges == [(lo, hi) for lo, hi in zip(expected, expected[1:]) if hi > lo]


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [ShapeError, FormatError, ConfigError, MachineError, SimulationError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_error_compat(self):
        # Shape/format/config errors double as ValueErrors for callers
        # using generic except clauses.
        for exc in (ShapeError, FormatError, ConfigError, MachineError):
            assert issubclass(exc, ValueError)

    def test_simulation_error_is_runtime(self):
        assert issubclass(SimulationError, RuntimeError)

    def test_catchable_as_repro_error(self):
        from repro.matrix import CSRMatrix

        with pytest.raises(ReproError):
            CSRMatrix((2, 2), [0, 1], [0], [1.0])


class TestEngineOptions:
    def test_explicit_remote_fraction(self):
        import repro
        from repro.costmodel import workload_stats
        from repro.machine import skylake_sp
        from repro.simulate import simulate_spgemm

        a = repro.erdos_renyi(512, 8, seed=1)
        st = workload_stats(a.to_csc(), a)
        m = skylake_sp()
        local = simulate_spgemm(
            stats=st, algorithm="pb", machine=m, nthreads=48, sockets=2,
            remote_fraction=0.0,
        )
        remote = simulate_spgemm(
            stats=st, algorithm="pb", machine=m, nthreads=48, sockets=2,
            remote_fraction=1.0,
        )
        assert remote.total_seconds > local.total_seconds

    def test_single_socket_ignores_remote(self):
        import repro
        from repro.costmodel import workload_stats
        from repro.machine import laptop_generic
        from repro.simulate import simulate_spgemm

        a = repro.erdos_renyi(256, 4, seed=1)
        st = workload_stats(a.to_csc(), a)
        m = laptop_generic()
        r0 = simulate_spgemm(stats=st, algorithm="pb", machine=m, remote_fraction=0.0)
        r1 = simulate_spgemm(stats=st, algorithm="pb", machine=m, remote_fraction=0.9)
        assert r0.total_seconds == pytest.approx(r1.total_seconds)

    def test_bidirectional_numa_mix(self):
        from repro.machine import skylake_sp
        from repro.machine.numa import numa_mix_bandwidth

        m = skylake_sp()
        one_way = numa_mix_bandwidth(m, 0.5)
        both_ways = numa_mix_bandwidth(m, 0.5, bidirectional=True)
        assert both_ways < one_way


class TestVariableLayoutIntegration:
    def test_distribute_with_variable_layout(self, rng):
        from repro.core.binning import VariableBinLayout, distribute_to_bins

        layout = VariableBinLayout(100, 80, np.array([0, 10, 50, 100]))
        rows = rng.integers(0, 100, size=300)
        cols = rng.integers(0, 80, size=300)
        vals = rng.normal(size=300)
        br, bc, bv, starts = distribute_to_bins(layout, rows, cols, vals)
        assert starts[-1] == 300
        for b in range(3):
            lo, hi = layout.row_range(b)
            seg = br[starts[b] : starts[b + 1]]
            assert np.all((seg >= lo) & (seg < hi))

    def test_pack_unpack_variable(self, rng):
        from repro.core.binning import VariableBinLayout, pack_keys, unpack_keys

        layout = VariableBinLayout(64, 32, np.array([0, 5, 40, 64]))
        rows = rng.integers(0, 64, size=120)
        cols = rng.integers(0, 32, size=120)
        keys = pack_keys(layout, rows, cols)
        binid = layout.bin_of_rows(rows)
        for b in range(3):
            mask = binid == b
            r2, c2 = unpack_keys(layout, keys[mask], b)
            np.testing.assert_array_equal(r2, rows[mask])
            np.testing.assert_array_equal(c2, cols[mask])


class TestRenderingEdgeCases:
    def test_render_table_empty(self):
        from repro.analysis import ResultTable, render_table

        t = ResultTable("empty", ["a", "b"])
        out = render_table(t)
        assert "empty" in out and "a" in out

    def test_render_none_values(self):
        from repro.analysis import ResultTable, render_table

        t = ResultTable("t", ["a"])
        t.add(a=None)
        assert "-" in render_table(t)

    def test_float_formats(self):
        from repro.analysis.tables import _fmt

        assert _fmt(0.0) == "0"
        assert _fmt(1234.5) == "1,234" or _fmt(1234.5) == "1,235"
        assert _fmt(12.34) == "12.3"
        assert _fmt(0.1234) == "0.123"
        assert _fmt("x") == "x"

    def test_series_scaling(self):
        from repro.analysis import ResultTable, render_series

        t = ResultTable("s", ["x", "y", "g"])
        t.add(x=1, y=100.0, g="a")
        t.add(x=2, y=1.0, g="a")
        out = render_series(t, "x", "y", "g", width=10)
        lines = [l for l in out.splitlines() if "#" in l]
        assert len(lines[0].split("|")[1]) > len(lines[1].split("|")[1])


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports(self):
        import repro.apps
        import repro.kernels
        import repro.machine
        import repro.matrix

        for mod in (repro.apps, repro.kernels, repro.machine, repro.matrix):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"
