"""Unified benchmark subsystem: schema, suites, store, regression gate.

Replaces the four per-harness ``tests/test_*_bench.py`` files: every
suite now produces one :class:`repro.bench.BenchResult`, so one
parametrized module covers what used to be four copies of the same
shape checks — plus the parts that only exist now (the on-disk trend
store and the commit-over-commit regression gate).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    EXPERIMENT_SUITES,
    PERF_SUITES,
    AcceptanceCheck,
    BenchError,
    BenchResult,
    ResultStore,
    Suite,
    check_result,
    compare_results,
    get_suite,
    load_result,
    new_result,
    register_suite,
    run_suite,
    validate_result,
)
from repro.bench.schema import SCHEMA_VERSION
from repro.bench.suites.experiments import EXPERIMENTS, tables_from_result
from repro.cli import main

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Quick-mode suite runs, with the markers the per-suite test files
#: used to carry so ``-m column`` etc. still select this coverage.
SUITE_PARAMS = [
    pytest.param("planner", marks=pytest.mark.planner),
    pytest.param("column", marks=pytest.mark.column),
    pytest.param("session", marks=[pytest.mark.session, pytest.mark.parallel]),
    pytest.param("jit", marks=pytest.mark.jit),
    pytest.param("serve", marks=[pytest.mark.serve, pytest.mark.parallel]),
]

#: Suites whose committed artifact predates the shared schema and was
#: rewritten onto it once; newer suites committed native-v2 artifacts.
#: Artifacts still carrying the one-shot v1 rewrite; ``column`` and
#: ``planner`` were since refreshed from native full runs.
LEGACY_SUITES = ("session",)


@pytest.fixture(scope="module")
def quick_results():
    """Run each suite at most once (quick, reps=1) for the whole module."""
    cache: dict[str, BenchResult] = {}

    def get(name: str) -> BenchResult:
        if name not in cache:
            cache[name] = run_suite(name, quick=True, reps=1)
        return cache[name]

    return get


def _synthetic(
    suite="synth",
    metrics=None,
    acceptance=None,
    *,
    quick=False,
    created=None,
    machine_fp=None,
) -> BenchResult:
    r = new_result(
        suite,
        quick=quick,
        reps=1,
        workloads=["w0"],
        metrics={"speedup": 2.0} if metrics is None else metrics,
        acceptance={"invariant": True} if acceptance is None else acceptance,
    )
    if created is not None:
        r.created_unix = float(created)
    if machine_fp is not None:
        r.machine["fingerprint"] = machine_fp
    return r


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

class TestSchema:
    def test_round_trip(self, tmp_path):
        r = _synthetic(metrics={"a.b_s": 0.5, "c": 3.0})
        path = r.write(tmp_path / "r.json")
        loaded = load_result(path)
        assert loaded.suite == r.suite
        assert loaded.metrics == r.metrics
        assert loaded.acceptance == r.acceptance
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.machine["fingerprint"] == r.machine["fingerprint"]

    def test_validate_rejects_drift(self):
        good = _synthetic().to_dict()
        validate_result(good)
        for mutate in (
            lambda d: d.pop("suite"),
            lambda d: d.update(schema_version=99),
            lambda d: d.update(workloads=[]),
            lambda d: d["metrics"].update(bad=float("nan")),
            lambda d: d["metrics"].update(bad="fast"),
            lambda d: d["acceptance"].update(bad=1),
            lambda d: d.update(acceptance={}),
            lambda d: d["machine"].pop("fingerprint"),
        ):
            data = json.loads(json.dumps(good))
            mutate(data)
            with pytest.raises(BenchError):
                validate_result(data)

    def test_bench_error_is_value_error(self):
        # The legacy validate_report contract raised ValueError.
        import repro

        assert issubclass(BenchError, ValueError)
        assert repro.BenchError is BenchError
        assert repro.BenchResult is BenchResult

    def test_quick_and_ok_properties(self):
        assert _synthetic(quick=True).quick
        assert not _synthetic().quick
        assert not _synthetic(acceptance={"a": True, "b": False}).ok


# ---------------------------------------------------------------------------
# committed artifacts, including the one still rewritten from schema v1
# ---------------------------------------------------------------------------

class TestLegacyMigration:
    @pytest.mark.parametrize("name", PERF_SUITES)
    def test_artifact_loads_and_passes_declared_bars(self, name):
        suite = get_suite(name)
        r = load_result(REPO_ROOT / suite.artifact)
        assert r.suite == name
        assert not r.quick  # committed artifacts are full runs
        if name in LEGACY_SUITES:  # committed before the shared schema
            assert r.meta["migrated_from_schema_version"] == 1
        validate_result(r.to_dict())
        # The pinned full-run bars the old per-suite tests enforced are
        # now declared on the suites; the artifacts must still clear them.
        assert check_result(r) == []

    def test_pinned_full_run_bars(self):
        # Spot-check the headline numbers the retired test files pinned.
        jit = load_result(REPO_ROOT / "BENCH_jit.json")
        assert jit.metrics["pb_end_to_end_speedup"] >= 2.0
        assert jit.metrics["panel_end_to_end_speedup"] >= 1.3
        col = load_result(REPO_ROOT / "BENCH_column.json")
        assert col.metrics["hash_speedup"] >= 10.0
        assert col.metrics["spa_speedup"] >= 10.0
        pl = load_result(REPO_ROOT / "BENCH_planner.json")
        assert pl.metrics["mean_feedback_regret"] <= 1.25
        assert pl.metrics["max_overhead_fraction"] <= 0.05
        srv = load_result(REPO_ROOT / "BENCH_serve.json")
        assert srv.metrics["batched_speedup"] >= 1.3
        assert srv.metrics["mean_wave_size"] > 1.0
        ses = load_result(REPO_ROOT / "BENCH_session.json")
        assert ses.metrics["warm_speedup"] >= 1.5
        assert set(w for w in ses.workloads if w != "er_s9_ef4") == {
            "er_s16_ef16",
            "rmat_s14_ef8",
        }

    def test_migration_is_one_shot(self):
        # The v1 artifacts were rewritten on disk: the files themselves
        # are native v2, keeping their provenance and legacy fingerprints.
        for name in LEGACY_SUITES:
            data = json.loads((REPO_ROOT / get_suite(name).artifact).read_text())
            assert data["schema_version"] == SCHEMA_VERSION
            validate_result(data)
            assert data["meta"]["migrated_from_schema_version"] == 1
            assert data["machine"]["fingerprint"].startswith("legacy-")

    def test_load_rejects_schema_v1(self, tmp_path):
        data = _synthetic().to_dict()
        data["schema_version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(data))
        with pytest.raises(BenchError, match="unsupported schema_version 1"):
            load_result(path)


# ---------------------------------------------------------------------------
# quick suite runs through the registry
# ---------------------------------------------------------------------------

class TestQuickRuns:
    @pytest.mark.parametrize("name", SUITE_PARAMS)
    def test_schema_and_acceptance(self, quick_results, name):
        r = quick_results(name)
        assert r.suite == name and r.quick
        validate_result(r.to_dict())
        assert check_result(r) == []
        declared = set(get_suite(name).workloads["quick"])
        assert set(r.workloads) == declared

    @pytest.mark.parametrize("name", SUITE_PARAMS)
    def test_store_round_trip_and_gate_vs_committed(
        self, quick_results, name, tmp_path
    ):
        r = quick_results(name)
        store = ResultStore(tmp_path / "store")
        path = store.add(r, commit="deadbee")
        assert path.is_file() and store.suites() == [name]
        current = store.latest(name)
        assert current.metrics == r.metrics

        baseline = load_result(REPO_ROOT / get_suite(name).artifact)
        report = compare_results(current, baseline)
        # Mode mismatch: numerics skipped, acceptance booleans gated.
        assert report.ok
        booleans = [d for d in report.deltas if d.metric.startswith("acceptance.")]
        assert booleans and all(d.status != "regressed" for d in booleans)
        assert any("mode mismatch" in why for _, why in report.skipped)

    @pytest.mark.jit
    def test_jit_phases_from_stopwatches(self, quick_results):
        r = quick_results("jit")
        for w in r.workloads:
            assert {"symbolic", "expand", "sort_compress"} <= set(r.phases[w])


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------

class TestResultStore:
    def test_trend_history_and_prefix_lookup(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add(_synthetic(metrics={"speedup": 2.0}, created=100), commit="aaa1111")
        store.add(_synthetic(metrics={"speedup": 2.5}, created=200), commit="bbb2222")
        entries = store.entries("synth")
        assert [e.commit for e in entries] == ["aaa1111", "bbb2222"]
        assert store.latest("synth").metrics["speedup"] == 2.5
        assert (
            store.latest("synth", exclude_commit="bbb2222").metrics["speedup"] == 2.0
        )
        assert store.load("synth", "aaa").metrics["speedup"] == 2.0
        with pytest.raises(BenchError, match="no stored result"):
            store.load("synth", "ccc")

    def test_same_second_collision_keeps_both(self, tmp_path):
        store = ResultStore(tmp_path)
        p1 = store.add(_synthetic(created=100), commit="aaa1111")
        p2 = store.add(_synthetic(created=100), commit="aaa1111")
        assert p1 != p2 and len(store.entries("synth")) == 2

    def test_torn_write_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add(_synthetic(created=100), commit="aaa1111")
        (tmp_path / "synth" / "torn.json").write_text("{not json")
        assert len(store.entries("synth")) == 1

    def test_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "nothing")
        assert store.suites() == []
        assert store.latest("synth") is None


# ---------------------------------------------------------------------------
# regression gate
# ---------------------------------------------------------------------------

class TestRegressionGate:
    def test_improvement_passes(self):
        report = compare_results(
            _synthetic(metrics={"speedup": 2.4}), _synthetic(metrics={"speedup": 2.0})
        )
        assert report.ok and report.deltas[-1].status != "regressed"
        assert any(d.status == "improved" for d in report.deltas)

    def test_regression_within_tolerance_passes(self):
        # 10% worse on a higher-is-better metric, default tolerance 25%.
        report = compare_results(
            _synthetic(metrics={"speedup": 1.8}), _synthetic(metrics={"speedup": 2.0})
        )
        assert report.ok
        assert any(d.status == "within_tolerance" for d in report.deltas)

    def test_regression_beyond_tolerance_fails(self):
        report = compare_results(
            _synthetic(metrics={"speedup": 1.0}), _synthetic(metrics={"speedup": 2.0})
        )
        assert not report.ok
        assert [d.metric for d in report.regressions] == ["speedup"]
        assert "FAIL" in report.summary()

    def test_direction_inference(self):
        # regret is lower-is-better: 1.0 -> 1.2 is a 20% worsening (within
        # the 25% default), 1.0 -> 1.5 is beyond it.
        base = _synthetic(metrics={"regret": 1.0})
        assert compare_results(_synthetic(metrics={"regret": 1.2}), base).ok
        assert not compare_results(_synthetic(metrics={"regret": 1.5}), base).ok

    def test_seconds_get_wider_tolerance(self):
        # 40% slower wall clock is within the 50% seconds tolerance...
        base = _synthetic(metrics={"end_to_end.new_s": 1.0})
        assert compare_results(_synthetic(metrics={"end_to_end.new_s": 1.4}), base).ok
        # ...but 60% is not.
        assert not compare_results(
            _synthetic(metrics={"end_to_end.new_s": 1.6}), base
        ).ok

    def test_explicit_tolerances_override(self):
        base = _synthetic(metrics={"speedup": 2.0})
        cur = _synthetic(metrics={"speedup": 1.8})
        assert not compare_results(cur, base, tolerances={"speedup": 0.05}).ok
        assert not compare_results(cur, base, tolerances={"*": 0.05}).ok

    def test_no_history_skips_gracefully(self):
        report = compare_results(_synthetic(), None)
        assert report.ok and report.compared == 0 and report.skipped
        assert "SKIP" in report.summary()

    def test_acceptance_flip_fails_across_modes(self):
        # A correctness boolean that held on a full run must keep holding
        # on a smoke run — no tolerance, no mode exemption.
        base = _synthetic(acceptance={"invariant": True}, quick=False)
        cur = _synthetic(acceptance={"invariant": False}, quick=True)
        report = compare_results(cur, base)
        assert not report.ok
        assert report.regressions[0].metric == "acceptance.invariant"

    def test_machine_mismatch_skips_absolute_times_only(self):
        base = _synthetic(metrics={"warm_s": 1.0, "speedup": 2.0}, machine_fp="m1")
        cur = _synthetic(metrics={"warm_s": 9.0, "speedup": 2.0}, machine_fp="m2")
        report = compare_results(cur, base)
        assert report.ok  # the 9x wall-clock blowup is incomparable: skipped
        assert [d.metric for d in report.deltas if not d.metric.startswith("acceptance.")] == ["speedup"]
        assert any("machine fingerprint" in why for _, why in report.skipped)

    def test_suite_mismatch_raises(self):
        with pytest.raises(BenchError, match="cannot compare"):
            compare_results(_synthetic(suite="a"), _synthetic(suite="b"))


# ---------------------------------------------------------------------------
# CLI gate wiring (exit codes)
# ---------------------------------------------------------------------------

def _register_gate_suite(speedup: float = 2.0, healthy: bool = True) -> str:
    name = "synthgate"

    def runner(quick=False, reps=1):
        return new_result(
            name,
            quick=quick,
            reps=reps,
            workloads=["w0"],
            metrics={"speedup": speedup},
            acceptance={"invariant": healthy},
        )

    register_suite(Suite(name=name, description="test-only synthetic suite", runner=runner))
    return name


class TestCLIGate:
    def test_run_stores_and_passes(self, tmp_path, capsys):
        name = _register_gate_suite()
        rc = main(["bench", "run", name, "--smoke", "--store", str(tmp_path)])
        assert rc == 0
        assert ResultStore(tmp_path).suites() == [name]
        assert f"{name}: ok" in capsys.readouterr().out

    def test_run_fails_on_acceptance_violation(self, tmp_path, capsys):
        name = _register_gate_suite(healthy=False)
        rc = main(["bench", "run", name, "--smoke", "--store", str(tmp_path)])
        assert rc == 1
        assert "ACCEPTANCE FAILURE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "current_speedup,expected_rc",
        [(2.4, 0), (1.8, 0), (1.0, 1)],  # improve / within tol / beyond tol
    )
    def test_compare_exit_codes(self, tmp_path, capsys, current_speedup, expected_rc):
        name = _register_gate_suite()
        store = ResultStore(tmp_path)
        store.add(
            _synthetic(name, metrics={"speedup": 2.0}, created=100), commit="aaa1111"
        )
        store.add(
            _synthetic(name, metrics={"speedup": current_speedup}, created=200),
            commit="bbb2222",
        )
        rc = main(["bench", "compare", "--store", str(tmp_path), "--suites", name])
        assert rc == expected_rc
        out = capsys.readouterr().out
        assert ("FAIL" in out) == bool(expected_rc)

    def test_compare_empty_store_skips(self, tmp_path, capsys):
        rc = main(["bench", "compare", "--store", str(tmp_path / "empty")])
        assert rc == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_compare_no_history_skips(self, tmp_path, capsys):
        name = _register_gate_suite()
        store = ResultStore(tmp_path)
        store.add(_synthetic(name, created=100), commit="aaa1111")
        # Only one commit in the store and no committed artifact for the
        # synthetic suite: the gate reports a skip, not a crash.
        rc = main(["bench", "compare", "--store", str(tmp_path), "--suites", name])
        assert rc == 0
        assert "skipping" in capsys.readouterr().out

    def test_compare_against_explicit_commit(self, tmp_path):
        name = _register_gate_suite()
        store = ResultStore(tmp_path)
        store.add(
            _synthetic(name, metrics={"speedup": 4.0}, created=100), commit="aaa1111"
        )
        store.add(
            _synthetic(name, metrics={"speedup": 2.0}, created=200), commit="bbb2222"
        )
        rc = main(
            ["bench", "compare", "aaa1", "--store", str(tmp_path), "--suites", name]
        )
        assert rc == 1  # halved against the pinned baseline commit

    def test_compare_tolerance_override(self, tmp_path):
        name = _register_gate_suite()
        store = ResultStore(tmp_path)
        store.add(
            _synthetic(name, metrics={"speedup": 2.0}, created=100), commit="aaa1111"
        )
        store.add(
            _synthetic(name, metrics={"speedup": 1.9}, created=200), commit="bbb2222"
        )
        args = ["bench", "compare", "--store", str(tmp_path), "--suites", name]
        assert main(args) == 0
        assert main(args + ["--tolerance", "0.01"]) == 1


# ---------------------------------------------------------------------------
# experiment suites
# ---------------------------------------------------------------------------

class TestExperimentSuites:
    def test_registry_in_sync(self):
        assert set(EXPERIMENTS) == set(EXPERIMENT_SUITES)
        for name in EXPERIMENT_SUITES:
            assert get_suite(name).name == name

    def test_fig3_runs_through_shared_schema(self):
        r = run_suite("fig3", quick=True)
        validate_result(r.to_dict())
        assert r.acceptance["tables_nonempty"]
        tables = tables_from_result(r)
        assert tables and len(tables[0]) > 0
        assert "Roofline" in tables[0].title

    def test_acceptance_check_describe(self):
        c = AcceptanceCheck("bar", "speedup", "ge", 1.5, full_only=True)
        assert "speedup >= 1.5" in c.describe()
        assert c.evaluate(_synthetic(quick=True)) is None  # full-only on smoke
        assert c.evaluate(_synthetic(metrics={"speedup": 2.0})) is True
        assert c.evaluate(_synthetic(metrics={"speedup": 1.0})) is False


@pytest.mark.tiled
def test_tiled_peak_child_ignores_parent_rss():
    """The peak-RSS child measures its own address space: a parent with
    a large high-water mark must not hide the multiply's working set
    (Linux carries ``ru_maxrss`` across the spawn ``exec``)."""
    import numpy as np

    from repro.bench.suites.tiled import QUICK_PEAK_WORKLOAD, _measure_peak

    ballast = np.ones(128 * 1024 * 1024 // 8)  # touched pages: parent RSS
    report = _measure_peak(QUICK_PEAK_WORKLOAD, "pb")
    del ballast
    assert report["peak_delta_bytes"] > 0
