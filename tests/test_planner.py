"""Planner subsystem coverage (``@pytest.mark.planner``).

Exercises the real components end to end: determinism of ``plan()``,
the two-tier sketch (cache hits never sample), corrupted on-disk state
degrading with a warning instead of crashing, feedback overriding the
model's pick, ``algorithm="auto"`` bit-identity against direct
invocation for every semiring, pricing from the profile's measured
kernel costs (and preset planning that measures nothing), the
dispatch-registry metadata the planner consumes, the single-source
``nbins`` resolution rule, and a real ``calibrate(quick=True)`` run.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.core.config as CONFIG_MODULE
from repro.core.config import PBConfig, resolve_nbins
from repro.core.pb_spgemm import pb_spgemm_detailed
from repro.core.symbolic import symbolic_phase
from repro.errors import ConfigError, DispatchError, ReproError
from repro.generators import erdos_renyi, rmat
from repro.kernels.dispatch import algorithm_metadata, get_algorithm
from repro.matrix.coo import COOMatrix
from repro.matrix.csr import CSRMatrix
from repro.planner import (
    MachineProfile,
    PlanCache,
    calibrate,
    default_profile,
    load_profile,
    plan,
    save_profile,
    sketch,
)
from repro.planner.calibrate import (
    FAMILIES,
    PRESET_COPY_BYTES,
    PROFILE_FILENAME,
    _fit_costs,
)
from repro.planner.cost import FAMILY, rank
from repro.planner.sketch import deepen
from repro.planner.cache import PLANS_FILENAME
from repro.semiring import available_semirings

pytestmark = pytest.mark.planner


@pytest.fixture(scope="module")
def operands():
    b = erdos_renyi(1 << 9, 8, seed=3, fmt="csr")
    return b.to_csc(), b


# -- plan(): determinism, caching, degenerate inputs ------------------------


def test_plan_is_deterministic(operands):
    a, b = operands
    plans = [
        plan(a, b, profile=default_profile(), cache=PlanCache(), seed=7)
        for _ in range(2)
    ]
    p0, p1 = plans
    assert p0.algorithm == p1.algorithm
    assert p0.cache_key == p1.cache_key
    assert p0.overrides == p1.overrides
    assert p0.predicted_seconds == p1.predicted_seconds
    assert [c.to_dict() for c in p0.candidates] == [
        c.to_dict() for c in p1.candidates
    ]


def test_plan_cache_hit_skips_sampling(operands):
    a, b = operands
    cache = PlanCache()
    p0 = plan(a, b, profile=default_profile(), cache=cache)
    assert p0.source == "model"
    assert p0.sketch.deep  # the miss paid for the deep tier
    p1 = plan(a, b, profile=default_profile(), cache=cache)
    assert p1.source == "cache"
    assert p1.algorithm == p0.algorithm
    assert not p1.sketch.deep  # the hit never sampled
    assert p1.cache_key == p0.cache_key


def test_stale_cache_record_with_removed_backend_overrides(operands, tmp_path):
    """Plan-cache records written while PBConfig still had per-phase
    numpy backends carry ``sort_backend``/``distribute_backend``
    overrides, records from when the ranker swept the compiled panel
    carry ``column_backend="panel_jit"``, and records from when it
    swept the Fig. 6 knobs carry ``nbins``/``local_bin_bytes``; a hit
    must drop them all, not crash ``with_`` or pin an unpriced knob."""
    a, b = operands
    cache = PlanCache(str(tmp_path))
    p0 = plan(a, b, profile=default_profile(), cache=cache)
    rec = cache.get(p0.cache_key)
    rec["algorithm"] = "pb"
    rec["overrides"] = {
        "nbins": 16,
        "local_bin_bytes": 256,
        "sort_backend": "radix_jit",
        "distribute_backend": "counting_jit",
        "column_backend": "panel_jit",
    }
    cache.put(p0.cache_key, rec)
    reopened = PlanCache(str(tmp_path))
    p1 = plan(a, b, profile=default_profile(), cache=reopened)
    assert p1.source == "cache" and p1.algorithm == "pb"
    assert p1.overrides == {} and p1.config == PBConfig()
    c = repro.multiply(a, b, algorithm=p1)
    assert c.data.tobytes() == repro.multiply(a, b, config=PBConfig()).data.tobytes()


def test_plan_records_all_candidates_with_reasons(operands):
    a, b = operands
    p = plan(a, b, profile=default_profile(), cache=PlanCache())
    assert {c.algorithm for c in p.candidates} == set(repro.available_algorithms())
    winner, losers = p.candidates[0], p.candidates[1:]
    assert winner.algorithm == p.algorithm and winner.reason is None
    assert all(c.reason for c in losers)  # every loser says why


def test_empty_matrix_plans_without_sampling():
    z = CSRMatrix.from_dense(np.zeros((8, 8)))
    sk = sketch(z.to_csc(), z)
    assert sk.flop == 0 and sk.deep and sk.nnz_c == 0  # cheap tier fixed it
    p = plan(z.to_csc(), z, profile=default_profile(), cache=PlanCache())
    c = repro.multiply(z, z, algorithm=p)
    assert c.nnz == 0


def test_one_by_one_matrix_plans_and_multiplies():
    one = CSRMatrix.from_dense(np.array([[2.0]]))
    p = plan(one.to_csc(), one, profile=default_profile(), cache=PlanCache())
    assert p.sketch.flop == 1
    c = repro.multiply(one, one, algorithm=p)
    assert c.shape == (1, 1) and c.data[0] == 4.0


# -- corrupted on-disk state: warn + regenerate, never crash ----------------


def test_corrupt_profile_warns_and_regenerates(tmp_path, operands):
    (tmp_path / PROFILE_FILENAME).write_text('{"schema_version": 1, "copy_')
    with pytest.warns(RuntimeWarning, match="corrupt machine profile"):
        assert load_profile(tmp_path) is None
    a, b = operands
    cfg = PBConfig(plan_cache_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        c = repro.multiply(a.to_csr(), b, algorithm="auto", config=cfg)
    assert c.nnz > 0  # the multiply itself never fails
    prof = calibrate(quick=True, measure_pool=False)
    save_profile(prof, tmp_path)  # regenerating overwrites the junk
    loaded = load_profile(tmp_path)
    assert loaded is not None and loaded.fingerprint() == prof.fingerprint()


def test_wrong_schema_profile_is_rejected(tmp_path):
    bad = default_profile().to_dict()
    bad["schema_version"] = 99
    (tmp_path / PROFILE_FILENAME).write_text(json.dumps(bad))
    with pytest.warns(RuntimeWarning, match="schema_version"):
        assert load_profile(tmp_path) is None


def test_corrupt_plan_cache_warns_and_starts_empty(tmp_path, operands):
    (tmp_path / PLANS_FILENAME).write_text("not json at all {{{")
    with pytest.warns(RuntimeWarning, match="corrupt plan cache"):
        cache = PlanCache(tmp_path)
    assert len(cache) == 0
    a, b = operands
    p = plan(a, b, profile=default_profile(), cache=cache)  # still functional
    assert p.source == "model" and len(cache) == 1
    # ...and the rewritten file round-trips cleanly.
    reloaded = PlanCache(tmp_path)
    assert len(reloaded) == 1
    assert plan(a, b, profile=default_profile(), cache=reloaded).source == "cache"


def test_truncated_plan_cache_payload(tmp_path):
    (tmp_path / PLANS_FILENAME).write_text('{"schema_version": 1}')
    with pytest.warns(RuntimeWarning, match="corrupt plan cache"):
        cache = PlanCache(tmp_path)
    assert len(cache) == 0


# -- feedback loop ----------------------------------------------------------


def test_feedback_overrides_model_pick(operands):
    a, b = operands
    cache = PlanCache()
    p0 = plan(a, b, profile=default_profile(), cache=cache)
    other = next(
        n for n in sorted(repro.available_algorithms()) if n != p0.algorithm
    )
    # Measurements say the model's pick is slow and `other` is fast.
    cache.record_feedback(p0.cache_key, p0.algorithm, 2.0)
    cache.record_feedback(p0.cache_key, other, 0.010)
    p1 = plan(a, b, profile=default_profile(), cache=cache)
    assert p1.source == "feedback"
    assert p1.algorithm == other
    # Running mean: a second, slower sample moves but keeps the winner.
    cache.record_feedback(p0.cache_key, other, 0.030)
    rec = cache.get(p0.cache_key)
    assert rec["feedback"][other]["count"] == 2
    assert rec["feedback"][other]["mean_s"] == pytest.approx(0.020)


def test_feedback_rejects_garbage(operands):
    a, b = operands
    cache = PlanCache()
    p = plan(a, b, profile=default_profile(), cache=cache)
    for junk in (0.0, -1.0, float("nan"), float("inf")):
        cache.record_feedback(p.cache_key, p.algorithm, junk)
    assert cache.get(p.cache_key)["feedback"] == {}


# -- algorithm="auto" bit-identity ------------------------------------------


def test_auto_is_bit_identical_to_direct(operands):
    a, b = operands
    for name in available_semirings():
        auto = repro.multiply(a.to_csr(), b, algorithm="auto", semiring=name)
        p = plan(a, b, semiring=name)
        direct = repro.multiply(
            a.to_csr(), b, algorithm=p.algorithm, semiring=name
        )
        assert np.array_equal(auto.indptr, direct.indptr), name
        assert np.array_equal(auto.indices, direct.indices), name
        assert np.array_equal(auto.data, direct.data), name


def test_explicit_plan_is_executable(operands):
    a, b = operands
    p = plan(a, b, profile=default_profile(), cache=PlanCache())
    via_plan = repro.multiply(a.to_csr(), b, algorithm=p)
    direct = repro.multiply(a.to_csr(), b, algorithm=p.algorithm)
    assert np.array_equal(via_plan.indptr, direct.indptr)
    assert np.array_equal(via_plan.data, direct.data)


# -- dispatch registry ------------------------------------------------------


def test_dispatch_error_lists_algorithms():
    with pytest.raises(DispatchError, match="available") as exc_info:
        get_algorithm("nonsense")
    msg = str(exc_info.value)
    for name in repro.available_algorithms():
        assert name in msg
    # Legacy handlers catch KeyError; library handlers catch ReproError.
    assert isinstance(exc_info.value, KeyError)
    assert isinstance(exc_info.value, ReproError)


def test_algorithm_metadata_exposes_planner_fields():
    meta = algorithm_metadata()
    assert set(meta) == set(repro.available_algorithms())
    for name, m in meta.items():
        assert {"supports_config", "supports_process", "supports_session"} <= set(m)
    assert meta["pb"]["supports_process"] is True
    assert meta["pb"]["supports_config"] is True
    assert meta["heap"]["supports_process"] is False


# -- PBConfig fields + single-source nbins ----------------------------------


def test_config_validates_planner_fields():
    cfg = PBConfig(plan_cache_dir="/tmp/x")
    assert cfg.plan_cache_dir == "/tmp/x"
    with pytest.raises(ConfigError, match="plan_cache_dir"):
        PBConfig(plan_cache_dir=123)


def test_symbolic_nbins_comes_from_resolve_nbins():
    b = rmat(9, 8, seed=2).to_csr()
    a = b.to_csc()
    for cfg in (PBConfig(), PBConfig(nbins=64), PBConfig(nbins=1 << 16)):
        sym = symbolic_phase(a, b, cfg)
        resolved = resolve_nbins(sym.flop, a.shape[0], b.shape[1], cfg)
        # symbolic_phase only snaps the resolved count to the effective
        # number of contiguous row ranges — never re-derives policy.
        rows_per_bin = max(1, -(-a.shape[0] // resolved))
        assert sym.nbins == max(1, -(-a.shape[0] // rows_per_bin))


def test_resolve_nbins_policy():
    assert resolve_nbins(10**9, 1 << 20, 1 << 20) == 2048  # upper clamp
    assert resolve_nbins(1, 1 << 20, 1 << 20) == 1024  # lower clamp
    assert resolve_nbins(10**9, 100, 100) == 100  # never exceeds nrows
    assert resolve_nbins(0, 0, 0) == 1
    assert resolve_nbins(10**6, 1 << 20, 1 << 20, PBConfig(nbins=4096)) == 4096

    # The digit boundary: ER 2^14/16 squared has 14 column bits, so 1K
    # bins give 4 row bits (18-bit keys, 3 byte passes) and 4K bins 2
    # (16 bits, 2 passes).
    er = erdos_renyi(1 << 14, 16, seed=1, fmt="csr")
    sym = symbolic_phase(er.to_csc(), er)
    assert sym.nbins == 4096
    assert resolve_nbins(sym.flop, 1 << 14, 1 << 14) == 4096
    res = pb_spgemm_detailed(er.to_csc(), er)
    assert (res.layout.nbins, res.key_bits, res.radix_passes) == (4096, 16, 2)
    # R-MAT 13: 1K bins already give 3 + 13 = 16-bit keys.
    rm = rmat(13, 8, seed=1).to_csr()
    assert symbolic_phase(rm.to_csc(), rm).nbins == 1024
    # 16 column bits: every count up to 4x leaves 3 passes, so the
    # L2-fit count stands (what unpacked keys, which skip the search, get).
    for flop in (10**6, 10**7, 10**9):
        assert resolve_nbins(flop, 1 << 16, 1 << 16) == resolve_nbins(
            flop, 1 << 16, 1 << 16, PBConfig(pack_keys=False)
        )
    # The tuple floor: 4K bins need 512 tuples per bin on average; below
    # that, 2K bins save no pass over 1K, and the fewest bins win.
    floor = 4096 * CONFIG_MODULE.MIN_TUPLES_PER_BIN
    assert resolve_nbins(floor, 1 << 14, 1 << 14) == 4096
    assert resolve_nbins(floor - 1, 1 << 14, 1 << 14) == 1024
    # Pass-through: an explicit count, modulo mapping, unpacked keys,
    # and local bins, whose footprint the L2-fit count bounds (so the
    # cost model, which prices the paper's local bins, keeps it too).
    flop = sym.flop
    for cfg, want in (
        (PBConfig(nbins=1024), 1024),
        (PBConfig(nbins=3000), 3000),
        (PBConfig(bin_mapping="modulo", pack_keys=False), 1024),
        (PBConfig(pack_keys=False), 1024),
        (PBConfig(use_local_bins=True), 1024),
    ):
        assert resolve_nbins(flop, 1 << 14, 1 << 14, cfg) == want
    # Serve-sized products keep one bin per row.
    assert resolve_nbins(10**6, 256, 1 << 20) == 256


def _digit_boundary_problem(seed: int):
    """An 8192 x 64 by 64 x 32768 product (15 column bits) whose rows
    and columns come from 300 ids each, so many tuples collide: the
    rule moves it from 1K bins (18-bit keys) to 4K (16-bit) once the
    tuple floor is lifted."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(8192, 300, replace=False))
    cols = np.sort(rng.choice(32768, 300, replace=False))

    def operand(shape, ids, along_rows):
        nnz = 64 * 40
        inner = np.repeat(np.arange(64), 40)
        outer = rng.choice(ids, nnz)
        vals = rng.normal(size=nnz).round(1)  # ties exercise min/max
        r, c = (outer, inner) if along_rows else (inner, outer)
        return COOMatrix(shape, r, c, vals).coalesce()

    a = operand((8192, 64), rows, True).to_csc()
    b = operand((64, 32768), cols, False).to_csr()
    return a, b


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**16), st.sampled_from(available_semirings()))
def test_digit_boundary_bins_are_bit_identical(seed, semiring):
    """The product does not depend on the bin count: the rule's pick,
    1K, 2K and 8K bins, with and without local bins, on one and two
    threads, all equal the numpy pipeline bit for bit."""
    from unittest import mock

    from repro.kernels import jit
    from repro.parallel import threads

    a, b = _digit_boundary_problem(seed)
    with jit.disabled():
        ref = pb_spgemm_detailed(a, b, semiring).c
    with (
        mock.patch.object(CONFIG_MODULE, "MIN_TUPLES_PER_BIN", 1),
        mock.patch.object(threads, "MIN_FLOP_PER_THREAD", 1),
        mock.patch.object(threads, "usable_cpus", lambda: 2),
    ):
        assert pb_spgemm_detailed(a, b, semiring).layout.nbins == 4096
        for nbins in (None, 1024, 2048, 8192):
            for local_bins in (False, True):
                for nthreads in (1, 2):
                    cfg = PBConfig(
                        nbins=nbins, use_local_bins=local_bins, nthreads=nthreads
                    )
                    c = pb_spgemm_detailed(a, b, semiring, cfg).c
                    assert c.indptr.tobytes() == ref.indptr.tobytes()
                    assert c.indices.tobytes() == ref.indices.tobytes()
                    assert c.data.tobytes() == ref.data.tobytes()


@pytest.mark.parallel
@pytest.mark.usefixtures("numpy_pipeline")
def test_serial_and_process_executors_resolve_identical_nbins():
    if not repro.process_backend_available():
        pytest.skip("process backend unavailable")
    b = erdos_renyi(1 << 9, 8, seed=5, fmt="csr")
    a = b.to_csc()
    serial = pb_spgemm_detailed(a, b, config=PBConfig())
    proc = pb_spgemm_detailed(
        a, b, config=PBConfig(executor="process", nthreads=2)
    )
    assert proc.executor_used == "process"
    assert serial.symbolic.nbins == proc.symbolic.nbins
    assert serial.layout.nbins == proc.layout.nbins
    assert np.array_equal(serial.c.indptr, proc.c.indptr)
    assert np.array_equal(serial.c.data, proc.c.data)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_threaded_pb_priced_on_its_threads(executor):
    """PB and tiled are priced on the threads the compiled pipeline
    would use, under either executor, with no pool-startup charge."""
    from repro.kernels import jit
    from repro.parallel.threads import thread_count

    a = rmat(11, 8, seed=3)
    cfg = PBConfig(executor=executor, nthreads=2)
    cache = PlanCache()
    with jit.disabled():
        one = plan(a, a, config=PBConfig(), cache=cache)
        if executor == "serial":
            # Without the compiled pipeline, nthreads under the serial
            # executor buys nothing.
            numpy_plan = plan(a, a, config=cfg, cache=cache)
            pb = {c.algorithm: c for c in numpy_plan.candidates}["pb"]
            assert (pb.executor, pb.nthreads) == ("serial", 1)
    if not jit.jit_available():
        pytest.skip("compiled pipeline unavailable")
    p = plan(a, a, config=cfg, cache=cache)
    threads = thread_count(2, p.sketch.flop)
    by_name = {c.algorithm: c for c in p.candidates}
    serial_pb = {c.algorithm: c for c in one.candidates}["pb"]
    for name in ("pb", "tiled"):
        c = by_name[name]
        assert c.nthreads == threads
        assert c.executor == ("threads" if threads > 1 else "serial")
    if threads > 1:
        assert by_name["pb"].predicted_seconds < serial_pb.predicted_seconds
        assert "threads:2" in p.cache_key


# -- calibration ------------------------------------------------------------


def test_quick_calibration_is_fast_and_sane():
    import time

    t0 = time.perf_counter()
    prof = calibrate(quick=True, measure_pool=False)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"quick calibration took {elapsed:.1f}s"
    assert prof.source == "calibrated" and prof.quick is True
    assert prof.copy_gbs > 0
    for family in FAMILIES:
        flop_ns = getattr(prof, f"{family}_flop_ns")
        out_ns = getattr(prof, f"{family}_out_ns")
        assert flop_ns >= 0.0 and out_ns >= 0.0 and flop_ns + out_ns > 0.0
    assert len(prof.fingerprint()) == 12


def test_profile_roundtrip_and_fingerprint_stability(tmp_path):
    prof = default_profile()
    save_profile(prof, tmp_path)
    loaded = load_profile(tmp_path)
    assert loaded == prof
    # created_unix must not participate in the fingerprint.
    import dataclasses

    resaved = dataclasses.replace(prof, created_unix=12345.0)
    assert resaved.fingerprint() == prof.fingerprint()


def test_calibrated_profile_prices_ranking(operands):
    """Every candidate is priced from the profile's measured costs:
    ``flop · t_flop + nnz(C) · t_out`` of the family that runs it."""
    a, b = operands
    prof = calibrate(quick=True, measure_pool=False)
    sk = deepen(sketch(a, b), a, b)
    by_name = {c.algorithm: c for c in rank(a, b, sk, prof)}
    for name, family in FAMILY.items():
        if name in ("tiled", "sharded"):
            continue
        assert by_name[name].predicted_seconds == pytest.approx(
            prof.kernel_seconds(family, sk.flop, sk.nnz_c)
        ), name
    # Tiling only adds to PB's time.
    assert by_name["tiled"].predicted_seconds > by_name["pb"].predicted_seconds


def test_preset_costs_scale_with_copy_rate():
    from repro.machine.presets import get_machine

    for preset in ("laptop", "skylake", "power9"):
        prof = default_profile(preset)
        copy = get_machine(preset).stream_single.copy
        assert prof.source == f"preset:{preset}" and prof.copy_gbs == copy
        for family, (flop_b, out_b) in PRESET_COPY_BYTES.items():
            assert getattr(prof, f"{family}_flop_ns") == pytest.approx(flop_b / copy)
            assert getattr(prof, f"{family}_out_ns") == pytest.approx(out_b / copy)


def test_fit_costs_recovers_both_terms_and_stays_non_negative():
    t_flop, t_out = _fit_costs([(1e6, 1e6, 0.03), (2e6, 5e5, 0.045)])
    assert t_flop == pytest.approx(2e-8) and t_out == pytest.approx(1e-8)
    # A fit that would need a negative per-flop cost keeps one term.
    t_flop, t_out = _fit_costs([(1e6, 1e6, 0.07), (2e6, 1.1e6, 0.068)])
    assert t_flop == 0.0 and t_out > 0.0


def test_ranking_follows_the_profile():
    """The same input picks PB or a column kernel depending only on the
    measured costs: a profile whose panel is cheaper picks ``hash``
    (the name tiebreak among the four kernels sharing the panel)."""
    b = erdos_renyi(1 << 9, 8, seed=3, fmt="csr")
    a = b.to_csc()
    base = default_profile()
    cheap_panel = dataclasses.replace(
        base, panel_flop_ns=base.pb_flop_ns / 4, panel_out_ns=0.0
    )
    assert plan(a, b, profile=base, cache=PlanCache()).algorithm == "pb"
    assert plan(a, b, profile=cheap_panel, cache=PlanCache()).algorithm == "hash"


@pytest.mark.parametrize(
    "make",
    [
        lambda: erdos_renyi(1 << 12, 16, seed=1, fmt="csr"),
        lambda: rmat(11, 16, seed=1).to_csr(),
    ],
    ids=["er_s12_ef16", "rmat_s11_ef16"],
)
def test_preset_profile_picks_pb(make):
    """PB measured faster than every column kernel on ER and R-MAT
    squarings, so the uncalibrated planner must pick it there."""
    b = make()
    p = plan(b.to_csc(), b, profile=default_profile(), cache=PlanCache())
    assert p.algorithm == "pb"


def test_preset_planning_measures_nothing(monkeypatch):
    """Planning with the preset profile runs no simulator and no
    calibration probe: make each raise, and ``repro.plan`` plus
    ``algorithm="auto"`` still work."""
    import ast
    import pathlib
    from importlib import import_module

    # import_module: ``repro.planner`` re-exports a function named
    # ``calibrate`` that shadows the submodule attribute.
    cal = import_module("repro.planner.calibrate")
    sim = import_module("repro.simulate")
    engine = import_module("repro.simulate.engine")

    def boom(*args, **kwargs):
        raise AssertionError("preset planning must not measure or simulate")

    monkeypatch.setattr(engine, "simulate_phases", boom)
    monkeypatch.setattr(sim, "simulate_phases", boom)
    for probe in (
        "_measure_copy",
        "_calibration_products",
        "_measure_family",
        "_measure_pool",
    ):
        monkeypatch.setattr(cal, probe, boom)
    monkeypatch.delenv("REPRO_PLAN_CACHE_DIR", raising=False)
    a = rmat(10, 8, seed=4).to_csr()
    p = repro.plan(a.to_csc(), a, cache=PlanCache())
    assert p.source == "model" and p.profile_fingerprint == default_profile().fingerprint()
    auto = repro.multiply(a, a, algorithm="auto")
    kwargs = {"config": p.config} if p.config is not None else {}
    direct = repro.multiply(a, a, algorithm=p.algorithm, **kwargs)
    assert auto.data.tobytes() == direct.data.tobytes()
    # Nothing under repro/planner imports the simulator or the cycle
    # constants.
    root = pathlib.Path(cal.__file__).parent
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module or ''}.{n.name}" for n in node.names
                ]
            elif isinstance(node, ast.Import):
                names = [n.name for n in node.names]
            else:
                continue
            for name in names:
                assert "simulate" not in name and "costmodel" not in name, (
                    path.name,
                    name,
                )


def test_loop_backend_excludes_panel_candidates(operands):
    """The profile measures the panel, never the loop ablation, so a
    config pinning ``column_backend="loop"`` drops the four panel
    kernels instead of pricing the loop at the panel rate."""
    a, b = operands
    cache = PlanCache()
    default = plan(a, b, profile=default_profile(), cache=cache)
    cfg = PBConfig(column_backend="loop")
    p = plan(a, b, config=cfg, profile=default_profile(), cache=cache)
    # The pin keys its own plan: the default plan never answers it.
    assert p.source == "model" and p.cache_key != default.cache_key
    names = {c.algorithm for c in p.candidates}
    assert not names & {"heap", "hash", "hashvec", "spa"}
    assert {"pb", "esc_column"} <= names


def test_sharded_sweep_fits_usable_cpus(monkeypatch):
    """Unpinned shard counts stop at the usable CPUs, plus the count
    ``resolve_shards("auto")`` needs to meet a memory budget."""
    from repro.core.sharded import resolve_shards
    from repro.parallel import process_backend_available, threads
    from repro.planner.cost import _shard_counts

    if not process_backend_available():
        pytest.skip("process backend unavailable")
    b = erdos_renyi(1 << 12, 16, seed=2, fmt="csr")
    a = b.to_csc()

    def sharded(cpus, config):
        monkeypatch.setattr(threads, "usable_cpus", lambda: cpus)
        p = plan(a, b, config=config, profile=default_profile(), cache=PlanCache())
        return next(c for c in p.candidates if c.algorithm == "sharded")

    assert sharded(2, PBConfig()).nthreads == 2
    assert sharded(1, PBConfig()).nthreads == 2  # the smallest sweep entry
    assert sharded(8, PBConfig()).nthreads in (2, 4, 8)
    sk = sketch(a, b)
    assert _shard_counts(sk, PBConfig(), 2) == [2]
    assert _shard_counts(sk, PBConfig(), 8) == [2, 4, 8]
    budget = 1 << 20
    need = resolve_shards("auto", m=sk.m, flop=sk.flop, memory_budget=budget)
    assert need > 2
    assert _shard_counts(sk, PBConfig(memory_budget=budget), 2) == [2, need]
    assert _shard_counts(sk, PBConfig(shards="auto", memory_budget=budget), 2) == [
        need
    ]
    assert _shard_counts(sk, PBConfig(shards=3), 8) == [3]


# -- CLI smoke# -- CLI smoke --------------------------------------------------------------


@pytest.fixture()
def mtx_path(tmp_path):
    from repro.matrix.io import write_matrix_market

    path = tmp_path / "a.mtx"
    write_matrix_market(erdos_renyi(128, 4, seed=1, fmt="csr"), path)
    return str(path)


def test_cli_plan_smoke(mtx_path, capsys):
    from repro.cli import main

    assert main(["plan", mtx_path]) == 0
    out = capsys.readouterr().out
    assert "plan:" in out and "candidates:" in out
    assert main(["plan", mtx_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] in repro.available_algorithms()
    assert payload["sketch"]["flop"] > 0


def test_cli_calibrate_smoke(tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "state"
    rc = main(
        ["calibrate", "--quick", "--no-pool", "--cache-dir", str(cache_dir)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fingerprint" in out and "saved" in out
    assert load_profile(cache_dir) is not None


def test_cli_multiply_auto_smoke(mtx_path, capsys):
    from repro.cli import main

    assert main(["matrix", "multiply", mtx_path, "--algorithm", "auto"]) == 0
    assert "algorithm=auto" in capsys.readouterr().out
