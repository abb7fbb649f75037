"""``tiled`` suite: out-of-core 2D tiling vs. the monolithic PB path.

Measures what :mod:`repro.core.tiled` — the block core of
:mod:`repro.core.blocks` run in process with spill staging (DESIGN.md
§16) — buys over one monolithic multiply:

* **peak memory** — peak-RSS working-set delta of one multiply,
  monolithic ``pb`` vs. ``tiled`` under a fixed ``memory_budget``.
  Each measurement runs in its own spawned child process (operands
  rebuilt from the generator seed inside the child) so the parent's
  allocator high-water mark cannot mask the difference; the child
  reports its peak RSS after the multiply minus a baseline taken
  after imports and operand construction.  The headline acceptance is
  the ISSUE bar: the tiled engine completes under a budget at which
  the monolithic path cannot;
* **spill** — an out-of-core round trip: a deliberately tiny budget
  forces staged tiles through :class:`repro.core.tiled.SpillStore`'s
  ``.npz`` eviction path, and the product must still be bit-identical;
* **identity** — tiled (real multi-tile grid) bit-identical to the
  monolithic serial path for every built-in semiring;
* **planner regret** — wall time with the planner-selected tile grid
  vs. the best grid from an explicit sweep (``planner_tile_regret``,
  gated on full runs).

Committed baseline: repo-root ``BENCH_tiled.json``.
"""

from __future__ import annotations

import math
import multiprocessing
import tempfile
import time

import numpy as np

import repro

from ...core import PBConfig
from ...core.tiled import tiled_spgemm, tiled_spgemm_detailed
from ...generators import erdos_renyi
from ...semiring import available_semirings
from ..registry import AcceptanceCheck, Suite, register_suite
from ..schema import BenchResult, new_result

#: Full-run memory budget (bytes) for the peak-RSS head-to-head.  Sized
#: between the tiled and monolithic working sets of ``PEAK_WORKLOAD``
#: so the budget separates the two paths (tuned against measured
#: deltas, with headroom for allocator noise).
FULL_BUDGET = 160 * 1024 * 1024

#: Quick-run budget: drives grid sizing on the small workload; the RSS
#: acceptance bars are full-only (tiny working sets drown in noise).
QUICK_BUDGET = 4 * 1024 * 1024

#: Planner regret gate: planner-picked grid within this factor of the
#: best swept grid.
MAX_PLANNER_REGRET = 1.6

#: Square grid sizes swept against the planner's pick.
GRID_SWEEP = (1, 2, 4, 8, 16)

#: The peak head-to-head needs a product far smaller than its tuple
#: stream (compression factor ≫ 1): monolithic PB holds all 26M
#: tuples of ER 2^10 at edge factor 160 (cf ≈ 25, about 300 MB), while
#: a tiled run holds one tile's tuples plus the 1M-entry product.  On
#: cf ≈ 1 inputs the product alone is most of the monolithic peak.
PEAK_WORKLOAD = "er_s10_ef160"
QUICK_PEAK_WORKLOAD = "er_s11_ef8"
SPILL_WORKLOAD = "er_s9_ef4"

#: Operand builders keyed by name so spawned children can rebuild the
#: exact operands from the seed instead of inheriting parent memory.
_WORKLOADS = {
    PEAK_WORKLOAD: lambda: erdos_renyi(1 << 10, 160, seed=5, fmt="csr"),
    QUICK_PEAK_WORKLOAD: lambda: erdos_renyi(1 << 11, 8, seed=5, fmt="csr"),
    SPILL_WORKLOAD: lambda: erdos_renyi(1 << 9, 4, seed=6, fmt="csr"),
}

QUICK_WORKLOADS = (QUICK_PEAK_WORKLOAD, SPILL_WORKLOAD)
FULL_WORKLOADS = (PEAK_WORKLOAD, SPILL_WORKLOAD)


def _peak_rss_kb() -> int:
    """This process's peak RSS in KiB.

    Linux carries ``ru_maxrss`` across ``exec``, so a spawned child
    would start from its parent's high-water mark; ``VmHWM`` belongs to
    the child's own address space.  Other platforms use ``ru_maxrss``.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_worker(conn, wname: str, algorithm: str, budget: int | None) -> None:
    """Child-process body: one multiply, report peak-RSS delta.

    Runs under the ``spawn`` start method so the baseline peak RSS
    reflects this interpreter's imports plus the operands and nothing
    from the parent.  Peak RSS is a high-water mark, so the delta is the
    multiply's working set *beyond* the operand-resident baseline — the
    quantity a memory budget constrains.
    """
    b_csr = _WORKLOADS[wname]()
    a_csc = b_csr.to_csc()
    baseline_kb = _peak_rss_kb()
    t = time.perf_counter()
    if algorithm == "tiled":
        c = tiled_spgemm(a_csc, b_csr, config=PBConfig(memory_budget=budget))
    else:
        c = repro.pb_spgemm(a_csc, b_csr)
    seconds = time.perf_counter() - t
    peak_kb = _peak_rss_kb()
    conn.send(
        {
            "algorithm": algorithm,
            "baseline_bytes": int(baseline_kb) * 1024,
            "peak_delta_bytes": max(0, int(peak_kb - baseline_kb)) * 1024,
            "seconds": seconds,
            "nnz_c": int(c.nnz),
            "checksum": float(c.data.sum()),
        }
    )
    conn.close()


def _measure_peak(wname: str, algorithm: str, budget: int | None = None) -> dict:
    """Run one multiply in a spawned child; return its report."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_peak_worker, args=(child, wname, algorithm, budget))
    proc.start()
    child.close()
    try:
        out = parent.recv()
    finally:
        proc.join()
        parent.close()
    if proc.exitcode != 0:
        raise RuntimeError(
            f"peak-RSS child for {algorithm} on {wname} exited {proc.exitcode}"
        )
    return out


def _bench_peak(wname: str, budget: int) -> dict:
    """Monolithic vs. tiled peak-RSS head-to-head under one budget."""
    mono = _measure_peak(wname, "pb")
    tiled = _measure_peak(wname, "tiled", budget=budget)
    return {
        "workload": wname,
        "memory_budget_bytes": budget,
        "mono": mono,
        "tiled": tiled,
        "identical_product": mono["nnz_c"] == tiled["nnz_c"]
        and mono["checksum"] == tiled["checksum"],
        "peak_ratio": (
            mono["peak_delta_bytes"] / tiled["peak_delta_bytes"]
            if tiled["peak_delta_bytes"]
            else float("inf")
        ),
        "tiled_slowdown": tiled["seconds"] / mono["seconds"],
    }


def _bench_spill(wname: str) -> dict:
    """Out-of-core round trip: tiny budget forces .npz staging."""
    b_csr = _WORKLOADS[wname]()
    a_csc = b_csr.to_csc()
    expect = repro.pb_spgemm(a_csc, b_csr)
    with tempfile.TemporaryDirectory(prefix="repro-bench-spill-") as tmp:
        cfg = PBConfig(memory_budget=1 << 14, spill_dir=tmp)
        res = tiled_spgemm_detailed(a_csc, b_csr, config=cfg)
    c = res.c
    return {
        "workload": wname,
        "grid": [res.grid.grid_rows, res.grid.grid_cols],
        "tiles_computed": res.tiles_computed,
        "spilled_tiles": res.spilled_tiles,
        "spilled_bytes": res.spilled_bytes,
        "peak_staged_bytes": res.peak_staged_bytes,
        "identical": bool(
            np.array_equal(expect.indptr, c.indptr)
            and np.array_equal(expect.indices, c.indices)
            and expect.data.tobytes() == c.data.tobytes()
        ),
    }


def _check_identity(wname: str) -> dict:
    """Tiled on a real multi-tile grid vs. serial pb, per semiring."""
    b_csr = _WORKLOADS[wname]()
    a_csc = b_csr.to_csc()
    m, n = a_csc.shape[0], b_csr.shape[1]
    cfg = PBConfig(
        tile_rows=max(1, math.ceil(m / 4)), tile_cols=max(1, math.ceil(n / 4))
    )
    out = {}
    for name in available_semirings():
        expect = repro.pb_spgemm(a_csc, b_csr, semiring=name)
        got = tiled_spgemm(a_csc, b_csr, semiring=name, config=cfg)
        out[name] = bool(
            np.array_equal(expect.indptr, got.indptr)
            and np.array_equal(expect.indices, got.indices)
            and expect.data.tobytes() == got.data.tobytes()
        )
    return out


def _bench_planner_regret(wname: str, budget: int, reps: int) -> dict:
    """Planner-picked grid vs. an explicit budget-feasible grid sweep.

    The sweep only competes grids whose predicted peak (the same
    :func:`repro.core.tiled.tiled_peak_bytes` model the planner prices
    with) fits the budget — a 1x1 grid is usually fastest but blows the
    budget, and the planner is not allowed to pick it either.
    """
    from ...planner import PlanCache, plan

    b_csr = _WORKLOADS[wname]()
    a_csc = b_csr.to_csc()
    m, n = a_csc.shape[0], b_csr.shape[1]
    cfg = PBConfig(memory_budget=budget)
    p = plan(a_csc, b_csr, config=cfg, cache=PlanCache())

    def _run(
        tile_rows: int | None, tile_cols: int | None, with_budget: bool
    ) -> tuple[float, float]:
        c = PBConfig(
            memory_budget=budget if with_budget else None,
            tile_rows=tile_rows,
            tile_cols=tile_cols,
        )
        best_s = float("inf")
        peak = 0.0
        for _ in range(max(1, reps)):
            res = tiled_spgemm_detailed(a_csc, b_csr, config=c)
            best_s = min(best_s, res.seconds)
            peak = res.predicted_peak_bytes
        return best_s, peak

    sweep: dict[str, float] = {}
    feasible: dict[str, float] = {}
    for g in GRID_SWEEP:
        if g > min(m, n):
            continue
        label = f"{g}x{g}"
        seconds, peak = _run(math.ceil(m / g), math.ceil(n / g), False)
        sweep[label] = seconds
        if peak <= budget:
            feasible[label] = seconds
    pool = feasible or sweep  # degenerate budget: fall back to the full sweep
    best_grid, best_s = min(pool.items(), key=lambda kv: kv[1])

    # The planner's tile size: the tiled *candidate*'s tuned overrides
    # (priced even when another algorithm won the overall rank), timed
    # without the budget live so the comparison against the sweep is
    # pure grid quality — both sides pay identical staging costs.
    tiled_cand = next(
        (c for c in p.candidates if c.algorithm == "tiled"), None
    )
    overrides = (
        dict(p.overrides)
        if p.algorithm == "tiled"
        else dict(tiled_cand.overrides) if tiled_cand is not None else {}
    )
    planner_tr = overrides.get("tile_rows")
    planner_tc = overrides.get("tile_cols")
    planner_s, _ = _run(planner_tr, planner_tc, False)
    return {
        "workload": wname,
        "memory_budget_bytes": budget,
        "planner_algorithm": p.algorithm,
        "planner_tile_rows": planner_tr,
        "planner_tile_cols": planner_tc,
        "planner_s": planner_s,
        "sweep_s": sweep,
        "feasible_grids": sorted(feasible),
        "best_grid": best_grid,
        "best_s": best_s,
        "regret": planner_s / best_s,
    }


def run(quick: bool = False, reps: int = 3) -> BenchResult:
    peak_wname = QUICK_PEAK_WORKLOAD if quick else PEAK_WORKLOAD
    budget = QUICK_BUDGET if quick else FULL_BUDGET

    print(f"== peak-RSS {peak_wname} (budget {budget // (1 << 20)} MB)", flush=True)
    peak = _bench_peak(peak_wname, budget)
    print(
        f"   mono {peak['mono']['peak_delta_bytes'] / 1e6:.1f} MB / "
        f"{peak['mono']['seconds']:.3f} s, tiled "
        f"{peak['tiled']['peak_delta_bytes'] / 1e6:.1f} MB / "
        f"{peak['tiled']['seconds']:.3f} s -> {peak['peak_ratio']:.2f}x less peak",
        flush=True,
    )

    print(f"== spill round-trip {SPILL_WORKLOAD}", flush=True)
    spill = _bench_spill(SPILL_WORKLOAD)
    print(
        f"   grid {spill['grid'][0]}x{spill['grid'][1]}, "
        f"{spill['spilled_tiles']} tiles spilled "
        f"({spill['spilled_bytes'] / 1e3:.1f} kB), identity "
        f"{'ok' if spill['identical'] else 'FAIL'}",
        flush=True,
    )

    print(f"== identity x semirings {SPILL_WORKLOAD}", flush=True)
    identity = _check_identity(SPILL_WORKLOAD)
    print(
        f"   {'ok' if all(identity.values()) else 'FAIL'} "
        f"({len(identity)} semirings)",
        flush=True,
    )

    print(f"== planner tile regret {peak_wname}", flush=True)
    regret = _bench_planner_regret(peak_wname, budget, reps)
    print(
        f"   planner {regret['planner_s'] * 1e3:.1f} ms "
        f"(grid rows={regret['planner_tile_rows']} cols={regret['planner_tile_cols']}), "
        f"best sweep {regret['best_grid']} {regret['best_s'] * 1e3:.1f} ms -> "
        f"regret {regret['regret']:.2f}x",
        flush=True,
    )

    metrics = {
        "mono_peak_delta_mb": peak["mono"]["peak_delta_bytes"] / 1e6,
        "tiled_peak_delta_mb": peak["tiled"]["peak_delta_bytes"] / 1e6,
        "peak_ratio": peak["peak_ratio"],
        "mono_s": peak["mono"]["seconds"],
        "tiled_s": peak["tiled"]["seconds"],
        "tiled_slowdown": peak["tiled_slowdown"],
        "memory_budget_mb": budget / 1e6,
        "spilled_tiles": float(spill["spilled_tiles"]),
        "planner_tile_regret": regret["regret"],
    }
    acceptance = {
        "identity_all": all(identity.values()) and peak["identical_product"],
        "spill_roundtrip": spill["identical"] and spill["spilled_tiles"] > 0,
        "tiled_under_budget": quick
        or peak["tiled"]["peak_delta_bytes"] <= budget,
        "mono_over_budget": quick
        or peak["mono"]["peak_delta_bytes"] > budget,
    }
    return new_result(
        "tiled",
        quick=quick,
        reps=reps,
        workloads=[peak_wname, SPILL_WORKLOAD],
        metrics=metrics,
        acceptance=acceptance,
        payload={
            "peak": peak,
            "spill": spill,
            "identity": identity,
            "planner_regret": regret,
        },
    )


register_suite(
    Suite(
        name="tiled",
        description=(
            "tiled out-of-core engine: peak-RSS vs. monolithic pb under a "
            "memory budget, spill round-trip, bit-identity per semiring, "
            "and planner tile-size regret"
        ),
        runner=run,
        figures=("ISSUE 9 acceptance (out-of-core multiply under budget)",),
        workloads={"quick": QUICK_WORKLOADS, "full": FULL_WORKLOADS},
        artifact="BENCH_tiled.json",
        default_reps=3,
        checks=(
            AcceptanceCheck("bit_identity", "identity_all", "true"),
            AcceptanceCheck("spill_roundtrip", "spill_roundtrip", "true"),
            AcceptanceCheck("tiled_under_budget", "tiled_under_budget", "true"),
            AcceptanceCheck("mono_over_budget", "mono_over_budget", "true"),
            AcceptanceCheck(
                "planner_regret",
                "planner_tile_regret",
                "le",
                MAX_PLANNER_REGRET,
                full_only=True,
            ),
        ),
        payload_sections=("peak", "spill", "identity", "planner_regret"),
    )
)
