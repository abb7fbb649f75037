"""``sharded`` suite: the block core across processes vs. in one process.

Measures what :mod:`repro.core.sharded` buys over :mod:`repro.core.tiled`
— the same block core (DESIGN.md §16), run with one worker process per
row panel instead of in process: under a fixed *per-process* memory
budget, one tiled process must carve a fine grid and spill staged
tiles, while N shard processes each fit coarse tiles inside their own
copy of the budget and stream them to the parent for merge — the
aggregate grant is N x budget, and the win is wall-clock, not just
peak.

* **speedup** — wall time of the 4-shard sharded multiply vs. the
  single-process tiled engine, both under the same per-process budget
  on the ISSUE workload (ER scale 15, edge factor 16).  The acceptance
  bar is the ISSUE floor: ``sharded_speedup >= 1.5`` on full runs;
* **per-shard peak RSS** — every shard's ``ru_maxrss`` delta (measured
  inside the worker process, operands attached via shared memory) must
  stay within the per-shard budget plus a fixed headroom for the
  touched broadcast pages and allocator slack;
* **identity** — sharded bit-identical to the monolithic serial path
  for every built-in semiring, on a real multi-shard topology;
* **recovery** — a shard SIGKILLed at startup is recomputed in the
  parent with a ``RuntimeWarning``, and the product stays bit-identical.

Committed baseline: repo-root ``BENCH_sharded.json``.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings

import numpy as np

import repro

from ...core import PBConfig
from ...core.sharded import FAULT_ENV, sharded_spgemm_detailed
from ...core.tiled import tiled_spgemm_detailed
from ...generators import erdos_renyi
from ...semiring import available_semirings
from ..registry import AcceptanceCheck, Suite, register_suite
from ..schema import BenchResult, new_result

#: Per-process budget for the full head-to-head.  Sized so the ISSUE
#: workload's single-process tiled run is forced onto a fine spilling
#: grid while each of the four shards fits coarse tiles in its own
#: copy (tuned against measured grids: tiled 8x8 with spills vs. one
#: panel per shard).
FULL_BUDGET = 40 * 1024 * 1024

#: Quick-run budget for the reduced workload (perf floors are
#: full-only; quick just exercises the machinery end to end).
QUICK_BUDGET = 2 * 1024 * 1024

#: ISSUE floor: 4-shard sharded at least this much faster than the
#: single-process tiled engine under the same per-process budget.
MIN_SPEEDUP = 1.5

FULL_SHARDS = 4
QUICK_SHARDS = 2

#: Per-shard RSS acceptance headroom over the budget: the worker's
#: ``ru_maxrss`` delta includes the touched shared-memory broadcast
#: pages (A plus its B panels) and allocator slack, which the budget —
#: a *working set* bound — does not charge for.
RSS_HEADROOM = 1.5

FULL_WORKLOAD = "er_s15_ef16"
QUICK_WORKLOAD = "er_s11_ef8"
IDENTITY_WORKLOAD = "er_s9_ef4"

_WORKLOADS = {
    FULL_WORKLOAD: lambda: erdos_renyi(1 << 15, 16, seed=7, fmt="csr"),
    QUICK_WORKLOAD: lambda: erdos_renyi(1 << 11, 8, seed=7, fmt="csr"),
    IDENTITY_WORKLOAD: lambda: erdos_renyi(1 << 9, 4, seed=8, fmt="csr"),
}


def _bit_identical(c, ref) -> bool:
    return bool(
        np.array_equal(ref.indptr, c.indptr)
        and np.array_equal(ref.indices, c.indices)
        and ref.data.tobytes() == c.data.tobytes()
    )


def _bench_head_to_head(wname: str, shards: int, budget: int, reps: int) -> dict:
    """Single-process tiled vs. sharded under one per-process budget."""
    b_csr = _WORKLOADS[wname]()
    a_csc = b_csr.to_csc()
    reps = max(1, reps)

    tiled_s = float("inf")
    tiled_grid = None
    tiled_spills = 0
    nnz_tiled = 0
    for _ in range(reps):
        t = time.perf_counter()
        res = tiled_spgemm_detailed(
            a_csc, b_csr, config=PBConfig(memory_budget=budget)
        )
        tiled_s = min(tiled_s, time.perf_counter() - t)
        tiled_grid = [res.grid.grid_rows, res.grid.grid_cols]
        tiled_spills = res.spilled_tiles
        nnz_tiled = int(res.c.nnz)
        checksum_tiled = float(res.c.data.sum())

    sharded_s = float("inf")
    detail = None
    for _ in range(reps):
        t = time.perf_counter()
        res = sharded_spgemm_detailed(
            a_csc, b_csr, config=PBConfig(shards=shards, memory_budget=budget)
        )
        elapsed = time.perf_counter() - t
        if elapsed < sharded_s:
            sharded_s = elapsed
            detail = res

    shard_rss = [int(s.peak_rss_bytes) for s in detail.shard_stats]
    return {
        "workload": wname,
        "shards": shards,
        "memory_budget_bytes": budget,
        "tiled_s": tiled_s,
        "tiled_grid": tiled_grid,
        "tiled_spilled_tiles": tiled_spills,
        "sharded_s": sharded_s,
        "speedup": tiled_s / sharded_s,
        "fallback": detail.fallback,
        "plan": detail.plan.describe() if detail.plan is not None else None,
        "broadcast_bytes": int(detail.broadcast_bytes),
        "returned_bytes": int(detail.returned_bytes),
        "shard_peak_rss_bytes": shard_rss,
        "max_shard_peak_rss_bytes": max(shard_rss, default=0),
        "identical_product": nnz_tiled == int(detail.c.nnz)
        and checksum_tiled == float(detail.c.data.sum()),
    }


def _check_identity(wname: str, shards: int) -> dict:
    """Sharded on a real multi-shard topology vs. serial pb, per semiring."""
    b_csr = _WORKLOADS[wname]()
    a_csc = b_csr.to_csc()
    n = b_csr.shape[1]
    cfg = PBConfig(shards=shards, tile_cols=max(1, (n + 2) // 3))
    out = {}
    for name in available_semirings():
        expect = repro.pb_spgemm(a_csc, b_csr, semiring=name)
        res = sharded_spgemm_detailed(a_csc, b_csr, name, cfg)
        out[name] = res.fallback is None and _bit_identical(res.c, expect)
    return out


def _check_recovery(wname: str, shards: int) -> dict:
    """SIGKILL one shard at startup; the parent must recompute its panel."""
    b_csr = _WORKLOADS[wname]()
    a_csc = b_csr.to_csc()
    expect = repro.pb_spgemm(a_csc, b_csr)
    os.environ[FAULT_ENV] = f"start:{shards - 1}"
    try:
        with tempfile.TemporaryDirectory(
            prefix="repro-bench-sharded-"
        ) as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = sharded_spgemm_detailed(
                a_csc, b_csr, config=PBConfig(shards=shards, spill_dir=tmp)
            )
            orphans = [f for f in os.listdir(tmp) if f.endswith(".npz")]
    finally:
        del os.environ[FAULT_ENV]
    return {
        "workload": wname,
        "recovered_shards": res.recovered_shards,
        "warned": any(issubclass(w.category, RuntimeWarning) for w in caught),
        "orphaned_stage_files": len(orphans),
        "identical": _bit_identical(res.c, expect),
    }


def run(quick: bool = False, reps: int = 3) -> BenchResult:
    wname = QUICK_WORKLOAD if quick else FULL_WORKLOAD
    budget = QUICK_BUDGET if quick else FULL_BUDGET
    shards = QUICK_SHARDS if quick else FULL_SHARDS

    print(
        f"== head-to-head {wname} ({shards} shards, "
        f"budget {budget // (1 << 20)} MB per process)",
        flush=True,
    )
    head = _bench_head_to_head(wname, shards, budget, reps)
    print(
        f"   tiled {head['tiled_s']:.3f} s "
        f"(grid {head['tiled_grid'][0]}x{head['tiled_grid'][1]}, "
        f"{head['tiled_spilled_tiles']} spills), sharded "
        f"{head['sharded_s']:.3f} s -> {head['speedup']:.2f}x, max shard RSS "
        f"{head['max_shard_peak_rss_bytes'] / 1e6:.1f} MB",
        flush=True,
    )

    print(f"== identity x semirings {IDENTITY_WORKLOAD}", flush=True)
    identity = _check_identity(IDENTITY_WORKLOAD, QUICK_SHARDS)
    print(
        f"   {'ok' if all(identity.values()) else 'FAIL'} "
        f"({len(identity)} semirings)",
        flush=True,
    )

    print(f"== crash recovery {IDENTITY_WORKLOAD}", flush=True)
    recovery = _check_recovery(IDENTITY_WORKLOAD, QUICK_SHARDS)
    print(
        f"   recovered {recovery['recovered_shards']} shard(s), "
        f"{recovery['orphaned_stage_files']} orphaned stage files, identity "
        f"{'ok' if recovery['identical'] else 'FAIL'}",
        flush=True,
    )

    metrics = {
        "tiled_s": head["tiled_s"],
        "sharded_s": head["sharded_s"],
        "sharded_speedup": head["speedup"],
        "shards": float(shards),
        "memory_budget_mb": budget / 1e6,
        "max_shard_peak_rss_mb": head["max_shard_peak_rss_bytes"] / 1e6,
        "broadcast_mb": head["broadcast_bytes"] / 1e6,
        "returned_mb": head["returned_bytes"] / 1e6,
        "tiled_spilled_tiles": float(head["tiled_spilled_tiles"]),
    }
    acceptance = {
        "identity_all": all(identity.values()) and head["identical_product"],
        "no_fallback": head["fallback"] is None,
        "recovery": recovery["identical"]
        and recovery["recovered_shards"] == 1
        and recovery["warned"]
        and recovery["orphaned_stage_files"] == 0,
        "shard_rss_under_budget": quick
        or head["max_shard_peak_rss_bytes"] <= budget * RSS_HEADROOM,
    }
    return new_result(
        "sharded",
        quick=quick,
        reps=reps,
        workloads=[wname, IDENTITY_WORKLOAD],
        metrics=metrics,
        acceptance=acceptance,
        payload={
            "head_to_head": head,
            "identity": identity,
            "recovery": recovery,
        },
    )


register_suite(
    Suite(
        name="sharded",
        description=(
            "multi-process sharded tiled engine: wall-clock vs. the "
            "single-process tiled path under one per-process memory "
            "budget, per-shard peak RSS, bit-identity per semiring, and "
            "crash recovery"
        ),
        runner=run,
        figures=("ISSUE 10 acceptance (sharded speedup under per-shard budget)",),
        workloads={
            "quick": (QUICK_WORKLOAD, IDENTITY_WORKLOAD),
            "full": (FULL_WORKLOAD, IDENTITY_WORKLOAD),
        },
        artifact="BENCH_sharded.json",
        default_reps=3,
        checks=(
            AcceptanceCheck("bit_identity", "identity_all", "true"),
            AcceptanceCheck("no_fallback", "no_fallback", "true"),
            AcceptanceCheck("crash_recovery", "recovery", "true"),
            AcceptanceCheck(
                "shard_rss_under_budget", "shard_rss_under_budget", "true"
            ),
            AcceptanceCheck(
                "sharded_speedup",
                "sharded_speedup",
                "ge",
                MIN_SPEEDUP,
                full_only=True,
            ),
        ),
        payload_sections=("head_to_head", "identity", "recovery"),
    )
)
