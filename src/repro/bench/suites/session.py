"""``session`` suite: persistent-session amortization and pipelining.

Measures what :class:`repro.session.Session` amortizes away from
``PBConfig(executor="process")`` (see DESIGN.md §12):

* **amortization** — per-multiply wall time vs. call index on a
  small-matrix workload where pool spawn dominates compute: *cold*
  (each call spawns and tears down its own pool + arenas) against
  *warm* (one session; call 0 pays the spawn, the steady state reuses
  the pool and recycles arenas);
* **pipeline** — pipelined vs. barriered bin processing inside one warm
  session on the paper-scale inputs;
* **identity** — session products (pipelined schedule) bit-identical to
  ``executor="serial"`` for every built-in semiring;
* **hygiene** — arena-pool counters after the warm loop: every lease
  released, recycling hits observed, exactly one pool spawn.

The pool serves only the numpy pipeline, so every row runs with the
compiled tier switched off (:func:`repro.kernels.jit.disabled`).

Committed baseline: repo-root ``BENCH_session.json``.
"""

from __future__ import annotations

import time

import numpy as np

import repro

from ...core import PBConfig
from ...generators import erdos_renyi, rmat
from ...kernels import jit
from ...semiring import available_semirings
from ...session import Session
from ..registry import AcceptanceCheck, Suite, register_suite
from ..schema import BenchResult, new_result
from . import timed

#: Noise-tolerant amortization floor enforced on every run; the
#: committed full-run artifact is additionally held to the 1.5x bar.
MIN_WARM_SPEEDUP = 1.2

#: Full-run amortization bar from the persistent-sessions PR.
FULL_WARM_SPEEDUP = 1.5

AMORT_WORKLOAD = "er_s9_ef4"
QUICK_WORKLOADS = (AMORT_WORKLOAD, "er_s10_ef8", "rmat_s9_ef8")
FULL_WORKLOADS = (AMORT_WORKLOAD, "er_s16_ef16", "rmat_s14_ef8")


def _amortization_workload(quick: bool):
    # Deliberately small either way: this is the configuration where
    # pool spawn dominates compute, which is what a session amortizes.
    return (AMORT_WORKLOAD, lambda: erdos_renyi(1 << 9, 4, seed=11, fmt="csr"))


def _pipeline_workloads(quick: bool):
    if quick:
        return [
            ("er_s10_ef8", lambda: erdos_renyi(1 << 10, 8, seed=1, fmt="csr")),
            ("rmat_s9_ef8", lambda: rmat(9, 8, seed=1).to_csr()),
        ]
    return [
        ("er_s16_ef16", lambda: erdos_renyi(1 << 16, 16, seed=1, fmt="csr")),
        ("rmat_s14_ef8", lambda: rmat(14, 8, seed=1).to_csr()),
    ]


def _proc_config(**kw) -> PBConfig:
    kw.setdefault("executor", "process")
    kw.setdefault("nthreads", 2)
    return PBConfig(**kw)


def _bench_amortization(b_csr, cold_calls: int, warm_calls: int) -> dict:
    """Per-call times, standalone (cold) vs. one session (warm)."""
    a_csc = b_csr.to_csc()
    cfg = _proc_config()

    cold_times = []
    for _ in range(cold_calls):
        t = time.perf_counter()
        repro.multiply(a_csc, b_csr, config=cfg)
        cold_times.append(time.perf_counter() - t)

    warm_times = []
    with Session(cfg) as s:
        for _ in range(warm_calls):
            t = time.perf_counter()
            s.multiply(a_csc, b_csr)
            warm_times.append(time.perf_counter() - t)
        pool_stats = s.arena_pool.stats()
        spawns = s._engine.spawn_count
    steady = warm_times[1:] or warm_times

    return {
        "cold_calls": cold_calls,
        "warm_calls": warm_calls,
        "cold_per_call_s": cold_times,
        "warm_per_call_s": warm_times,
        "cold_mean_s": float(np.mean(cold_times)),
        "warm_first_call_s": warm_times[0],
        "warm_steady_mean_s": float(np.mean(steady)),
        "warm_speedup": float(np.mean(cold_times) / np.mean(steady)),
        "engine_spawns": int(spawns),
        "arena_pool": pool_stats,
    }


def _bench_pipeline(b_csr, reps: int) -> dict:
    """Pipelined vs. barriered bin processing on one warm session."""
    a_csc = b_csr.to_csc()
    out: dict = {}
    for label, pipeline in (("pipelined", "auto"), ("barrier", "barrier")):
        cfg = _proc_config(pipeline=pipeline)
        with Session(cfg, warm=True) as s:
            s.multiply(a_csc, b_csr)  # warm arenas + page caches
            best = min(
                timed(lambda: s.multiply(a_csc, b_csr)) for _ in range(max(1, reps))
            )
        out[f"{label}_s"] = best
    out["overlap_speedup"] = out["barrier_s"] / out["pipelined_s"]
    return out


def _check_identity(b_csr) -> dict:
    """Session (pipelined) vs. serial, bit-exact, per built-in semiring."""
    a_csc = b_csr.to_csc()
    out = {}
    with Session(_proc_config()) as s:
        for name in available_semirings():
            serial = repro.multiply(a_csc, b_csr, semiring=name, config=PBConfig())
            warm = s.multiply(a_csc, b_csr, semiring=name)
            out[name] = bool(
                np.array_equal(serial.indptr, warm.indptr)
                and np.array_equal(serial.indices, warm.indices)
                and serial.data.tobytes() == warm.data.tobytes()
            )
    return out


def _extract(amortization, pipeline, identity):
    """Metric mapping from the suite's raw sections."""
    am = amortization
    metrics = {
        "warm_speedup": am["warm_speedup"],
        "cold_mean_s": am["cold_mean_s"],
        "warm_steady_mean_s": am["warm_steady_mean_s"],
        "warm_first_call_s": am["warm_first_call_s"],
    }
    for w, p in pipeline.items():
        metrics[f"{w}.overlap_speedup"] = p["overlap_speedup"]
        metrics[f"{w}.pipelined_s"] = p["pipelined_s"]
        metrics[f"{w}.barrier_s"] = p["barrier_s"]
    pool = am["arena_pool"]
    acceptance = {
        "identity_all": all(ok for w in identity.values() for ok in w.values()),
        "single_spawn": am["engine_spawns"] == 1,
        "arena_leases_all_released": pool.get("released") == pool.get("leases")
        and pool.get("leases", 0) > 0,
        "arena_recycling": pool.get("hits", 0) > 0,
    }
    return metrics, acceptance


def run(quick: bool = False, reps: int = 3) -> BenchResult:
    name, make = _amortization_workload(quick)
    print(f"== amortization {name}", flush=True)
    b = make()
    cold_calls, warm_calls = (3, 8) if quick else (10, 100)
    with jit.disabled():
        amortization = {"workload": name, **_bench_amortization(b, cold_calls, warm_calls)}
    print(
        f"   cold {amortization['cold_mean_s'] * 1e3:.1f} ms/call, warm steady "
        f"{amortization['warm_steady_mean_s'] * 1e3:.1f} ms/call -> "
        f"{amortization['warm_speedup']:.2f}x (first warm call "
        f"{amortization['warm_first_call_s'] * 1e3:.1f} ms, "
        f"{amortization['engine_spawns']} spawn)",
        flush=True,
    )
    with jit.disabled():
        identity = {name: _check_identity(b)}
    print(
        f"   identity {'ok' if all(identity[name].values()) else 'FAIL'}",
        flush=True,
    )

    pipeline = {}
    workloads = [name]
    for wname, wmake in _pipeline_workloads(quick):
        print(f"== pipeline {wname}", flush=True)
        workloads.append(wname)
        with jit.disabled():
            pipeline[wname] = _bench_pipeline(wmake(), reps)
        p = pipeline[wname]
        print(
            f"   barrier {p['barrier_s']:.3f} s, pipelined "
            f"{p['pipelined_s']:.3f} s -> {p['overlap_speedup']:.2f}x",
            flush=True,
        )

    metrics, acceptance = _extract(amortization, pipeline, identity)
    return new_result(
        "session",
        quick=quick,
        reps=reps,
        workloads=workloads,
        metrics=metrics,
        acceptance=acceptance,
        payload={
            "amortization": amortization,
            "pipeline": pipeline,
            "identity": identity,
        },
    )


register_suite(
    Suite(
        name="session",
        description=(
            "persistent-session amortization (cold vs. warm per-call time), "
            "pipelined vs. barriered bins, and bit-identity vs. serial"
        ),
        runner=run,
        figures=("Fig. 11-13 (end-to-end scaling, warm-pool protocol)",),
        workloads={"quick": QUICK_WORKLOADS, "full": FULL_WORKLOADS},
        artifact="BENCH_session.json",
        default_reps=3,
        checks=(
            AcceptanceCheck("warm_floor", "warm_speedup", "ge", MIN_WARM_SPEEDUP),
            AcceptanceCheck(
                "warm_full_bar", "warm_speedup", "ge", FULL_WARM_SPEEDUP,
                full_only=True,
            ),
            AcceptanceCheck("bit_identity", "identity_all", "true"),
            AcceptanceCheck("single_spawn", "single_spawn", "true"),
            AcceptanceCheck(
                "arena_hygiene", "arena_leases_all_released", "true"
            ),
            AcceptanceCheck("arena_recycling", "arena_recycling", "true"),
        ),
        payload_sections=("amortization", "pipeline", "identity"),
    )
)
