"""``planner`` suite: auto-tuning regret against a measured oracle.

Measures how close :mod:`repro.planner` gets to an oracle that already
timed every distinct registered kernel, on an ER / R-MAT / surrogate sweep
(C = A*A); see DESIGN.md §10:

* **oracle** — every distinct registered kernel timed (the panel once,
  as ``hash``), fastest wins;
* **model regret** — ``plan()`` with a fresh cache and a quick machine
  calibration; regret = time(pick) / oracle time (the full-run bar
  keys on the mean);
* **feedback regret** — all measured runtimes recorded into the plan
  cache, same shape re-planned; the steady-state regret a repeated
  workload sees (the acceptance bar keys on this);
* **overhead** — warm ``plan()`` seconds as a fraction of the multiply.

Committed baseline: repo-root ``BENCH_planner.json``.
"""

from __future__ import annotations

import time

import numpy as np

from ...generators import erdos_renyi, rmat, surrogate
from ...kernels.dispatch import ALGORITHMS, distinct_algorithms
from ...planner import PlanCache, calibrate, plan
from ...semiring import PLUS_TIMES
from ..registry import AcceptanceCheck, Suite, register_suite
from ..schema import BenchResult, new_result
from . import best_of

QUICK_WORKLOADS = ("er_s10_ef8", "rmat_s9_ef8", "cage12_x002")
FULL_WORKLOADS = ("er_s12_ef16", "rmat_s12_ef8", "cage12_x015")


def _workloads(quick: bool):
    if quick:
        return [
            ("er_s10_ef8", lambda: erdos_renyi(1 << 10, 8, seed=1, fmt="csr")),
            ("rmat_s9_ef8", lambda: rmat(9, 8, seed=1).to_csr()),
            ("cage12_x002", lambda: surrogate("cage12", scale_factor=0.02, seed=1)),
        ]
    return [
        ("er_s12_ef16", lambda: erdos_renyi(1 << 12, 16, seed=1, fmt="csr")),
        ("rmat_s12_ef8", lambda: rmat(12, 8, seed=1).to_csr()),
        ("cage12_x015", lambda: surrogate("cage12", scale_factor=0.15, seed=1)),
    ]


def _bench_workload(b_csr, profile, reps: int) -> dict:
    a_csc = b_csr.to_csc()

    # Oracle: measure every distinct registered kernel on this input.
    times = {}
    for name in distinct_algorithms():
        times[name] = best_of(
            lambda f=ALGORITHMS[name].func: f(a_csc, b_csr, semiring=PLUS_TIMES), reps
        )
    oracle_algorithm = min(times, key=times.get)
    oracle_s = times[oracle_algorithm]

    # Model pick: fresh (memory-only) cache, so nothing is remembered.
    cache = PlanCache(cache_dir=None)
    t0 = time.perf_counter()
    model_plan = plan(a_csc, b_csr, profile=profile, cache=cache)
    cold_plan_s = time.perf_counter() - t0
    model_regret = times[model_plan.algorithm] / oracle_s

    # Feedback: record every measured runtime, re-plan the same shape.
    for name, seconds in times.items():
        cache.record_feedback(model_plan.cache_key, name, seconds)
    feedback_plan = plan(a_csc, b_csr, profile=profile, cache=cache)
    feedback_regret = times[feedback_plan.algorithm] / oracle_s

    # Overhead: warm plan (cache hit — no sampling) vs. the multiply.
    warm_plan_s = best_of(
        lambda: plan(a_csc, b_csr, profile=profile, cache=cache), reps
    )
    overhead_fraction = warm_plan_s / oracle_s

    return {
        "shape": list(b_csr.shape),
        "nnz": int(b_csr.nnz),
        "algorithm_s": times,
        "oracle_algorithm": oracle_algorithm,
        "oracle_s": oracle_s,
        "model_pick": model_plan.algorithm,
        "model_regret": model_regret,
        "model_predicted_s": model_plan.predicted_seconds,
        "feedback_pick": feedback_plan.algorithm,
        "feedback_source": feedback_plan.source,
        "feedback_regret": feedback_regret,
        "cold_plan_s": cold_plan_s,
        "warm_plan_s": warm_plan_s,
        "overhead_fraction": overhead_fraction,
    }


def _extract(workloads, results):
    """Metric mapping from the suite's raw sections."""
    metrics: dict = {}
    for w in workloads:
        r = results[w]
        metrics[f"{w}.model_regret"] = r["model_regret"]
        metrics[f"{w}.feedback_regret"] = r["feedback_regret"]
        metrics[f"{w}.overhead_fraction"] = r["overhead_fraction"]
        metrics[f"{w}.oracle_s"] = r["oracle_s"]
        metrics[f"{w}.warm_plan_s"] = r["warm_plan_s"]
    rows = [results[w] for w in workloads]
    metrics["mean_model_regret"] = float(np.mean([r["model_regret"] for r in rows]))
    metrics["mean_feedback_regret"] = float(
        np.mean([r["feedback_regret"] for r in rows])
    )
    metrics["max_overhead_fraction"] = float(
        max(r["overhead_fraction"] for r in rows)
    )
    acceptance = {
        "feedback_converged": all(
            r["feedback_pick"] == r["oracle_algorithm"] for r in rows
        ),
        "picks_registered": all(
            r[f] in ALGORITHMS
            for r in rows
            for f in ("oracle_algorithm", "model_pick", "feedback_pick")
        ),
    }
    return metrics, acceptance


def run(quick: bool = False, reps: int = 3) -> BenchResult:
    profile = calibrate(quick=True, measure_pool=False)
    workloads, results = [], {}
    for name, make in _workloads(quick):
        print(f"== workload {name}", flush=True)
        b = make()
        workloads.append(name)
        r = results[name] = _bench_workload(b, profile, reps)
        print(
            f"   oracle {r['oracle_algorithm']} {r['oracle_s'] * 1e3:.1f}ms, "
            f"model pick {r['model_pick']} ({r['model_regret']:.2f}x), "
            f"feedback pick {r['feedback_pick']} ({r['feedback_regret']:.2f}x), "
            f"overhead {r['overhead_fraction'] * 100:.1f}%",
            flush=True,
        )
    metrics, acceptance = _extract(workloads, results)
    return new_result(
        "planner",
        quick=quick,
        reps=reps,
        workloads=workloads,
        metrics=metrics,
        acceptance=acceptance,
        payload={"results": results},
        extra_meta={
            "profile_fingerprint": profile.fingerprint(),
            "profile": profile.to_dict(),
        },
    )


register_suite(
    Suite(
        name="planner",
        description=(
            "auto-tuning planner regret vs. a measured oracle over every "
            "registered algorithm, plus warm-plan overhead"
        ),
        runner=run,
        figures=("Conclusion (PB vs. column kernels, chosen per input)",),
        workloads={"quick": QUICK_WORKLOADS, "full": FULL_WORKLOADS},
        artifact="BENCH_planner.json",
        default_reps=3,
        checks=(
            AcceptanceCheck(
                "model_regret_bar",
                "mean_model_regret",
                "le",
                1.5,
                full_only=True,
            ),
            AcceptanceCheck(
                "feedback_regret_bar",
                "mean_feedback_regret",
                "le",
                1.25,
                full_only=True,
            ),
            AcceptanceCheck(
                "overhead_budget",
                "max_overhead_fraction",
                "le",
                0.05,
                full_only=True,
            ),
            AcceptanceCheck("feedback_converged", "feedback_converged", "true"),
        ),
        payload_sections=("results",),
    )
)
