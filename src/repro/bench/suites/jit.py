"""``jit`` suite: compiled hot-kernel tier vs. the numpy kernels.

Times the compiled tier (DESIGN.md §14) against the numpy code it
swaps out, on ER and R-MAT inputs:

* **panel** — end-to-end default ``hash_spgemm`` (the compiled panel)
  vs. the same call with the tier disabled (:func:`jit.disabled`: the
  numpy panel), the median ratio of :data:`ROUNDS` interleaved
  rounds;
* **pb end-to-end** — default serial PB on the compiled pipeline vs.
  the numpy pipeline with the tier disabled;
* **local bins** — the compiled pipeline with the paper's local bins
  (``use_local_bins=True``) vs. the default direct scatter, the median
  ratio of :data:`ROUNDS` interleaved rounds (the Fig. 5 ablation);
* **identity** — compiled PB and the compiled and numpy panel column
  kernel bit-identical to numpy PB, per semiring.

The suite records ``jit_engine`` / ``jit_available`` in its metadata so
stored trends from machines without a C compiler remain interpretable.
When no engine is available the suite still runs — every compiled
path falls back — and reports ~1.0x speedups; the full-run floors then
fail, which is the honest verdict.

Committed baseline: repo-root ``BENCH_jit.json``.
"""

from __future__ import annotations

import time

import numpy as np

from ...core import PBConfig
from ...core.pb_spgemm import pb_spgemm_detailed
from ...generators import erdos_renyi, rmat
from ...kernels import jit as jit_tier
from ...kernels.hash_spgemm import hash_spgemm
from ...semiring import available_semirings
from ..registry import AcceptanceCheck, Suite, register_suite
from ..schema import BenchResult, new_result
from . import bit_identical, timed

QUICK_WORKLOADS = ("er_s10_ef8", "rmat_s9_ef8")
FULL_WORKLOADS = ("er_s16_ef16", "rmat_s14_ef8")

#: Interleaved rounds behind ``panel_speedup`` and
#: ``local_bins_speedup``.
ROUNDS = 7


def _workloads(quick: bool):
    if quick:
        return [
            ("er_s10_ef8", lambda: erdos_renyi(1 << 10, 8, seed=1, fmt="csr")),
            ("rmat_s9_ef8", lambda: rmat(9, 8, seed=1).to_csr()),
        ]
    return [
        ("er_s16_ef16", lambda: erdos_renyi(1 << 16, 16, seed=1, fmt="csr")),
        ("rmat_s14_ef8", lambda: rmat(14, 8, seed=1).to_csr()),
    ]


def _time_pb(a_csc, b_csr, cfg, reps: int) -> tuple[float, dict, str]:
    """Best-of-``reps`` serial PB seconds, that run's phases, and the
    pipeline it ran on."""
    best, phases = None, None
    res = pb_spgemm_detailed(a_csc, b_csr, config=cfg)  # warm-up
    for _ in range(max(1, reps)):
        t = time.perf_counter()
        res = pb_spgemm_detailed(a_csc, b_csr, config=cfg)
        dt = time.perf_counter() - t
        if best is None or dt < best:
            best, phases = dt, dict(res.phase_seconds)
    return best, phases, res.pipeline


def _bench_end_to_end(b_csr, reps: int) -> dict:
    """Full-pipeline comparisons: compiled vs. numpy PB, local bins vs.
    direct scatter, compiled vs. numpy panel."""
    a_csc = b_csr.to_csc()
    out: dict = {}
    with jit_tier.disabled():
        numpy_run = _time_pb(a_csc, b_csr, PBConfig(), reps)
    runs = {
        "numpy": numpy_run,
        "jit": _time_pb(a_csc, b_csr, PBConfig(), reps),
    }
    for label, (best, phases, pipeline) in runs.items():
        out[f"pb_{label}_s"] = best
        out[f"pb_{label}_phases"] = phases
        out[f"pb_{label}_pipeline"] = pipeline
    out["pb_speedup"] = out["pb_numpy_s"] / out["pb_jit_s"]

    def pb(cfg):
        return lambda: timed(lambda: pb_spgemm_detailed(a_csc, b_csr, config=cfg))

    # > 1 when the paper's local bins pay for themselves over the
    # default direct scatter.
    direct_s, local_s = _rounds(pb(PBConfig()), pb(PBConfig(use_local_bins=True)))
    out.update(_summary("pb_direct_s", "pb_local_s", "pb_local_bins", direct_s, local_s))

    run = lambda: hash_spgemm(a_csc, b_csr)  # noqa: E731

    def numpy_panel():
        with jit_tier.disabled():
            return timed(run)

    numpy_s, jit_s = _rounds(numpy_panel, lambda: timed(run))
    out.update(_summary("panel_numpy_s", "panel_jit_s", "panel", numpy_s, jit_s))
    return out


def _rounds(base, other) -> tuple[list[float], list[float]]:
    """Seconds of ``base`` and ``other`` (each timing one call and
    returning its seconds) over :data:`ROUNDS` interleaved rounds,
    after one warm-up each.

    Both sides of a round see the same host state, so drift between
    rounds cancels in their ratio, and the median of seven rounds
    discards the outliers a best-of on each side would pair up.
    """
    base()
    other()
    base_s, other_s = [], []
    for _ in range(ROUNDS):
        base_s.append(base())
        other_s.append(other())
    return base_s, other_s


def _summary(base_key, other_key, label, base_s, other_s) -> dict:
    """Median seconds of each side, and the median of the per-round
    ``base / other`` ratios as ``{label}_speedup``."""
    ratios = [b / o for b, o in zip(base_s, other_s)]
    return {
        base_key: float(np.median(base_s)),
        other_key: float(np.median(other_s)),
        f"{label}_speedup": float(np.median(ratios)),
        f"{label}_round_speedups": ratios,
    }


def _check_identity(b_csr) -> dict:
    """semiring -> whether compiled PB and the compiled and numpy panel
    equal numpy PB bit for bit."""
    a_csc = b_csr.to_csc()
    out = {}
    for name in available_semirings():
        with jit_tier.disabled():
            ref = pb_spgemm_detailed(a_csc, b_csr, semiring=name).c
            numpy_panel = hash_spgemm(a_csc, b_csr, semiring=name)
        products = (
            numpy_panel,
            pb_spgemm_detailed(a_csc, b_csr, semiring=name).c,
            hash_spgemm(a_csc, b_csr, semiring=name),
        )
        out[name] = all(bit_identical(ref, c) for c in products)
    return out


def _extract(workloads, end_to_end, identity):
    metrics: dict = {}
    phases: dict = {}
    for w in workloads:
        e = end_to_end[w]
        metrics[f"{w}.pb.speedup"] = e["pb_speedup"]
        metrics[f"{w}.pb.jit_s"] = e["pb_jit_s"]
        metrics[f"{w}.pb.numpy_s"] = e["pb_numpy_s"]
        metrics[f"{w}.pb.direct_s"] = e["pb_direct_s"]
        metrics[f"{w}.pb.local_s"] = e["pb_local_s"]
        metrics[f"{w}.pb.local_bins_speedup"] = e["pb_local_bins_speedup"]
        metrics[f"{w}.panel.speedup"] = e["panel_speedup"]
        phases[w] = dict(e["pb_jit_phases"])
    primary = workloads[0]
    metrics["panel_end_to_end_speedup"] = end_to_end[primary]["panel_speedup"]
    metrics["pb_end_to_end_speedup"] = end_to_end[primary]["pb_speedup"]
    acceptance = {
        "identity_all": all(ok for w in identity.values() for ok in w.values())
    }
    return metrics, acceptance, phases


def run(quick: bool = False, reps: int = 3) -> BenchResult:
    warmup_s = jit_tier.warmup()  # compile/load off every timed section
    status = jit_tier.jit_status()
    print(
        f"== jit engine: {status['engine'] or 'none'} "
        f"(warmup {warmup_s * 1e3:.1f} ms)",
        flush=True,
    )
    workloads, end_to_end, identity = [], {}, {}
    for name, make in _workloads(quick):
        print(f"== workload {name}", flush=True)
        b = make()
        workloads.append(name)
        end_to_end[name] = _bench_end_to_end(b, reps)
        identity[name] = _check_identity(b)
        e = end_to_end[name]
        print(
            f"   panel {e['panel_speedup']:.2f}x, "
            f"pb {e['pb_speedup']:.2f}x "
            f"(local bins {e['pb_local_bins_speedup']:.2f}x), "
            f"identity {'ok' if all(identity[name].values()) else 'FAIL'}",
            flush=True,
        )
    metrics, acceptance, phases = _extract(workloads, end_to_end, identity)
    metrics["jit_available"] = float(bool(status["available"]))
    return new_result(
        "jit",
        quick=quick,
        reps=reps,
        workloads=workloads,
        metrics=metrics,
        acceptance=acceptance,
        phases=phases,
        payload={
            "end_to_end": end_to_end,
            "identity": identity,
        },
        extra_meta={
            "jit_engine": status["engine"],
            "jit_warmup_s": warmup_s,
        },
    )


register_suite(
    Suite(
        name="jit",
        description=(
            "compiled hot-kernel tier (the compiled PB pipeline and "
            "column panel) vs. the numpy kernels it swaps out"
        ),
        runner=run,
        figures=("Table III (phase costs)",),
        workloads={"quick": QUICK_WORKLOADS, "full": FULL_WORKLOADS},
        artifact="BENCH_jit.json",
        default_reps=3,
        checks=(
            AcceptanceCheck(
                "panel_floor",
                "panel_end_to_end_speedup",
                "ge",
                1.3,
                full_only=True,
            ),
            AcceptanceCheck(
                "pb_floor", "pb_end_to_end_speedup", "ge", 2.0, full_only=True
            ),
            AcceptanceCheck("bit_identity", "identity_all", "true"),
        ),
        payload_sections=("end_to_end", "identity"),
    )
)
