"""``hotpath`` suite: counting-scatter hot-path kernels vs. their ablations.

Times every ablatable hot-path kernel introduced by the
counting-scatter PR against its pre-optimization counterpart, on ER and
R-MAT inputs (see DESIGN.md §9):

* **expand** — arena writes at flop-prefix offsets vs. chunk list +
  ``np.concatenate``;
* **distribute** — fused pack+counting placement vs. stable-argsort
  placement;
* **sort** — the per-bin phase comparison (pack + byte-argsort vs.
  counting-scatter radix on pre-packed keys) and the pure kernel
  comparison on identical packed keys;
* **end-to-end** — the full PB pipeline, legacy config vs. default,
  with per-phase stopwatch seconds;
* **identity** — legacy and new pipelines bit-identical per semiring.

Committed baseline: repo-root ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import time

import numpy as np

from ...core import PBConfig
from ...core.binning import (
    distribute_packed,
    distribute_to_bins,
    pack_keys,
    plan_bins,
)
from ...core.pb_spgemm import pb_spgemm_detailed
from ...core.symbolic import symbolic_phase
from ...generators import erdos_renyi, rmat
from ...kernels.outer_expand import expand_arena, expand_chunks
from ...kernels.radix import sort_tuples
from ...semiring import available_semirings
from ..registry import AcceptanceCheck, Suite, register_suite
from ..schema import BenchResult, new_result
from . import best_of

#: Config snapshot of the pre-optimization pipeline (every flag legacy).
LEGACY = dict(
    sort_backend="argsort", distribute_backend="argsort", expand_backend="concat"
)

QUICK_WORKLOADS = ("er_s10_ef8", "rmat_s9_ef8")
FULL_WORKLOADS = ("er_s16_ef16", "rmat_s14_ef8")


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


def _bench_kernels(b_csr, reps: int) -> dict:
    """Kernel-level ablations on one squared input (C = A*A)."""
    a_csc = b_csr.to_csc()
    cfg = PBConfig()
    sym = symbolic_phase(a_csc, b_csr, cfg)
    layout = plan_bins(
        a_csc.shape[0], b_csr.shape[1], sym.nbins, sym.rows_per_bin, cfg
    )

    def run_arena():
        return expand_arena(a_csc, b_csr, per_k=sym.flops_per_k)

    def run_concat():
        chunks = list(expand_chunks(a_csc, b_csr))
        return (
            np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]),
            np.concatenate([c[2] for c in chunks]),
        )

    arena_s = best_of(run_arena, reps)
    concat_s = best_of(run_concat, reps)
    rows, cols, vals = run_arena()

    counting_s = best_of(
        lambda: distribute_packed(layout, rows, cols, vals, method="counting"), reps
    )
    argsort_s = best_of(
        lambda: distribute_to_bins(layout, rows, cols, vals, method="argsort"), reps
    )

    keys, bvals, starts = distribute_packed(layout, rows, cols, vals)
    brows, bcols, bvals_l, starts_l = distribute_to_bins(
        layout, rows, cols, vals, method="argsort"
    )
    spans = [
        (int(starts[i]), int(starts[i + 1]))
        for i in range(layout.nbins)
        if starts[i + 1] > starts[i]
    ]

    def sort_kernel(backend: str):
        for lo, hi in spans:
            sort_tuples(
                keys[lo:hi], bvals[lo:hi], key_bits=layout.key_bits, backend=backend
            )

    def sort_phase_old():
        # Faithful pre-optimization sort phase: pack each bin's
        # (row, col) pairs, then byte-argsort radix — both were per-bin
        # work inside ``_sort_and_compress_bin``.
        for i in range(layout.nbins):
            lo, hi = int(starts_l[i]), int(starts_l[i + 1])
            if lo == hi:
                continue
            k = pack_keys(layout, brows[lo:hi], bcols[lo:hi])
            sort_tuples(
                k, bvals_l[lo:hi], key_bits=layout.key_bits, backend="argsort"
            )

    sort = {
        "phase_old_pack_argsort_s": best_of(sort_phase_old, reps),
        "phase_new_radix_s": best_of(lambda: sort_kernel("radix"), reps),
        "kernel_argsort_s": best_of(lambda: sort_kernel("argsort"), reps),
        "kernel_radix_s": best_of(lambda: sort_kernel("radix"), reps),
        "kernel_mergesort_s": best_of(lambda: sort_kernel("mergesort"), reps),
    }
    sort["phase_speedup"] = sort["phase_old_pack_argsort_s"] / sort["phase_new_radix_s"]
    sort["kernel_speedup"] = sort["kernel_argsort_s"] / sort["kernel_radix_s"]

    return {
        "stats": {
            "flop": int(sym.flop),
            "nbins": int(layout.nbins),
            "key_bits": int(layout.key_bits),
            "tuples": int(len(rows)),
        },
        "expand": {
            "arena_s": arena_s,
            "concat_s": concat_s,
            "speedup": concat_s / arena_s,
        },
        "distribute": {
            "counting_s": counting_s,
            "argsort_s": argsort_s,
            "speedup": argsort_s / counting_s,
        },
        "sort": sort,
    }


def _bench_end_to_end(b_csr, reps: int) -> dict:
    a_csc = b_csr.to_csc()
    out: dict = {}
    for label, cfg in (
        ("legacy", PBConfig(**LEGACY)),
        ("new", PBConfig()),
    ):
        best, phases = None, None
        pb_spgemm_detailed(a_csc, b_csr, config=cfg)  # warm-up
        for _ in range(max(1, reps)):
            t = time.perf_counter()
            res = pb_spgemm_detailed(a_csc, b_csr, config=cfg)
            dt = time.perf_counter() - t
            if best is None or dt < best:
                best, phases = dt, dict(res.phase_seconds)
        out[f"{label}_s"] = best
        out[f"{label}_phases"] = phases
    out["speedup"] = out["legacy_s"] / out["new_s"]
    return out


def _check_identity(b_csr) -> dict:
    """Bit-identity of legacy vs. new pipelines, per built-in semiring."""
    a_csc = b_csr.to_csc()
    out = {}
    for name in available_semirings():
        old = pb_spgemm_detailed(a_csc, b_csr, semiring=name, config=PBConfig(**LEGACY)).c
        new = pb_spgemm_detailed(a_csc, b_csr, semiring=name, config=PBConfig()).c
        out[name] = bool(
            np.array_equal(old.indptr, new.indptr)
            and np.array_equal(old.indices, new.indices)
            and np.array_equal(old.data, new.data)
        )
    return out


def _extract(workloads, kernels, end_to_end, identity):
    """Metric mapping from the suite's raw sections."""
    metrics: dict = {}
    phases: dict = {}
    for w in workloads:
        k = kernels[w]
        metrics[f"{w}.expand.speedup"] = k["expand"]["speedup"]
        metrics[f"{w}.distribute.speedup"] = k["distribute"]["speedup"]
        metrics[f"{w}.sort.phase_speedup"] = k["sort"]["phase_speedup"]
        metrics[f"{w}.sort.kernel_speedup"] = k["sort"]["kernel_speedup"]
        e = end_to_end[w]
        metrics[f"{w}.end_to_end.speedup"] = e["speedup"]
        metrics[f"{w}.end_to_end.new_s"] = e["new_s"]
        metrics[f"{w}.end_to_end.legacy_s"] = e["legacy_s"]
        phases[w] = dict(e["new_phases"])
    primary = workloads[0]
    metrics["sort_phase_speedup"] = kernels[primary]["sort"]["phase_speedup"]
    metrics["end_to_end_speedup"] = end_to_end[primary]["speedup"]
    acceptance = {
        "identity_all": all(ok for w in identity.values() for ok in w.values())
    }
    return metrics, acceptance, phases


def run(quick: bool = False, reps: int = 3) -> BenchResult:
    workloads, kernels, end_to_end, identity = [], {}, {}, {}
    for name, make in _workloads(quick):
        print(f"== workload {name}", flush=True)
        b = make()
        workloads.append(name)
        kernels[name] = _bench_kernels(b, reps)
        end_to_end[name] = _bench_end_to_end(b, reps)
        identity[name] = _check_identity(b)
        k, e = kernels[name], end_to_end[name]
        print(
            f"   sort phase {k['sort']['phase_speedup']:.2f}x "
            f"(kernel {k['sort']['kernel_speedup']:.2f}x), "
            f"expand {k['expand']['speedup']:.2f}x, "
            f"distribute {k['distribute']['speedup']:.2f}x, "
            f"end-to-end {e['speedup']:.2f}x, "
            f"identity {'ok' if all(identity[name].values()) else 'FAIL'}",
            flush=True,
        )
    metrics, acceptance, phases = _extract(workloads, kernels, end_to_end, identity)
    return new_result(
        "hotpath",
        quick=quick,
        reps=reps,
        workloads=workloads,
        metrics=metrics,
        acceptance=acceptance,
        phases=phases,
        payload={
            "kernels": kernels,
            "end_to_end": end_to_end,
            "identity": identity,
        },
    )


register_suite(
    Suite(
        name="hotpath",
        description=(
            "counting-scatter hot-path kernels (expand/distribute/sort) and "
            "the end-to-end PB pipeline vs. their pre-optimization ablations"
        ),
        runner=run,
        figures=("Fig. 5 (local-bin protocol)", "Table III (phase costs)"),
        workloads={"quick": QUICK_WORKLOADS, "full": FULL_WORKLOADS},
        artifact="BENCH_hotpath.json",
        default_reps=3,
        checks=(
            AcceptanceCheck(
                "sort_phase_floor", "sort_phase_speedup", "ge", 1.5, full_only=True
            ),
            AcceptanceCheck(
                "end_to_end_floor", "end_to_end_speedup", "ge", 1.2, full_only=True
            ),
            AcceptanceCheck("bit_identity", "identity_all", "true"),
        ),
        payload_sections=("kernels", "end_to_end", "identity"),
    )
)
