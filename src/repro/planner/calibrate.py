"""One-time machine calibration: measured kernel costs → a persisted profile.

The planner prices each candidate from the measured throughput of the
code that would run it (DESIGN.md §10), not from the simulator's cycle
constants.  :func:`calibrate` times three kernel families on two small
products of different compression factor and fits two costs per
family, one per flop (expanded tuple) and one per output entry:

* **pb** — :func:`repro.core.pb_spgemm.pb_spgemm` on one thread, as this
  host runs it (the compiled pipeline when the engine builds, numpy
  otherwise); ``pb``, ``tiled`` and ``sharded`` run it,
* **panel** — :func:`repro.kernels.hash_spgemm` on its default panel
  backend, which ``heap``, ``hash``, ``hashvec`` and ``spa`` all
  dispatch to,
* **esc** — :func:`repro.kernels.esc_column_spgemm`.

It also measures the copy rate (what tiling and sharding restream at)
and the process-pool spawn and warm-dispatch latencies (paid per
multiply by a standalone ``PBConfig(executor="process")`` call, once
per :class:`repro.session.Session`).

The result is a :class:`MachineProfile` persisted as JSON under the
plan-cache directory (``repro calibrate``).  Without one,
:func:`default_profile` derives the same numbers from a preset's copy
rate (:data:`PRESET_COPY_BYTES`), so planning measures nothing.
``calibrate(quick=True)`` uses smaller products and finishes in a few
seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..machine.presets import get_machine

PROFILE_FILENAME = "profile.json"
#: v6 replaced the simulator's rates (triad, scatter, radix, latency,
#: effective clock, column Mtuples/s) with measured per-flop and
#: per-output costs of each kernel family.  Stale profiles recalibrate,
#: never migrate: any other version is rejected, :func:`load_profile`
#: warns, and the planner uses the presets until the next
#: ``repro calibrate``.
PROFILE_SCHEMA_VERSION = 6

#: The kernel families a profile prices (see the module docstring).
FAMILIES = ("pb", "panel", "esc")

#: Per-family (per-flop, per-output) costs for the presets, measured
#: with ``calibrate()`` on a 2-vCPU x86-64 host (compiled tier, median
#: of four full calibrations, copy rate 17.9 GB/s) and stored as the
#: bytes that host copies in the same time.  A preset's cost in ns is
#: these bytes over its copy rate in GB/s.
PRESET_COPY_BYTES = {
    "pb": (463.0, 0.0),
    "panel": (380.0, 730.0),
    "esc": (3170.0, 0.0),
}

#: Sanity clamp on the measured copy rate: a wildly off benchmark
#: (noisy CI container, throttled laptop) must not poison every ranking.
_BANDWIDTH_BOUNDS_GBS = (0.5, 500.0)


@dataclass(frozen=True)
class MachineProfile:
    """Calibrated (or preset-derived) costs of the kernels that run."""

    source: str  # "calibrated" | "preset:<name>"
    quick: bool
    copy_gbs: float
    pb_flop_ns: float
    pb_out_ns: float
    panel_flop_ns: float
    panel_out_ns: float
    esc_flop_ns: float
    esc_out_ns: float
    pool_startup_s: float
    warm_dispatch_s: float
    created_unix: float
    schema_version: int = PROFILE_SCHEMA_VERSION

    def kernel_seconds(self, family: str, flop: float, nnz_c: float) -> float:
        """Predicted one-thread seconds of ``family`` on one product."""
        t_flop = getattr(self, f"{family}_flop_ns")
        t_out = getattr(self, f"{family}_out_ns")
        return (float(flop) * t_flop + float(nnz_c) * t_out) * 1e-9

    def fingerprint(self) -> str:
        """Stable short hash identifying this profile in plan-cache keys.

        ``created_unix`` is excluded so re-saving identical numbers does
        not invalidate previously cached plans.
        """
        payload = {k: v for k, v in asdict(self).items() if k != "created_unix"}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MachineProfile":
        if not isinstance(data, dict):
            raise ValueError("profile payload must be a JSON object")
        if data.get("schema_version") != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"profile schema_version must be {PROFILE_SCHEMA_VERSION}, "
                f"got {data.get('schema_version')!r}"
            )
        types = {"str": str, "bool": bool, "float": (int, float)}
        kwargs = {}
        for f in fields(cls):
            if f.name == "schema_version":
                continue
            value = data.get(f.name)
            if not isinstance(value, types[f.type]):
                raise ValueError(f"profile field {f.name!r} missing or mistyped")
            kwargs[f.name] = value
        return cls(**kwargs)


def _clamp(x: float, bounds: tuple[float, float]) -> float:
    return float(min(max(x, bounds[0]), bounds[1]))


def _median_of(fn, reps: int) -> float:
    fn()  # warm-up: page the arrays in, load any compiled code
    times = []
    for _ in range(max(1, reps)):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def _measure_copy(quick: bool, seed: int) -> float:
    """STREAM-convention copy rate (GB/s) of ``b := a`` far beyond LLC."""
    n = 2_000_000 if quick else 16_000_000
    src = np.random.default_rng(seed).random(n)
    dst = np.empty_like(src)
    t = _median_of(lambda: np.copyto(dst, src), 2 if quick else 4)
    return _clamp(16.0 * n / t / 1e9, _BANDWIDTH_BOUNDS_GBS)


def _calibration_products(quick: bool, seed: int) -> list:
    """Two squarings of different compression factor: ER at edge factor
    16 (cf ≈ 1) and R-MAT at edge factor 16 (cf ≈ 3), as
    ``(a_csc, b_csr, flop, nnz_c)``."""
    from ..core.pb_spgemm import pb_spgemm
    from ..generators import erdos_renyi, rmat

    er_scale, rmat_scale = (11, 10) if quick else (12, 11)
    products = []
    for b in (
        erdos_renyi(1 << er_scale, 16, seed=seed, fmt="csr"),
        rmat(rmat_scale, 16, seed=seed).to_csr(),
    ):
        a = b.to_csc()
        flop = int((a.col_nnz() * b.row_nnz()).sum())
        products.append((a, b, flop, pb_spgemm(a, b).nnz))
    return products


def _measure_family(family: str, products: list, reps: int) -> list:
    """``(flop, nnz_c, seconds)`` of ``family`` on each product."""
    from ..core.pb_spgemm import pb_spgemm
    from ..kernels.esc_column import esc_column_spgemm
    from ..kernels.hash_spgemm import hash_spgemm

    kernel = {"pb": pb_spgemm, "panel": hash_spgemm, "esc": esc_column_spgemm}[family]
    return [
        (flop, nnz_c, _median_of(lambda: kernel(a, b), reps))
        for a, b, flop, nnz_c in products
    ]


def _fit_costs(samples: list) -> tuple[float, float]:
    """Non-negative (per-flop, per-output) seconds fitting ``samples``.

    Least squares over ``(flop, nnz_c, seconds)`` rows; when the exact
    fit needs a negative cost (noise on two near-collinear products),
    the better of the two one-term fits is kept instead.
    """
    x = np.array([[f, o] for f, o, _ in samples], dtype=np.float64)
    y = np.array([s for _, _, s in samples], dtype=np.float64)
    coef = np.linalg.lstsq(x, y, rcond=None)[0]
    if (coef >= 0.0).all():
        return float(coef[0]), float(coef[1])
    best = None
    for j in range(2):
        col = x[:, j]
        c = float(col @ y / max(col @ col, 1e-30))
        resid = float(np.sum((y - c * col) ** 2))
        if best is None or resid < best[0]:
            best = (resid, j, c)
    out = [0.0, 0.0]
    out[best[1]] = best[2]
    return out[0], out[1]


#: Estimates used when the pool cannot (or should not) be measured:
#: spawn of a 2-worker pool, and one warm round-trip.  On platforms
#: without shared memory no process candidate is ever selected, so the
#: numbers only keep the profile schema complete.
_POOL_STARTUP_ESTIMATE_S = 0.5
_WARM_DISPATCH_ESTIMATE_S = 2e-3


def _measure_pool() -> tuple[float, float]:
    """(spawn seconds, warm dispatch seconds) of a 2-worker pool.

    Spawn is the one-time price of bringing a pool up — a standalone
    ``PBConfig(executor="process")`` multiply pays it every call (it
    spawns and tears down its own engine), while a
    :class:`repro.session.Session` pays it once and amortizes it over
    every subsequent multiply.  Warm dispatch is what those subsequent
    multiplies pay instead: the round-trip of submitting a no-op task
    to the already-running workers.  Both are measured on the same
    engine so they describe the same pool.
    """
    from ..parallel import process_backend_available
    from ..parallel.executor import ProcessEngine

    if not process_backend_available():
        return _POOL_STARTUP_ESTIMATE_S, _WARM_DISPATCH_ESTIMATE_S
    t = time.perf_counter()
    engine = ProcessEngine(2)
    try:
        engine.warm_up()
        startup = time.perf_counter() - t
        warm = engine.dispatch_latency(reps=3)
    finally:
        engine.close()
    return startup, warm


def calibrate(
    quick: bool = False,
    measure_pool: bool = True,
    seed: int = 0,
) -> MachineProfile:
    """Run the measurements and return a calibrated profile.

    ``quick=True`` shrinks every working set so the whole run finishes
    in a few seconds (the ``repro calibrate --quick`` CI path); numbers
    are noisier but still this machine's, not a preset's.
    """
    copy_gbs = _measure_copy(quick, seed)
    products = _calibration_products(quick, seed)
    costs = {}
    for family in FAMILIES:
        t_flop, t_out = _fit_costs(
            _measure_family(family, products, 3 if quick else 5)
        )
        costs[f"{family}_flop_ns"] = t_flop * 1e9
        costs[f"{family}_out_ns"] = t_out * 1e9
    if measure_pool:
        pool_startup_s, warm_dispatch_s = _measure_pool()
    else:
        pool_startup_s = _POOL_STARTUP_ESTIMATE_S
        warm_dispatch_s = _WARM_DISPATCH_ESTIMATE_S
    return MachineProfile(
        source="calibrated",
        quick=quick,
        copy_gbs=copy_gbs,
        pool_startup_s=pool_startup_s,
        warm_dispatch_s=warm_dispatch_s,
        created_unix=time.time(),
        **costs,
    )


def default_profile(base_preset: str = "laptop") -> MachineProfile:
    """Preset fallback used whenever no calibration has been saved."""
    copy_gbs = get_machine(base_preset).stream_single.copy
    costs = {}
    for family, (flop_bytes, out_bytes) in PRESET_COPY_BYTES.items():
        costs[f"{family}_flop_ns"] = flop_bytes / copy_gbs
        costs[f"{family}_out_ns"] = out_bytes / copy_gbs
    return MachineProfile(
        source=f"preset:{base_preset}",
        quick=False,
        copy_gbs=copy_gbs,
        pool_startup_s=_POOL_STARTUP_ESTIMATE_S,
        warm_dispatch_s=_WARM_DISPATCH_ESTIMATE_S,
        created_unix=0.0,
        **costs,
    )


def profile_path(cache_dir: str | os.PathLike) -> str:
    return os.path.join(os.fspath(cache_dir), PROFILE_FILENAME)


def save_profile(profile: MachineProfile, cache_dir: str | os.PathLike) -> str:
    """Persist a profile under ``cache_dir`` (atomic replace)."""
    path = profile_path(cache_dir)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(profile.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_profile(cache_dir: str | os.PathLike) -> MachineProfile | None:
    """Load a saved profile; corrupt or missing files degrade to None.

    A truncated or hand-mangled ``profile.json`` must never crash a
    multiply: the failure is reported as a ``RuntimeWarning`` and the
    caller regenerates (preset fallback or a fresh calibration).
    """
    path = profile_path(cache_dir)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            return MachineProfile.from_dict(json.load(fh))
    except (OSError, ValueError, TypeError) as exc:
        warnings.warn(
            f"ignoring corrupt machine profile at {path}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
