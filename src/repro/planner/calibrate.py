"""One-time machine calibration: micro-benchmarks → a persisted profile.

The cost model's predictions are only as good as its machine numbers.
Rather than trusting a preset (:mod:`repro.machine.presets`) to describe
whatever box the library actually runs on, :func:`calibrate` measures
four effective rates with short numpy micro-benchmarks:

* **copy / triad bandwidth** — what the expand and compress phases
  stream at (the paper's Table V role),
* **scatter rate** — random cache-line writes, from which an effective
  DRAM latency is derived (the irregular-access side of Table II),
* **radix throughput** — tuples/s of the real counting-scatter sort
  (:func:`repro.kernels.radix.radix_sort_pairs`), from which an
  *effective clock* is derived so the model's cycle constants
  (:mod:`repro.costmodel.compute`) translate to seconds on this core,
* **column-kernel throughput** — tuples/s of the real panel-vectorized
  column kernel (:func:`repro.kernels.hash_spgemm` on a small ER
  product, as it runs by default: compiled when the engine builds,
  numpy otherwise), from which
  :meth:`MachineProfile.column_compute_scale` rescales the accumulator
  cycle constants, so column candidates are priced on the kernel that
  actually runs,
* **process-pool startup and warm dispatch** — the fixed price of
  spawning a worker pool (paid once per pool: per multiply for a
  standalone ``PBConfig(executor="process")`` call, once per
  :class:`repro.session.Session` lifetime for session multiplies) and
  the round-trip latency of dispatching a task to an *already warm*
  pool.  The ranker charges cold candidates the spawn cost and
  warm-session candidates only the dispatch latency.

The result is a :class:`MachineProfile` persisted as JSON under the
plan-cache directory (``repro calibrate``); :func:`default_profile`
wraps a preset when no calibration is available, so planning always
works.  ``calibrate(quick=True)`` sizes the benchmarks to finish in a
few seconds so tests exercise real calibration instead of mocking it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from ..costmodel import compute as C
from ..kernels.radix import passes_for_bits, radix_sort_pairs
from ..machine.presets import get_machine
from ..machine.spec import MachineSpec, StreamTable

PROFILE_FILENAME = "profile.json"
#: v2 added ``column_mtuples_s`` (measured panel column-kernel rate);
#: v3 added ``warm_dispatch_s`` (round-trip latency of a task on an
#: already-spawned pool, for session-aware warm pricing); v4 added
#: ``jit_scatter_mtuples_s`` (compiled-tier sort rate); v5 dropped it
#: again and times ``column_mtuples_s`` on the column kernel as it runs
#: by default.  Stale profiles recalibrate, never migrate: any other
#: version is rejected, :func:`load_profile` warns, and the planner
#: uses the presets until the next ``repro calibrate``.
PROFILE_SCHEMA_VERSION = 5

#: Sanity clamps: a wildly off micro-benchmark (noisy CI container,
#: throttled laptop) must not poison every subsequent ranking.
_CLOCK_BOUNDS_GHZ = (0.05, 8.0)
_LATENCY_BOUNDS_NS = (40.0, 400.0)
_BANDWIDTH_BOUNDS_GBS = (0.5, 500.0)


@dataclass(frozen=True)
class MachineProfile:
    """Calibrated (or preset-derived) machine performance numbers."""

    base_preset: str  # geometry donor: "laptop" | "skylake" | "power9"
    source: str  # "calibrated" | "preset"
    quick: bool
    copy_gbs: float
    triad_gbs: float
    scatter_gbs: float
    radix_mtuples_s: float
    column_mtuples_s: float
    effective_clock_ghz: float
    dram_latency_ns: float
    pool_startup_s: float
    warm_dispatch_s: float
    created_unix: float
    schema_version: int = PROFILE_SCHEMA_VERSION

    def column_compute_scale(self) -> float:
        """Multiplier mapping the model's accumulator cycle constants to
        this machine's *measured* column-kernel throughput.

        The cost model charges ``HASH_CYCLES_PER_FLOP`` cycles per tuple
        (:func:`repro.costmodel.bytes_model.column_phase_costs`); the
        measured panel kernel processes ``column_mtuples_s`` Mtuples/s at
        ``effective_clock_ghz``, i.e. ``clock * 1e3 / rate`` cycles per
        tuple.  The ratio rescales every accumulator constant at ranking
        time.  Preset profiles derive ``column_mtuples_s`` so this is
        exactly 1.0 (the untouched paper model).
        """
        measured_cycles = (
            self.effective_clock_ghz * 1e3 / max(self.column_mtuples_s, 1e-9)
        )
        return measured_cycles / C.HASH_CYCLES_PER_FLOP

    def fingerprint(self) -> str:
        """Stable short hash identifying this profile in plan-cache keys.

        ``created_unix`` is excluded so re-saving identical numbers does
        not invalidate previously cached plans.
        """
        payload = {k: v for k, v in asdict(self).items() if k != "created_unix"}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def machine_spec(self) -> MachineSpec:
        """The :class:`MachineSpec` the cost model should rank against.

        Preset profiles return the preset untouched (bit-for-bit the
        Table IV/V machine).  Calibrated profiles keep the preset's
        cache/core *geometry* — micro-benchmarks cannot observe
        topology — and substitute every measured rate.  The dual-socket
        STREAM table is scaled by the preset's own dual/single ratio.
        """
        base = get_machine(self.base_preset)
        if self.source == "preset":
            return base
        single = StreamTable(
            copy=self.copy_gbs,
            scale=self.copy_gbs,
            add=self.triad_gbs,
            triad=self.triad_gbs,
        )
        ratio = base.stream_dual.copy / max(base.stream_single.copy, 1e-9)
        dual = StreamTable(
            copy=self.copy_gbs * ratio,
            scale=self.copy_gbs * ratio,
            add=self.triad_gbs * ratio,
            triad=self.triad_gbs * ratio,
        )
        return base.with_measurements(
            name=f"calibrated_{self.base_preset}",
            stream_single=single,
            stream_dual=dual,
            per_core_bandwidth_gbs=self.copy_gbs,
            dram_latency_ns=self.dram_latency_ns,
            clock_ghz=self.effective_clock_ghz,
        )

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
        fields = {
            "base_preset": str,
            "source": str,
            "quick": bool,
            "copy_gbs": (int, float),
            "triad_gbs": (int, float),
            "scatter_gbs": (int, float),
            "radix_mtuples_s": (int, float),
            "column_mtuples_s": (int, float),
            "effective_clock_ghz": (int, float),
            "dram_latency_ns": (int, float),
            "pool_startup_s": (int, float),
            "warm_dispatch_s": (int, float),
            "created_unix": (int, float),
        }
        kwargs = {}
        for name, types in fields.items():
            if name not in data or not isinstance(data[name], types):
                raise ValueError(f"profile field {name!r} missing or mistyped")
            kwargs[name] = data[name]
        return cls(**kwargs)


def _clamp(x: float, bounds: tuple[float, float]) -> float:
    return float(min(max(x, bounds[0]), bounds[1]))


def _best_of(fn, reps: int) -> float:
    fn()  # warm-up: page the arrays in
    best = float("inf")
    for _ in range(max(1, reps)):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


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
    base_preset: str = "laptop",
    measure_pool: bool = True,
    seed: int = 0,
) -> MachineProfile:
    """Run the micro-benchmarks and return a calibrated profile.

    ``quick=True`` shrinks every working set so the whole run finishes
    in a few seconds (the ``repro calibrate --quick`` CI path); numbers
    are noisier but still this machine's, not a preset's.
    """
    rng = np.random.default_rng(seed)
    n = 2_000_000 if quick else 16_000_000
    reps = 2 if quick else 4

    # Streaming: copy (b := a) and STREAM "add" (a := b + c; numpy has
    # no fused scale-add without a temporary, and add moves the same
    # 3 × 8 bytes per element as triad).  STREAM byte-counting
    # convention: 2 and 3 touched arrays respectively.
    src = rng.random(n)
    dst = np.empty_like(src)
    t_copy = _best_of(lambda: np.copyto(dst, src), reps)
    copy_gbs = _clamp(16.0 * n / t_copy / 1e9, _BANDWIDTH_BOUNDS_GBS)

    c2 = rng.random(n)
    t_triad = _best_of(lambda: np.add(src, c2, out=dst), reps)
    triad_gbs = _clamp(24.0 * n / t_triad / 1e9, _BANDWIDTH_BOUNDS_GBS)

    # Scatter: random 8-byte stores over a working set far beyond LLC.
    # Effective latency assumes `mlp` overlapped line fills per core.
    idx = rng.permutation(n)
    t_scatter = _best_of(lambda: dst.__setitem__(idx, src), reps)
    scatter_gbs = _clamp(16.0 * n / t_scatter / 1e9, _BANDWIDTH_BOUNDS_GBS)
    base = get_machine(base_preset)
    lines_per_s = n / t_scatter
    dram_latency_ns = _clamp(base.mlp / lines_per_s * 1e9, _LATENCY_BOUNDS_NS)

    # Radix throughput on the real kernel → effective clock, by charging
    # the cost model's own cycles (byte passes × cycles/pass) per tuple.
    ns = 1_000_000 if quick else 4_000_000
    keys = rng.integers(0, 1 << 32, size=ns, dtype=np.uint64).astype(np.uint32)
    vals = rng.random(ns)
    t_radix = _best_of(lambda: radix_sort_pairs(keys, vals, key_bits=32), reps)
    radix_mtuples_s = ns / t_radix / 1e6
    model_cycles = C.PB_SORT_CYCLES_PER_FLOP_PER_PASS * passes_for_bits(32)
    effective_clock_ghz = _clamp(
        model_cycles * ns / t_radix / 1e9, _CLOCK_BOUNDS_GHZ
    )

    # Column-kernel throughput on the real panel hash kernel as it runs
    # by default (compiled when the engine builds): a small ER product,
    # priced in tuples (flop) per second.  The untimed first call of
    # _best_of pays any compile/load.
    from ..generators import erdos_renyi
    from ..kernels.hash_spgemm import hash_spgemm
    from ..kernels.outer_expand import column_flops

    g = erdos_renyi(1 << (10 if quick else 12), 8, seed=seed, fmt="csr")
    ca, cb = g.to_csc(), g
    col_flop = int(column_flops(ca, cb.to_csc()).sum())
    t_col = _best_of(lambda: hash_spgemm(ca, cb), reps)
    column_mtuples_s = max(col_flop, 1) / t_col / 1e6

    if measure_pool:
        pool_startup_s, warm_dispatch_s = _measure_pool()
    else:
        pool_startup_s = _POOL_STARTUP_ESTIMATE_S
        warm_dispatch_s = _WARM_DISPATCH_ESTIMATE_S

    return MachineProfile(
        base_preset=base_preset,
        source="calibrated",
        quick=quick,
        copy_gbs=copy_gbs,
        triad_gbs=triad_gbs,
        scatter_gbs=scatter_gbs,
        radix_mtuples_s=radix_mtuples_s,
        column_mtuples_s=column_mtuples_s,
        effective_clock_ghz=effective_clock_ghz,
        dram_latency_ns=dram_latency_ns,
        pool_startup_s=pool_startup_s,
        warm_dispatch_s=warm_dispatch_s,
        created_unix=time.time(),
    )


def default_profile(base_preset: str = "laptop") -> MachineProfile:
    """Preset fallback used whenever no calibration has been saved."""
    base = get_machine(base_preset)
    # Derived so the preset profile and a calibration of a machine that
    # exactly matched the preset would rank candidates identically.
    radix_mtuples_s = (
        base.clock_ghz
        * 1e3
        / (C.PB_SORT_CYCLES_PER_FLOP_PER_PASS * passes_for_bits(32))
    )
    # Derived so column_compute_scale() is exactly 1.0 — the preset
    # profile prices column kernels with the untouched paper constants.
    column_mtuples_s = base.clock_ghz * 1e3 / C.HASH_CYCLES_PER_FLOP
    return MachineProfile(
        base_preset=base_preset,
        source="preset",
        quick=False,
        copy_gbs=base.stream_single.copy,
        triad_gbs=base.stream_single.triad,
        scatter_gbs=base.line_bytes * base.mlp / base.dram_latency_ns,
        radix_mtuples_s=radix_mtuples_s,
        column_mtuples_s=column_mtuples_s,
        effective_clock_ghz=base.clock_ghz,
        dram_latency_ns=base.dram_latency_ns,
        pool_startup_s=_POOL_STARTUP_ESTIMATE_S,
        warm_dispatch_s=_WARM_DISPATCH_ESTIMATE_S,
        created_unix=0.0,
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
