"""The planner front door: ``plan(a, b, ...) -> Plan``.

Dataflow (DESIGN.md §10)::

    sketch (cheap tier) ──► cache key ──► hit?  ──► Plan(source=cache/feedback)
                                            │miss
    sketch (deep tier: sampled cf) ──► rank all algorithms against the
    calibrated profile ──► tuned winner ──► cache.put ──► Plan(source=model)

A :class:`Plan` is a fully inspectable record: the chosen algorithm,
the resolved :class:`~repro.core.config.PBConfig` (with the tuned tile
grid or shard count applied), the predicted seconds and peak bytes,
and every candidate's score with a why-rejected reason.
``repro.multiply(..., algorithm="auto")`` executes one; so does
``repro.kernels.spgemm(a, b, algorithm=plan)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.config import PBConfig
from ..errors import PlannerError
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .cache import PlanCache, default_cache, plan_key
from .calibrate import MachineProfile, default_profile, load_profile
from .cost import CandidateScore, rank
from .sketch import Sketch, deepen, sketch

#: Environment fallback for the planner's persistent state directory.
CACHE_DIR_ENV = "REPRO_PLAN_CACHE_DIR"


@dataclass(frozen=True)
class Plan:
    """An executable, inspectable multiplication plan."""

    algorithm: str
    semiring: str
    executor: str
    nthreads: int
    config: PBConfig | None  # resolved config, overrides applied (None if untuned)
    overrides: dict
    predicted_seconds: float
    source: str  # "model" | "cache" | "feedback"
    cache_key: str
    profile_fingerprint: str
    sketch: Sketch
    candidates: tuple[CandidateScore, ...] = ()

    def to_dict(self) -> dict:
        """JSON-able dump (``repro plan --json``)."""
        return {
            "algorithm": self.algorithm,
            "semiring": self.semiring,
            "executor": self.executor,
            "nthreads": self.nthreads,
            "overrides": dict(self.overrides),
            "predicted_seconds": self.predicted_seconds,
            "source": self.source,
            "cache_key": self.cache_key,
            "profile_fingerprint": self.profile_fingerprint,
            "sketch": self.sketch.to_dict(),
            "candidates": [c.to_dict() for c in self.candidates],
        }

    def explain(self) -> str:
        """Human-readable decision table (what ``repro plan`` prints)."""
        sk = self.sketch
        lines = [
            f"plan: {self.algorithm} ({self.executor}x{self.nthreads})  "
            f"[source={self.source}]",
            f"  input : {sk.m}x{sk.k} * {sk.k}x{sk.n}, "
            f"nnz(A)={sk.nnz_a}, nnz(B)={sk.nnz_b}, flop={sk.flop}"
            + (f", cf~{sk.cf:.2f}" if sk.cf is not None else "")
            + f", skew={sk.skew:.1f}",
            f"  pred  : {self.predicted_seconds * 1e3:.3f} ms",
        ]
        if self.overrides:
            knobs = ", ".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
            lines.append(f"  knobs : {knobs}")
        if self.candidates:
            lines.append("  candidates:")
            width = max(len(c.algorithm) for c in self.candidates)
            for c in self.candidates:
                note = c.reason or "chosen"
                lines.append(
                    f"    {c.algorithm:<{width}}  "
                    f"{c.predicted_seconds * 1e3:10.3f} ms  "
                    f"({c.executor}x{c.nthreads})  {note}"
                )
        return "\n".join(lines)


def resolve_cache_dir(config: PBConfig | None) -> str | None:
    """``config.plan_cache_dir`` → ``$REPRO_PLAN_CACHE_DIR`` → None."""
    if config is not None and config.plan_cache_dir is not None:
        return config.plan_cache_dir
    return os.environ.get(CACHE_DIR_ENV) or None


def resolve_profile(cache_dir: str | None) -> MachineProfile:
    """Saved calibration if present, else the preset model."""
    if cache_dir is not None:
        prof = load_profile(cache_dir)
        if prof is not None:
            return prof
    return default_profile()


#: Override keys the ranker may emit that translate to PBConfig fields.
#: Anything else in an overrides dict (a hand-edited cache record, or
#: one written when the ranker still emitted other keys, such as the
#: per-phase numpy backends, the column-kernel backend or the Fig. 6
#: knobs
#: ``nbins`` / ``local_bin_bytes``) is dropped rather than crashing
#: ``with_`` or pinning a knob nothing priced.
_OVERRIDE_KEYS = ("tile_rows", "tile_cols", "shards")


def _known_overrides(overrides: dict) -> dict:
    return {k: v for k, v in overrides.items() if k in _OVERRIDE_KEYS}


def _pins(cfg: PBConfig) -> dict:
    """The config knobs that change what the ranker prices."""
    return {k: getattr(cfg, k) for k in _OVERRIDE_KEYS if getattr(cfg, k) is not None}


def _resolved_config(base: PBConfig | None, overrides: dict) -> PBConfig:
    cfg = base or PBConfig()
    valid = _known_overrides(overrides)
    return cfg.with_(**valid) if valid else cfg


def plan(
    a,
    b,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    profile: MachineProfile | None = None,
    cache: PlanCache | None = None,
    seed: int = 0,
    warm_pool: bool = False,
) -> Plan:
    """Turn one multiply request into an executable :class:`Plan`.

    Deterministic for fixed inputs: the sketch sampler is seeded
    (``seed``), the preset profile is constant, and ranking breaks ties
    by algorithm name.

    Parameters mirror :func:`repro.multiply`; ``a`` / ``b`` accept
    anything the front door accepts (CSC/CSR preferred — other formats
    are converted here for sketching only).  ``warm_pool=True`` (set by
    the session front door when its pool is already running) prices
    process candidates at warm-dispatch latency instead of pool-spawn
    cost, under its own cache key.
    """
    a_csc = a if isinstance(a, CSCMatrix) else a.to_csc()
    b_csr = b if isinstance(b, CSRMatrix) else b.to_csr()
    sr = get_semiring(semiring)
    cfg = config or PBConfig()
    cache_dir = resolve_cache_dir(config)
    if profile is None:
        profile = resolve_profile(cache_dir)
    if cache is None:
        cache = default_cache(cache_dir)

    from ..core.pb_spgemm import compiled_blocker
    from ..parallel.executor import uses_workers

    dtypes = (a_csc.data.dtype, b_csr.data.dtype)
    process_ok = uses_workers(cfg, sr, dtypes)
    threads_ok = compiled_blocker(cfg, sr, dtypes) is None
    if process_ok:
        executor_req = "process"
    elif threads_ok and cfg.nthreads > 1:
        executor_req = "threads"
    else:
        executor_req = "serial"

    warm = bool(warm_pool) and process_ok
    sk = sketch(a_csc, b_csr, seed=seed)
    key = plan_key(
        sk,
        profile,
        sr.name,
        executor_req,
        cfg.nthreads,
        warm=warm,
        budget=cfg.memory_budget,
        pins=_pins(cfg),
    )

    rec = cache.get(key)
    if rec is not None:
        overrides = _known_overrides(rec.get("overrides", {}))
        algorithm = rec["algorithm"]
        return Plan(
            algorithm=algorithm,
            semiring=sr.name,
            executor=rec.get("executor", executor_req),
            nthreads=int(rec.get("nthreads", cfg.nthreads)),
            config=(
                _resolved_config(config, overrides)
                if (algorithm == "pb" or overrides)
                else None
            ),
            overrides=overrides,
            predicted_seconds=float(rec.get("predicted_seconds", 0.0)),
            source=rec.get("source", "cache"),
            cache_key=key,
            profile_fingerprint=profile.fingerprint(),
            sketch=sk,
            candidates=tuple(
                CandidateScore.from_dict(c) for c in rec.get("candidates", [])
            ),
        )

    # Cache miss: pay for the deep sketch (bounded sampling) + ranking.
    sk = deepen(sk, a_csc, b_csr)
    candidates = rank(
        a_csc,
        b_csr,
        sk,
        profile,
        cfg,
        process_ok=process_ok,
        warm_pool=warm,
        threads_ok=threads_ok,
    )
    if not candidates:
        raise PlannerError("no registered algorithms to plan over")
    winner = candidates[0]
    record = {
        "algorithm": winner.algorithm,
        "executor": winner.executor,
        "nthreads": winner.nthreads,
        "overrides": dict(winner.overrides),
        "predicted_seconds": winner.predicted_seconds,
        "candidates": [c.to_dict() for c in candidates],
        "sketch": sk.to_dict(),
    }
    cache.put(key, record)
    return Plan(
        algorithm=winner.algorithm,
        semiring=sr.name,
        executor=winner.executor,
        nthreads=winner.nthreads,
        # Column winners carry a config only when the ranker tuned a
        # knob for them; PB always carries the caller's config.
        config=(
            _resolved_config(config, winner.overrides)
            if (winner.algorithm == "pb" or winner.overrides)
            else None
        ),
        overrides=dict(winner.overrides),
        predicted_seconds=winner.predicted_seconds,
        source="model",
        cache_key=key,
        profile_fingerprint=profile.fingerprint(),
        sketch=sk,
        candidates=tuple(candidates),
    )
