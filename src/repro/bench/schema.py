"""The shared benchmark result schema (``schema_version = 2``).

Every suite in :mod:`repro.bench` — the perf harnesses (``planner``,
``column``, ``session``, ``jit``, …) and the paper-figure drivers —
produces one :class:`BenchResult`.  The schema is deliberately small
and flat where it matters for regression gating:

* ``metrics``   — dotted-name → number.  Suite-level headline numbers
  (``pb_end_to_end_speedup``) plus per-workload detail
  (``er_s16_ef16.end_to_end.speedup``).  These are what
  :func:`repro.bench.compare_results` diffs between commits.
* ``acceptance`` — name → bool.  Correctness invariants (bit-identity,
  arena hygiene, planner convergence).  A ``True`` that turns ``False``
  between two results is always a gate failure, no tolerance applies.
* ``phases``    — workload → phase → seconds, taken from the pipeline's
  explicit per-phase stopwatches (``PBResult.phase_seconds``), so phase
  breakdowns are first-class rather than reinvented per harness.
* ``payload``   — the suite's full raw sections, preserved verbatim for
  forensics; the gate never reads it.

The four ``BENCH_*.json`` artifacts committed before this schema
existed were rewritten onto it once; their ``meta`` still records
``migrated_from_schema_version = 1`` and their machine fingerprints
carry a ``legacy-`` prefix.  Only schema v2 loads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..errors import BenchError

#: Version written by every suite runner and the only one
#: :func:`load_result` reads.
SCHEMA_VERSION = 2


def _fingerprint(mapping: Mapping[str, Any], nchars: int = 12) -> str:
    blob = json.dumps(mapping, sort_keys=True, default=str).encode()
    return hashlib.sha1(blob).hexdigest()[:nchars]


def machine_info() -> dict:
    """Identity of the executing machine, with a stable fingerprint.

    Coarse by design: it distinguishes "a different container / numpy /
    interpreter" — the cases where absolute timings stop being
    comparable — without trying to model microarchitecture.
    """
    info = {
        "system": platform.system(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    try:  # numpy version changes vectorized-kernel timings materially
        import numpy as np

        info["numpy"] = np.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    return {"fingerprint": _fingerprint(info), **info}


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Stable fingerprint of a suite's run configuration."""
    return _fingerprint(config)


@dataclass
class BenchResult:
    """One suite run: the unit stored, compared, and gated on.

    Public API (also re-exported as :data:`repro.bench.BenchResult`).
    """

    suite: str
    created_unix: float
    meta: dict
    machine: dict
    config: dict
    workloads: list[str]
    metrics: dict[str, float]
    acceptance: dict[str, bool]
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    commit: str | None = None
    schema_version: int = SCHEMA_VERSION

    @property
    def quick(self) -> bool:
        """Whether this was a smoke run on reduced workloads."""
        return bool(self.meta.get("quick"))

    @property
    def ok(self) -> bool:
        """All acceptance booleans hold."""
        return all(self.acceptance.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "created_unix": self.created_unix,
            "commit": self.commit,
            "meta": self.meta,
            "machine": self.machine,
            "config": self.config,
            "workloads": self.workloads,
            "metrics": self.metrics,
            "acceptance": self.acceptance,
            "phases": self.phases,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "BenchResult":
        validate_result(data)
        return cls(
            suite=data["suite"],
            created_unix=float(data["created_unix"]),
            meta=dict(data["meta"]),
            machine=dict(data["machine"]),
            config=dict(data["config"]),
            workloads=list(data["workloads"]),
            metrics=dict(data["metrics"]),
            acceptance=dict(data["acceptance"]),
            phases={w: dict(p) for w, p in data.get("phases", {}).items()},
            payload=dict(data.get("payload", {})),
            commit=data.get("commit"),
            schema_version=int(data["schema_version"]),
        )


def new_result(
    suite: str,
    *,
    quick: bool,
    reps: int,
    workloads: list[str],
    metrics: Mapping[str, float],
    acceptance: Mapping[str, bool],
    phases: Mapping[str, Mapping[str, float]] | None = None,
    payload: Mapping[str, Any] | None = None,
    extra_meta: Mapping[str, Any] | None = None,
    config: Mapping[str, Any] | None = None,
) -> BenchResult:
    """Assemble a fresh :class:`BenchResult`, stamping fingerprints.

    The one constructor every suite runner goes through, so metadata
    (machine identity, config fingerprint, timestamps) is uniform
    across suites instead of re-plumbed per harness.
    """
    machine = machine_info()
    meta = {
        "quick": bool(quick),
        "reps": int(reps),
        "python": machine["python"],
        "numpy": machine.get("numpy"),
        **dict(extra_meta or {}),
    }
    cfg = {"suite": suite, "quick": bool(quick), "reps": int(reps), **dict(config or {})}
    return BenchResult(
        suite=suite,
        created_unix=time.time(),
        meta=meta,
        machine=machine,
        config={"fingerprint": config_fingerprint(cfg), **cfg},
        workloads=list(workloads),
        metrics={k: float(v) for k, v in dict(metrics).items()},
        acceptance={k: bool(v) for k, v in dict(acceptance).items()},
        phases={w: {k: float(v) for k, v in p.items()} for w, p in dict(phases or {}).items()},
        payload=dict(payload or {}),
    )


def validate_result(data: dict) -> dict:
    """Validate a schema-v2 payload; raise :class:`BenchError` on drift.

    Returns the payload unchanged when it conforms (same contract as
    the legacy per-harness ``validate_report`` functions, which this
    replaces — :class:`BenchError` is a ``ValueError``).
    """
    if not isinstance(data, dict):
        raise BenchError(f"result must be a dict, got {type(data).__name__}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise BenchError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {data.get('schema_version')!r}"
        )
    if not isinstance(data.get("suite"), str) or not data["suite"]:
        raise BenchError("suite must be a non-empty string")
    created = data.get("created_unix")
    if not isinstance(created, (int, float)) or created <= 0:
        raise BenchError("created_unix must be a positive unix timestamp")
    for key in ("meta", "machine", "config", "metrics", "acceptance"):
        if not isinstance(data.get(key), dict):
            raise BenchError(f"{key!r} must be a dict")
    if not isinstance(data["meta"].get("quick"), bool):
        raise BenchError("meta['quick'] must be a boolean")
    for key in ("machine", "config"):
        if not isinstance(data[key].get("fingerprint"), str) or not data[key]["fingerprint"]:
            raise BenchError(f"{key}['fingerprint'] must be a non-empty string")
    wl = data.get("workloads")
    if (
        not isinstance(wl, list)
        or not wl
        or not all(isinstance(w, str) and w for w in wl)
    ):
        raise BenchError("workloads must be a non-empty list of names")
    for name, value in data["metrics"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BenchError(f"metrics[{name!r}] must be a number, got {value!r}")
        if not math.isfinite(value):
            raise BenchError(f"metrics[{name!r}] must be finite, got {value!r}")
    if not data["acceptance"]:
        raise BenchError("acceptance must declare at least one invariant")
    for name, value in data["acceptance"].items():
        if not isinstance(value, bool):
            raise BenchError(f"acceptance[{name!r}] must be a boolean, got {value!r}")
    phases = data.get("phases", {})
    if not isinstance(phases, dict):
        raise BenchError("phases must be a dict")
    for w, per_phase in phases.items():
        if not isinstance(per_phase, dict):
            raise BenchError(f"phases[{w!r}] must map phase names to seconds")
        for phase, seconds in per_phase.items():
            if not isinstance(seconds, (int, float)) or seconds < 0:
                raise BenchError(
                    f"phases[{w!r}][{phase!r}] must be a non-negative number"
                )
    if not isinstance(data.get("payload", {}), dict):
        raise BenchError("payload must be a dict")
    commit = data.get("commit")
    if commit is not None and not isinstance(commit, str):
        raise BenchError("commit must be a string or null")
    return data


def load_result(path) -> BenchResult:
    """Load a schema-v2 result JSON (public API, :func:`repro.bench.load_result`)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise BenchError(f"cannot read result file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchError(f"result file {path} is not valid JSON: {exc}") from exc
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version == SCHEMA_VERSION:
        return BenchResult.from_dict(data)
    raise BenchError(
        f"{path}: unsupported schema_version {version!r} "
        f"(supported: {SCHEMA_VERSION})"
    )
