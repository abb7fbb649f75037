"""Plan cache: in-memory LRU + optional on-disk JSON, with feedback.

Keys are ``(sketch bucket, machine-profile fingerprint, semiring,
executor request)`` rendered as one string — see :func:`plan_key`.  A
hit skips sampling and ranking entirely, which is what keeps repeat
planning inside the ≤5% overhead budget.

Feedback closes the loop where the model is wrong: callers may record
*measured* runtimes per (key, algorithm); once any measurement exists,
:meth:`PlanCache.get` overrides the model's pick with the
best-measured algorithm for that key, so repeated shapes converge on
the true winner (running means, so noise averages out).

The on-disk file (``plans.json`` under the cache dir) is written with
atomic replace and read tolerantly: a corrupt or truncated file is
reported as a ``RuntimeWarning`` and treated as empty — it is cache, it
regenerates; it must never fail a multiply.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import OrderedDict

from .calibrate import MachineProfile
from .sketch import Sketch

PLANS_FILENAME = "plans.json"
CACHE_SCHEMA_VERSION = 1
DEFAULT_MAXSIZE = 256


def plan_key(
    sk: Sketch,
    profile: MachineProfile,
    semiring_name: str,
    executor: str,
    nthreads: int,
    warm: bool = False,
    budget: int | None = None,
    pins: dict | None = None,
) -> str:
    """Render the cache key for one planning request.

    ``warm`` keys warm-session requests separately from cold ones —
    the same workload can legitimately resolve to different winners
    when the pool-spawn cost is (or is not) already sunk.  ``budget``
    (``PBConfig.memory_budget``) likewise keys budgeted requests apart:
    the feasibility gate can flip the winner, so a plan ranked under a
    memory budget must never answer an unbudgeted request (or one with
    a different budget) from cache.  ``pins`` (config knobs the caller
    fixed, such as ``shards`` or ``column_backend="loop"``) change the
    candidates and their overrides, so they key apart too.
    """
    bucket = ",".join(str(b) for b in sk.bucket())
    mode = f"{executor}:{nthreads}" + (":warm" if warm else "")
    if budget is not None:
        mode += f":mb{int(budget)}"
    for name, value in sorted((pins or {}).items()):
        mode += f":{name}={value}"
    return f"b[{bucket}]|p[{profile.fingerprint()}]|s[{semiring_name}]|x[{mode}]"


class PlanCache:
    """LRU plan cache, optionally mirrored to disk.

    ``cache_dir=None`` keeps everything in memory (the default for
    ad-hoc ``algorithm="auto"`` calls); with a directory, every update
    is written through so plans and feedback survive the process.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        maxsize: int = DEFAULT_MAXSIZE,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self.maxsize = maxsize
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._disk_ok = self.cache_dir is not None
        if self.cache_dir is not None:
            self._load_disk()

    # -- persistence --------------------------------------------------------
    @property
    def path(self) -> str | None:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, PLANS_FILENAME)

    def _load_disk(self) -> None:
        path = self.path
        if path is None or not os.path.exists(path):
            return
        try:
            with open(path) as fh:
                data = json.load(fh)
            if (
                not isinstance(data, dict)
                or data.get("schema_version") != CACHE_SCHEMA_VERSION
                or not isinstance(data.get("entries"), dict)
            ):
                raise ValueError("not a plan-cache payload")
            for key, rec in data["entries"].items():
                if isinstance(key, str) and isinstance(rec, dict) and "algorithm" in rec:
                    self._entries[key] = rec
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        except (OSError, ValueError, TypeError) as exc:
            warnings.warn(
                f"ignoring corrupt plan cache at {path}: {exc}; starting empty",
                RuntimeWarning,
                stacklevel=2,
            )
            self._entries.clear()

    def _flush(self) -> None:
        path = self.path
        if path is None or not self._disk_ok:
            return
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            payload = {
                "schema_version": CACHE_SCHEMA_VERSION,
                "entries": dict(self._entries),
            }
            with open(tmp, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except OSError as exc:  # read-only FS etc.: degrade to memory-only
            warnings.warn(
                f"plan cache is memory-only (cannot write {path}: {exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            self._disk_ok = False

    # -- cache protocol -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> dict | None:
        """Look up a plan record; feedback (if any) overrides the pick.

        The returned record always carries ``algorithm``, ``overrides``
        and ``source`` (``"cache"``, or ``"feedback"`` when measured
        runtimes changed the answer).
        """
        rec = self._entries.get(key)
        if rec is None:
            return None
        self._entries.move_to_end(key)
        out = dict(rec)
        out["source"] = "cache"
        feedback = rec.get("feedback") or {}
        if feedback:
            best = min(feedback.items(), key=lambda kv: kv[1]["mean_s"])
            best_alg = best[0]
            if best_alg != rec["algorithm"]:
                out["algorithm"] = best_alg
                out["source"] = "feedback"
                out["overrides"] = self._overrides_for(rec, best_alg)
                out["predicted_seconds"] = best[1]["mean_s"]
        return out

    @staticmethod
    def _overrides_for(rec: dict, algorithm: str) -> dict:
        for cand in rec.get("candidates", []):
            if cand.get("algorithm") == algorithm:
                return dict(cand.get("overrides", {}))
        return {}

    def put(self, key: str, record: dict) -> None:
        """Insert/replace a plan record (feedback of the old one kept)."""
        old = self._entries.get(key)
        rec = dict(record)
        if old and old.get("feedback"):
            rec.setdefault("feedback", {})
            merged = dict(old["feedback"])
            merged.update(rec["feedback"])
            rec["feedback"] = merged
        rec.setdefault("feedback", {})
        self._entries[key] = rec
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        self._flush()

    def record_feedback(self, key: str, algorithm: str, seconds: float) -> None:
        """Fold one measured runtime into the key's running means.

        Unknown keys are ignored (the plan was evicted); non-finite or
        non-positive measurements are rejected.
        """
        if not (seconds > 0.0) or seconds != seconds or seconds == float("inf"):
            return
        rec = self._entries.get(key)
        if rec is None:
            return
        fb = rec.setdefault("feedback", {})
        slot = fb.setdefault(algorithm, {"count": 0, "mean_s": 0.0})
        slot["count"] += 1
        slot["mean_s"] += (seconds - slot["mean_s"]) / slot["count"]
        self._flush()

    def clear(self) -> None:
        self._entries.clear()
        self._flush()


# Process-global default caches, one per resolved directory (the
# ``None`` slot is the pure in-memory default).
_DEFAULT_CACHES: dict[str | None, PlanCache] = {}


def default_cache(cache_dir: str | None) -> PlanCache:
    """Shared per-directory cache instance for ``algorithm="auto"``."""
    key = os.path.abspath(cache_dir) if cache_dir else None
    if key not in _DEFAULT_CACHES:
        _DEFAULT_CACHES[key] = PlanCache(key)
    return _DEFAULT_CACHES[key]
