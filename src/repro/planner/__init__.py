"""repro.planner — auto-tuning planner priced from measured kernels
(DESIGN.md §10).

Wires the algorithm registry (:mod:`repro.kernels.dispatch`), sampled
output estimation (:mod:`repro.matrix.stats`) and measured kernel costs
into one decision procedure:

* :mod:`sketch` — bounded-cost input summaries (cheap pointer-array
  tier + lazily sampled compression factor),
* :mod:`calibrate` — per-flop and per-output costs of the kernel
  families that run, measured into a :class:`MachineProfile` persisted
  as JSON, with preset costs when no calibration is saved,
* :mod:`cost` — price every registered algorithm from those costs;
  sweep the tile grid and shard count under the memory budget,
* :mod:`cache` — LRU + on-disk plan cache with measured-runtime
  feedback,
* :mod:`plan` — the :func:`plan` front door producing inspectable
  :class:`Plan` objects that ``repro.multiply(..., algorithm="auto")``
  executes.
"""

from .cache import PlanCache, default_cache, plan_key
from .calibrate import (
    MachineProfile,
    calibrate,
    default_profile,
    load_profile,
    save_profile,
)
from .cost import CandidateScore, rank
from .plan import Plan, plan, resolve_cache_dir, resolve_profile
from .sketch import Sketch, deepen, sketch

__all__ = [
    "Plan",
    "plan",
    "PlanCache",
    "default_cache",
    "plan_key",
    "MachineProfile",
    "calibrate",
    "default_profile",
    "load_profile",
    "save_profile",
    "CandidateScore",
    "rank",
    "Sketch",
    "sketch",
    "deepen",
    "resolve_cache_dir",
    "resolve_profile",
]
