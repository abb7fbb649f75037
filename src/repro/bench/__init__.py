"""Unified benchmark subsystem: suites, shared schema, store, gates.

Public API (see DESIGN.md §13):

* :class:`BenchResult` / :func:`load_result` / :func:`validate_result`
  — the versioned result schema every suite produces;
* :class:`ResultStore` — the on-disk trend store keyed by commit +
  suite (``benchmarks/results/bench/`` or ``$REPRO_BENCH_STORE``);
* :func:`compare_results` — the regression gate: per-metric tolerance,
  direction-aware, acceptance booleans never tolerated;
* :class:`Suite` / :func:`register_suite` / :func:`get_suite` /
  :func:`run_suite` / :func:`check_result` — the declarative registry
  behind ``repro bench run``.
"""

from __future__ import annotations

from ..errors import BenchError
from .gates import (
    DEFAULT_TOLERANCE,
    CompareReport,
    MetricDelta,
    compare_results,
)
from .registry import (
    EXPERIMENT_SUITES,
    PERF_SUITES,
    AcceptanceCheck,
    Suite,
    available_suites,
    check_result,
    get_suite,
    register_suite,
    run_suite,
)
from .schema import (
    SCHEMA_VERSION,
    BenchResult,
    load_result,
    machine_info,
    new_result,
    validate_result,
)
from .store import ResultStore, StoreEntry, default_store_root

__all__ = [
    "AcceptanceCheck",
    "BenchError",
    "BenchResult",
    "CompareReport",
    "DEFAULT_TOLERANCE",
    "EXPERIMENT_SUITES",
    "MetricDelta",
    "PERF_SUITES",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreEntry",
    "Suite",
    "available_suites",
    "check_result",
    "compare_results",
    "default_store_root",
    "get_suite",
    "load_result",
    "machine_info",
    "new_result",
    "register_suite",
    "run_suite",
    "validate_result",
]
