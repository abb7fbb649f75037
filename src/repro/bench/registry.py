"""Suite registry: every benchmark declares itself here, declaratively.

A :class:`Suite` bundles what the 25 pre-unification harnesses each
hand-rolled: the workloads it runs, the acceptance checks it must
clear, and the per-metric tolerances the regression gate should apply.

Built-in suites are registered lazily — the registry knows the module
that owns each name and imports it on first :func:`get_suite`, so
``import repro`` never pays for benchmark code.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..errors import BenchError
from .schema import BenchResult

#: Perf suites with a committed repo-root baseline artifact.
PERF_SUITES = (
    "planner",
    "column",
    "session",
    "jit",
    "serve",
    "tiled",
    "sharded",
)

_BUILTIN_MODULES = {
    "planner": "repro.bench.suites.planner",
    "column": "repro.bench.suites.column",
    "session": "repro.bench.suites.session",
    "jit": "repro.bench.suites.jit",
    "serve": "repro.bench.suites.serve",
    "tiled": "repro.bench.suites.tiled",
    "sharded": "repro.bench.suites.sharded",
}

#: Paper-figure/table driver suites (repro.analysis.experiments), all
#: registered by one module.  Kept as a static tuple so listing suites
#: stays import-free; tests assert it matches the module's registry.
EXPERIMENT_SUITES = (
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig12m",
    "fig13",
    "fig14",
    "table2",
    "table3",
    "table5",
    "table6",
    "table7",
)
_EXPERIMENT_MODULE = "repro.bench.suites.experiments"


@dataclass(frozen=True)
class AcceptanceCheck:
    """One declarative acceptance criterion.

    ``op`` is ``"ge"``/``"le"`` (compare ``metrics[metric]`` against
    ``threshold``) or ``"true"`` (require ``acceptance[metric]``).
    ``full_only`` checks are skipped on ``--smoke`` runs, where reduced
    workloads make perf floors meaningless.
    """

    name: str
    metric: str
    op: str = "true"
    threshold: float = 0.0
    full_only: bool = False

    def evaluate(self, result: BenchResult) -> bool | None:
        """True/False verdict, or ``None`` when not applicable."""
        if self.full_only and result.quick:
            return None
        if self.op == "true":
            value = result.acceptance.get(self.metric)
            return None if value is None else bool(value)
        value = result.metrics.get(self.metric)
        if value is None:
            return None
        if self.op == "ge":
            return value >= self.threshold
        if self.op == "le":
            return value <= self.threshold
        raise BenchError(f"unknown acceptance op {self.op!r}")

    def describe(self) -> str:
        if self.op == "true":
            cond = f"acceptance[{self.metric!r}] is true"
        else:
            sym = {"ge": ">=", "le": "<="}[self.op]
            cond = f"{self.metric} {sym} {self.threshold:g}"
        return cond + (" (full runs)" if self.full_only else "")


@dataclass
class Suite:
    """A registered experiment: workloads + runner + acceptance, declared.

    ``runner(quick, reps) -> BenchResult`` does the measuring;
    everything else is metadata the orchestrator, gate, and docs read.
    """

    name: str
    description: str
    runner: Callable[..., BenchResult]
    figures: tuple[str, ...] = ()
    workloads: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    artifact: str | None = None
    default_reps: int = 3
    checks: tuple[AcceptanceCheck, ...] = ()
    tolerances: dict[str, float] = field(default_factory=dict)
    payload_sections: tuple[str, ...] = ()

    def run(self, quick: bool = False, reps: int | None = None) -> BenchResult:
        """Execute the suite and return its :class:`BenchResult`."""
        result = self.runner(
            quick=quick, reps=self.default_reps if reps is None else int(reps)
        )
        if result.suite != self.name:
            raise BenchError(
                f"suite {self.name!r} runner produced a result labelled "
                f"{result.suite!r}"
            )
        return result


_REGISTRY: dict[str, Suite] = {}


def register_suite(suite: Suite) -> Suite:
    """Register (or replace) a suite; returns it for decorator-ish use."""
    _REGISTRY[suite.name] = suite
    return suite


def available_suites() -> list[str]:
    """Every known suite name, built-in or registered at runtime."""
    return sorted(set(_REGISTRY) | set(_BUILTIN_MODULES) | set(EXPERIMENT_SUITES))


def get_suite(name: str) -> Suite:
    """Resolve a suite by name, importing its defining module if needed."""
    if name not in _REGISTRY:
        module = _BUILTIN_MODULES.get(name)
        if module is None and name in EXPERIMENT_SUITES:
            module = _EXPERIMENT_MODULE
        if module is not None:
            importlib.import_module(module)
    if name not in _REGISTRY:
        raise BenchError(
            f"unknown suite {name!r}; available: {', '.join(available_suites())}"
        )
    return _REGISTRY[name]


def run_suite(name: str, quick: bool = False, reps: int | None = None) -> BenchResult:
    """Convenience wrapper: ``get_suite(name).run(...)`` (public API)."""
    return get_suite(name).run(quick=quick, reps=reps)


def check_result(result: BenchResult, suite: Suite | None = None) -> list[str]:
    """Evaluate a result against its suite's declared acceptance checks.

    Returns human-readable violation strings (empty = all clear).  Any
    ``False`` acceptance boolean is a violation even without a matching
    declared check, so a suite can never under-declare its way past a
    correctness failure.
    """
    suite = suite or get_suite(result.suite)
    violations = []
    for check in suite.checks:
        verdict = check.evaluate(result)
        if verdict is False:
            shown = (
                result.acceptance.get(check.metric)
                if check.op == "true"
                else result.metrics.get(check.metric)
            )
            violations.append(f"{check.name}: {check.describe()} (got {shown!r})")
    checked = {c.metric for c in suite.checks if c.op == "true"}
    for name, ok in sorted(result.acceptance.items()):
        if not ok and name not in checked:
            violations.append(f"{name}: acceptance boolean is false")
    return violations
