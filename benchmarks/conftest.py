"""Shared fixtures for the benchmark harness.

Each pytest-benchmark ``bench_*`` module regenerates one table or
figure of the paper: the ``benchmark`` fixture times the regeneration
(driver + simulation), and the ``report`` fixture prints the rendered
rows to the terminal (bypassing capture) and archives them under
``benchmarks/results/``.

The perf suites (``planner``, ``column``, ``session``, ``serve``,
``tiled``, ``sharded``, ``jit``) are not pytest modules:
``repro bench run <suite>`` runs them, validates each result against
the shared schema (``repro.bench.validate_result``) and appends it to
the trend store under ``benchmarks/results/bench/`` with ``--store``.

Workload sizes honour ``REPRO_BENCH_SCALE`` / ``REPRO_SURROGATE_SCALE``
(see repro.analysis.experiments).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def report(capsys):
    """Print a rendered table to the real terminal and archive it."""

    def _report(text: str, name: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print("\n" + text, flush=True)

    return _report


def run_once(benchmark, fn, *args, **kwargs):
    """Time one full regeneration of an experiment (driver included)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
