"""Executable-phase wall-clock shares of PB-SpGEMM (Table III's shape).

Times the real pipeline per phase (symbolic / expand / sort+compress /
convert) on one thread: the compiled pipeline when the engine builds,
else the numpy one; the table title names the one that ran
(``PBResult.pipeline``).  The point is the phase *shares* and their
scaling with flop, mirroring Table III's O(flop) expand/sort/compress
and O(k) symbolic.
"""

import repro
from repro.analysis.records import ResultTable
from repro.analysis.tables import render_table
from repro.core import pb_spgemm_detailed

from conftest import run_once


def _build():
    runs = []
    for scale, ef in ((11, 4), (12, 8), (13, 8)):
        a = repro.erdos_renyi(1 << scale, ef, seed=scale)
        runs.append((scale, ef, pb_spgemm_detailed(a.to_csc(), a.to_csr())))
    pipelines = ", ".join(sorted({res.pipeline for _, _, res in runs}))
    t = ResultTable(
        f"PB-SpGEMM executable phase times ({pipelines} pipeline, 1 thread)",
        ["workload", "flop", "symbolic_ms", "expand_ms", "sort_compress_ms", "convert_ms"],
    )
    for scale, ef, res in runs:
        ps = res.phase_seconds
        t.add(
            workload=f"ER s{scale} ef{ef}",
            flop=res.flop,
            symbolic_ms=round(ps["symbolic"] * 1e3, 2),
            expand_ms=round(ps["expand"] * 1e3, 2),
            sort_compress_ms=round(ps["sort_compress"] * 1e3, 2),
            convert_ms=round(ps["convert"] * 1e3, 2),
        )
    t.note("Table III: symbolic is O(k); expand/sort/compress are O(flop)")
    return t


def test_wallclock_phases(benchmark, report):
    table = run_once(benchmark, _build)
    report(render_table(table), "wallclock_phases")
    rows = list(table)
    # O(flop) phases grow with flop; symbolic stays negligible.
    assert rows[-1]["flop"] > rows[0]["flop"]
    assert rows[-1]["sort_compress_ms"] > rows[0]["sort_compress_ms"]
    for r in rows:
        assert r["symbolic_ms"] < r["expand_ms"] + r["sort_compress_ms"]
