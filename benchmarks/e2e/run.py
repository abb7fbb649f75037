"""End-to-end benchmark of the PB-SpGEMM library, with a traced layer view.

Usage (from anywhere; paths resolve against this file)::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--runs R] [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

Workloads, metrics, units, directions and bounds are declared once, in
the repository's ``BENCHMARK.json``.  Every workload runs in fresh
processes of ``workload.py`` with a private ``TMPDIR`` (spill files, the
server's unix socket) that is removed afterwards; the library comes
from this checkout's ``src/``.  ``--trace 0`` reports the end-to-end
metrics (``setup_s`` is the median of five launches), ``--trace 1`` the
per-layer metrics and one Chrome trace per workload.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--out`` (default ``results/last.json``)
keeps every run in full for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
PRIVATE = HERE / ".tmp"
#: Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_LAUNCHES = 5
#: Wall-clock cap of one workload, all of its launches together.
WORKLOAD_DEADLINE_S = 145.0
COPY_DEADLINE_S = 30.0
DROPPED_ENV = ("REPRO_PLAN_CACHE_DIR", "REPRO_BENCH_STORE", "REPRO_SHARDED_TEST_FAULT")


class WorkloadFailed(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Wait for every process the launch left behind (pool workers,
    shards, the server, resource trackers) to end; kill stragglers."""
    deadline = time.monotonic() + grace_s
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if group_members(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 5.0
        while group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)


def workload_env(private: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(private)
    env["REPRO_JIT_CACHE_DIR"] = str(private / "jit")
    return env


def launch(argv: list[str], private: Path, log, deadline: float) -> dict:
    """Run ``workload.py`` once in its own process group; its result."""
    result = private / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), *argv, "--result", str(result)]
    proc = subprocess.Popen(cmd, cwd=private, env=workload_env(private),
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=log, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        rc = "timeout"
    finally:
        reap_group(proc.pid)
    if rc != 0 or not result.is_file():
        raise WorkloadFailed(f"workload.py {' '.join(argv)} ended with {rc}")
    return json.loads(result.read_text())


def measure_copy(smoke: bool) -> float:
    """STREAM copy rate of this machine, in a process of its own."""
    private = PRIVATE / f"copy-{os.getpid()}"
    private.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", "copy", "--mode", "copy"] + (["--smoke"] if smoke else [])
    try:
        with open(RESULTS / "copy.stderr", "w") as log:
            return launch(argv, private, log,
                          time.monotonic() + COPY_DEADLINE_S)["copy_gbps"]
    finally:
        shutil.rmtree(private, ignore_errors=True)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, args, spec: dict, traces: Path,
                 copy_gbps: float | None) -> dict:
    start = time.monotonic()
    deadline = start + WORKLOAD_DEADLINE_S
    private = PRIVATE / f"{name}-{os.getpid()}-{seed}"
    shutil.rmtree(private, ignore_errors=True)
    private.mkdir(parents=True)
    log_path = RESULTS / f"{name}.stderr"
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(args.seconds)]
    if args.smoke:
        base.append("--smoke")
    try:
        with open(log_path, "w") as log:
            setups = []
            if not args.trace:
                for _ in range(SETUP_LAUNCHES - 1):
                    setups.append(launch(base + ["--mode", "setup"], private, log,
                                         deadline)["setup_s"])
            out = launch(base + ["--trace", str(args.trace),
                                 "--trace-file", str(traces / f"{name}.trace.json")],
                         private, log, deadline)
        leftovers = sorted(str(p.relative_to(private)) for p in private.rglob("*.npz"))
    finally:
        shutil.rmtree(private, ignore_errors=True)
    setups.append(out["setup_s"])

    values = dict(out["metrics"])
    if args.trace:
        # A layer off this workload's path did no work: it reads 0.
        values = {m["name"]: 0 for m in spec["per_layer"]} | values
        values["machine.copy_gbps"] = copy_gbps
        for phase in ("expand", "sort", "compress", "sort_compress"):
            values[f"phase.{phase}.stream_frac"] = values[f"phase.{phase}.gbps"] / copy_gbps
        declared = spec["per_layer"]
    else:
        values["setup_s"] = statistics.median(setups)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise WorkloadFailed(f"{name} did not report {', '.join(missing)}")
    with open(log_path) as fh:
        stderr_lines = sum(1 for _ in fh)
    failed = out["failed"] + len(leftovers)
    return {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "error_rate": failed / out["attempted"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "setup_launches_s": setups,
        "samples": out.get("samples", {}),
        "details": {k: v for k, v in out.items()
                    if k not in ("metrics", "samples", "setup_s", "attempted",
                                 "failed")},
        "leftover_stage_files": leftovers,
        "stderr_lines": stderr_lines,
        "stderr_file": str(log_path.relative_to(ROOT)),
        "wall_s": time.monotonic() - start,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def machine_info() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": os.cpu_count()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            info["mem_total_kb"] = int(fh.readline().split()[1])
    except OSError:
        pass
    return info


def print_record(rec: dict) -> None:
    verdict = "correct" if rec["correct"] else "INCORRECT"
    print(f"{rec['workload']}  seed={rec['seed']}  {verdict}  "
          f"attempted={rec['attempted']} failed={rec['failed']} "
          f"error_rate={rec['error_rate']:g}  wall={rec['wall_s']:.1f}s  "
          f"stderr={rec['stderr_lines']} lines ({rec['stderr_file']})")
    for name, m in rec["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g}  {m['unit']}")
    for problem in rec["details"].get("problems", []):
        print(f"  problem: {problem}")


def grouped(runs: list[dict]) -> dict:
    """{(workload, metric): [values in run order]}."""
    out: dict = {}
    for rec in runs:
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def print_summary(runs: list[dict], declared: list[dict]) -> None:
    bounds = {m["name"]: m.get("bound") for m in declared}
    print(f"\n{'workload':<20} {'metric':<36} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  n")
    for (wl, name), values in grouped(runs).items():
        bound = bounds.get(name)
        print(f"{wl:<20} {name:<36} {statistics.median(values):>12.6g} "
              f"{spread(values):>8.3f} {'' if bound is None else bound:>6}  "
              f"{len(values)}")


def final_line(runs: list[dict]) -> dict:
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        units = {(r["workload"], n): m["unit"] for r in runs for n, m in r["metrics"].items()}
        metrics = {f"{wl}/{name}": {"value": statistics.median(v), "unit": units[wl, name]}
                   for (wl, name), v in grouped(runs).items()}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(argv: list[str]) -> int:
    p = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two result files on every end-to-end metric: "
        "exit 1 when a median got worse by more than the declared bound.")
    p.add_argument("a", help="parent / first result JSON")
    p.add_argument("b", help="change / second result JSON")
    args = p.parse_args(argv)
    spec = load_spec()
    a = grouped(json.loads(Path(args.a).read_text())["runs"])
    b = grouped(json.loads(Path(args.b).read_text())["runs"])
    print(f"{'workload':<20} {'metric':<15} {'median A':>11} {'median B':>11} "
          f"{'change':>8} {'bound':>6} {'spread A':>8} {'spread B':>8}  status")
    regressed = False
    for wl in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            va, vb = a.get((wl, m["name"])), b.get((wl, m["name"]))
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            sa, sb = spread(va), spread(vb)
            if worse > m["bound"]:
                status = "REGRESSED"
                regressed = True
            elif -worse > m["bound"]:
                status = "improved"
            else:
                status = "within bound"
            if max(sa, sb) > m["bound"]:
                status += ", unresolved (spread > bound)"
            print(f"{wl:<20} {m['name']:<15} {ma:>11.5g} {mb:>11.5g} "
                  f"{change:>+8.1%} {m['bound']:>6.0%} {sa:>8.3f} {sb:>8.3f}  {status}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1,
                   help="input seed; run i of --runs uses seed + i")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds from "
                   "BENCHMARK.json, 1 with --smoke)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: per-layer metrics and Chrome traces instead of end-to-end")
    p.add_argument("--runs", type=int, default=1, help="repeat everything with fresh seeds")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, same checks and metric names")
    p.add_argument("--out", type=Path, default=RESULTS / "last.json",
                   help="result JSON (traces go to <out>.traces/)")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no library at {ROOT / 'src' / 'repro'}; run this from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    args.out = args.out.resolve()  # workloads run in their private directory
    traces = args.out.with_suffix(".traces")
    if args.trace:
        traces.mkdir(parents=True, exist_ok=True)
    runs = []
    try:
        copy_gbps = measure_copy(args.smoke) if args.trace else None
        for i in range(args.runs):
            for name in args.workload or names:
                rec = run_workload(name, args.seed + i, args, spec, traces, copy_gbps)
                print_record(rec)
                runs.append(rec)
    except WorkloadFailed as exc:
        print(f"run.py: {exc}; see {RESULTS.relative_to(ROOT)}/*.stderr", file=sys.stderr)
        return 1
    if len(runs) > 1:
        print_summary(runs, spec["per_layer" if args.trace else "end_to_end"])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "benchmark": "benchmarks/e2e",
        "machine": machine_info(),
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "runs": runs,
    }, indent=1) + "\n")
    line = final_line(runs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
