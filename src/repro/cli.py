"""Command-line interface: ``python -m repro <command> ...``.

Commands form a subcommand tree grouped by what they operate on:

* ``matrix``     — ``generate`` / ``stats`` / ``multiply``: build,
  inspect, and multiply MatrixMarket matrices;
* ``plan``       — explain what ``algorithm="auto"`` would choose and why;
* ``calibrate``  — micro-benchmark this machine into a planner profile;
* ``bench``      — ``run`` / ``compare`` / ``list``: the
  unified benchmark suites, the on-disk trend store, and the regression
  gate (:mod:`repro.bench`);
* ``experiment`` — regenerate any paper figure/table by id;
* ``machine``    — ``simulate`` / ``roofline`` / ``stream``: the
  analytic machine model;
* ``serve``      — run the long-lived async multiply service
  (:mod:`repro.serve`): batching, admission control, per-request
  phase timings over one shared warm session.

Execution flags shared by ``matrix multiply`` and ``plan``
(``--executor/--nthreads/--nbins/--column-backend``)
come from one parent parser, so the two commands cannot drift apart.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .kernels.column_panel import COLUMN_BACKENDS


def _add_machine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--machine",
        default="skylake",
        choices=("skylake", "power9", "laptop"),
        help="machine model preset (default: skylake)",
    )


def _exec_parent() -> argparse.ArgumentParser:
    """Shared PB execution flags (parent parser, no help of its own)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--executor",
        default="serial",
        choices=("serial", "process"),
        help="where PB's numpy fallback runs (no compiler, modulo bins, "
        "custom semirings): in this process, or a real process pool",
    )
    p.add_argument(
        "--nthreads",
        type=int,
        default=1,
        help="threads of the compiled PB pipeline (capped by usable CPUs "
        "and work); pool size of the numpy fallback under --executor process",
    )
    p.add_argument("--nbins", type=int, default=None, help="global bin count override")
    p.add_argument(
        "--column-backend",
        default="panel",
        choices=COLUMN_BACKENDS,
        help="column-kernel strategy (heap/hash/hashvec/spa): "
        "panel-vectorized gather + segmented reduction, compiled when "
        "a C compiler is present (default), or the faithful per-column "
        "loop accumulators (ablation)",
    )
    return p


def _shards_arg(value: str):
    """``--shards N|auto``: digits become an int; anything else stays a
    string for :class:`~repro.core.PBConfig` to accept or reject."""
    return int(value) if value.isdigit() else value


def _load(path: str):
    from .matrix.io import read_matrix_market

    return read_matrix_market(path)


# ---------------------------------------------------------------------------
# matrix generate / stats / multiply
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    from .generators import erdos_renyi, rmat, surrogate
    from .matrix.io import write_matrix_market

    if args.kind == "er":
        m = erdos_renyi(1 << args.scale, args.edge_factor, seed=args.seed)
    elif args.kind == "rmat":
        m = rmat(args.scale, args.edge_factor, seed=args.seed)
    else:
        m = surrogate(args.name, scale_factor=args.scale_factor, seed=args.seed)
    write_matrix_market(m, args.output)
    print(f"wrote {m.shape[0]}x{m.shape[1]} matrix with {m.nnz} nonzeros to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    from .matrix.stats import matrix_stats, multiply_stats

    a = _load(args.matrix).to_csr()
    s = matrix_stats(a)
    print(f"shape          : {s.shape[0]} x {s.shape[1]}")
    print(f"nnz            : {s.nnz}")
    print(f"mean degree    : {s.mean_degree:.3f}")
    print(f"max row nnz    : {s.max_row_nnz}")
    print(f"max col nnz    : {s.max_col_nnz}")
    if args.square:
        ms = multiply_stats(a.to_csc(), a)
        print(f"flops (A*A)    : {ms.flop}")
        print(f"nnz(C)         : {ms.nnz_c}{'' if ms.exact else ' (estimated)'}")
        print(f"compression cf : {ms.cf:.3f}")
    return 0


def _cmd_multiply(args) -> int:
    from .api import multiply
    from .matrix.io import write_matrix_market

    config = None
    shards = args.shards
    sharded_algs = ("pb", "tiled", "sharded", "auto")
    if shards is not None and args.algorithm not in sharded_algs:
        print(
            "--shards routes through the sharded tiled engine; use "
            "--algorithm pb/tiled/sharded/auto "
            f"(got {args.algorithm!r})",
            file=sys.stderr,
        )
        return 2
    pb_flags = (
        args.executor != "serial"
        or args.nthreads != 1
        or args.nbins is not None
    )
    column_flags = args.column_backend != "panel"
    tiled_flags = (
        args.memory_budget is not None
        or args.tile_rows is not None
        or args.tile_cols is not None
        or args.spill_dir is not None
    )
    if shards is not None and args.tile_rows is not None:
        # --shards reinterprets the tiled knobs (see --shards help):
        # budget becomes per-shard, --tile-cols pins the shared panel
        # split, --tile-rows has no meaning (rows split by shard count).
        print(
            "--tile-rows conflicts with --shards: the row split is "
            "the shard assignment (one flop-balanced contiguous row "
            "range per shard); pin --shards instead",
            file=sys.stderr,
        )
        return 2
    if pb_flags and args.algorithm not in ("pb", "auto", "tiled"):
        print(
            "--executor/--nthreads/--nbins configure the PB pipeline; "
            f"use --algorithm pb (got {args.algorithm!r})",
            file=sys.stderr,
        )
        return 2
    _column_algs = ("heap", "hash", "hashvec", "spa")
    if column_flags and args.algorithm not in _column_algs + ("auto",):
        print(
            "--column-backend configures the column kernels; "
            f"use --algorithm {'/'.join(_column_algs)} "
            f"(got {args.algorithm!r})",
            file=sys.stderr,
        )
        return 2
    if (
        tiled_flags
        and shards is None
        and args.algorithm not in ("tiled", "sharded", "auto")
    ):
        print(
            "--memory-budget/--tile-rows/--tile-cols/--spill-dir configure "
            "the tiled engine; use --algorithm tiled (or auto for "
            f"budget-gated selection; got {args.algorithm!r})",
            file=sys.stderr,
        )
        return 2
    if pb_flags or column_flags or tiled_flags or shards is not None:
        from .core.config import PBConfig
        from .errors import ConfigError

        try:
            config = PBConfig(
                nthreads=args.nthreads,
                executor=args.executor,
                nbins=args.nbins,
                column_backend=args.column_backend,
                tile_rows=args.tile_rows,
                tile_cols=args.tile_cols,
                memory_budget=args.memory_budget,
                spill_dir=args.spill_dir,
                shards=shards,
            )
        except ConfigError as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 2
    a = _load(args.a)
    b = _load(args.b) if args.b else a
    c = multiply(a, b, algorithm=args.algorithm, semiring=args.semiring, config=config)
    backend = ""
    if shards is not None:
        backend = f", shards={shards}"
    elif config and pb_flags:
        backend = f", executor={args.executor}x{args.nthreads}"
    elif config:
        backend = f", column_backend={args.column_backend}"
    print(
        f"C = A*B: {c.shape[0]}x{c.shape[1]}, nnz={c.nnz} "
        f"(algorithm={args.algorithm}{backend})"
    )
    if args.output:
        write_matrix_market(c, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .core.config import PBConfig
    from .errors import ConfigError
    from .serve import MultiplyServer, ServeConfig

    try:
        config = PBConfig(
            nthreads=args.nthreads,
            executor=args.executor,
            nbins=args.nbins,
            column_backend=args.column_backend,
        )
        if args.shards is not None:
            # Shard routing runs this config sharded: the same checks
            # (count, executor conflict) apply.
            config.with_(shards=args.shards)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        max_pending=args.max_pending,
        max_pending_tuples=args.max_pending_tuples,
        max_batch=args.max_batch,
        max_batch_tuples=args.max_batch_tuples,
        shards=args.shards,
        shard_tuples=args.shard_tuples,
    )

    async def _run() -> None:
        server = MultiplyServer(config, serve_config, warm=args.warm)
        await server.start()
        where = (
            server.address
            if isinstance(server.address, str)
            else "{}:{}".format(*server.address)
        )
        print(
            f"repro serve: listening on {where} "
            f"(executor={args.executor}x{args.nthreads}, "
            f"max_batch={args.max_batch})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        try:
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(
                    sig, lambda: loop.create_task(server.close())
                )
        except (NotImplementedError, ValueError):  # pragma: no cover
            pass  # non-POSIX loop or non-main thread
        await server.serve_forever()

    asyncio.run(_run())
    return 0


# ---------------------------------------------------------------------------
# plan / calibrate
# ---------------------------------------------------------------------------

def _cmd_plan(args) -> int:
    import json as _json

    from .core.config import PBConfig
    from .planner import PlanCache, plan

    config = PBConfig(
        nthreads=args.nthreads,
        executor=args.executor,
        nbins=args.nbins,
        column_backend=args.column_backend,
        plan_cache_dir=args.cache_dir,
    )
    a = _load(args.a).to_csc()
    b = _load(args.b).to_csr() if args.b else a.to_csr()
    # A fresh cache keeps `repro plan` a pure explainer: it never
    # pollutes (or is steered by) the persistent plan cache unless the
    # user pointed --cache-dir at one.
    cache = PlanCache(args.cache_dir) if args.cache_dir else PlanCache()
    p = plan(a, b, semiring=args.semiring, config=config, cache=cache, seed=args.seed)
    if args.json:
        print(_json.dumps(p.to_dict(), indent=2, sort_keys=True))
    else:
        print(p.explain())
    return 0


def _cmd_calibrate(args) -> int:
    import json as _json

    from .planner import calibrate, save_profile
    from .planner.calibrate import FAMILIES

    profile = calibrate(
        quick=args.quick,
        measure_pool=not args.no_pool,
        seed=args.seed,
    )
    if args.json:
        print(_json.dumps(profile.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"calibrated ({'quick' if profile.quick else 'full'}):\n"
            f"  copy      : {profile.copy_gbs:8.2f} GB/s\n"
            + "".join(
                f"  {family:<10s}: {getattr(profile, family + '_flop_ns'):8.2f} ns/flop"
                f" + {getattr(profile, family + '_out_ns'):8.2f} ns/output\n"
                for family in FAMILIES
            )
            + f"  pool spawn: {profile.pool_startup_s * 1e3:8.1f} ms\n"
            f"  fingerprint {profile.fingerprint()}"
        )
    if args.cache_dir:
        path = save_profile(profile, args.cache_dir)
        print(f"saved {path}")
    return 0


# ---------------------------------------------------------------------------
# bench run / compare / list
# ---------------------------------------------------------------------------

def _cmd_bench_run(args) -> int:
    from .bench import BenchError, ResultStore, check_result, get_suite

    if args.output and len(args.suites) > 1:
        print("--output requires exactly one suite", file=sys.stderr)
        return 2
    try:  # resolve every name before running anything
        suites = [get_suite(name) for name in args.suites]
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    store = ResultStore(args.store or None) if args.store is not None else None
    failures = 0
    for name, suite in zip(args.suites, suites):
        result = suite.run(quick=args.smoke, reps=args.reps)
        if args.json:
            print(result.to_json(), end="")
        if args.output:
            result.write(args.output)
            print(f"wrote {args.output}")
        if store is not None:
            print(f"stored {store.add(result)}")
        violations = check_result(result, suite)
        for v in violations:
            print(f"{name}: ACCEPTANCE FAILURE: {v}")
        if not violations:
            mode = "smoke" if result.quick else "full"
            print(f"{name}: ok ({mode}, {len(result.metrics)} metrics)")
        failures += bool(violations)
    return 1 if failures else 0


def _resolve_baseline(suite, ref, store, current):
    """Baseline result for one suite, or (None, reason) when unavailable.

    ``ref`` may be ``None``/"auto" (prior store entry from a different
    commit, else the committed artifact), "committed" (the repo-root
    ``BENCH_*.json``), a result-file path, or a commit prefix in the
    store.
    """
    from pathlib import Path

    from .bench import load_result

    if ref in (None, "auto"):
        if current.commit is not None:
            prior = store.latest(suite.name, exclude_commit=current.commit)
            if prior is not None:
                return prior, None
        ref = "committed"
    if ref == "committed":
        if suite.artifact and Path(suite.artifact).exists():
            return load_result(suite.artifact), None
        return None, f"no committed artifact for suite {suite.name!r}"
    if Path(ref).exists():
        return load_result(ref), None
    return store.load(suite.name, ref), None


def _cmd_bench_compare(args) -> int:
    from .bench import BenchError, ResultStore, compare_results, get_suite

    store = ResultStore(args.store or None)
    names = args.suites or store.suites()
    if not names:
        print("result store is empty; nothing to compare")
        return 0
    try:
        resolved = {name: get_suite(name) for name in names}
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    exit_code = 0
    for name in names:
        suite = resolved[name]
        current = store.latest(name)
        if current is None:
            print(f"{name}: no current result in the store — skipping")
            continue
        try:
            baseline, reason = _resolve_baseline(suite, args.ref, store, current)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            exit_code = max(exit_code, 2)
            continue
        if baseline is None:
            print(f"{name}: {reason} — skipping (no history is not a failure)")
            continue
        tolerances = dict(suite.tolerances)
        if args.tolerance is not None:
            tolerances["*"] = args.tolerance
        report = compare_results(current, baseline, tolerances=tolerances)
        print(report.summary())
        if not report.ok:
            exit_code = max(exit_code, 1)
    return exit_code


def _cmd_bench_list(args) -> int:
    from .bench import EXPERIMENT_SUITES, PERF_SUITES, get_suite

    for name in PERF_SUITES + EXPERIMENT_SUITES:
        suite = get_suite(name)
        print(f"{name}: {suite.description}")
        if args.verbose:
            if suite.artifact:
                print(f"    artifact : {suite.artifact}")
            for mode in ("quick", "full"):
                wl = suite.workloads.get(mode)
                if wl:
                    print(f"    {mode:9}: {', '.join(wl)}")
            for check in suite.checks:
                print(f"    check    : {check.name} — {check.describe()}")
    return 0


# ---------------------------------------------------------------------------
# experiment / machine
# ---------------------------------------------------------------------------

def _cmd_experiment(args) -> int:
    from .analysis.tables import render_table
    from .bench.suites.experiments import EXPERIMENTS, tables_for

    if args.id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment {args.id!r}; available: {known}", file=sys.stderr)
        return 2
    tables = tables_for(args.id)
    for t in tables:
        print(render_table(t))
        print()
        if args.csv:
            path = f"{args.csv}/{args.id}_{t.title.split(' ')[0].strip('=').lower() or 'out'}.csv"
            t.to_csv(path)
            print(f"(csv: {path})")
    return 0


def _cmd_simulate(args) -> int:
    from .machine.presets import get_machine
    from .simulate.engine import simulate_spgemm

    machine = get_machine(args.machine)
    a = _load(args.a).to_csc()
    b = _load(args.b).to_csr() if args.b else a.to_csr()
    for alg in args.algorithms.split(","):
        rep = simulate_spgemm(
            a,
            b,
            algorithm=alg.strip(),
            machine=machine,
            nthreads=args.threads,
            sockets=args.sockets,
        )
        print(rep)
    return 0


def _cmd_roofline(args) -> int:
    from .analysis.experiments import fig3_roofline
    from .analysis.tables import render_table
    from .machine.presets import get_machine

    cfs = tuple(float(c) for c in args.cf.split(","))
    print(render_table(fig3_roofline(get_machine(args.machine), cfs)))
    return 0


def _cmd_stream(args) -> int:
    from .analysis.experiments import table5_stream
    from .analysis.tables import render_table
    from .machine.presets import get_machine

    print(render_table(table5_stream(get_machine(args.machine))))
    return 0


def _cmd_machine_info(args) -> int:
    """Bare ``repro machine``: runtime capabilities, incl. the JIT probe."""
    import json as _json
    import platform

    import numpy as np

    from .kernels.jit import jit_status
    from .parallel import process_backend_available

    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "process_backend": process_backend_available(),
        "jit": jit_status(),
    }
    if args.json:
        print(_json.dumps(info, indent=2, sort_keys=True))
        return 0
    jit = info["jit"]
    print(f"platform : {info['platform']}")
    print(f"python   : {info['python']}  numpy {info['numpy']}")
    print(f"process  : {'available' if info['process_backend'] else 'unavailable'}")
    detail = jit["cc_compiler"] if jit["available"] else jit["cc_reason"]
    print(f"jit      : {jit['engine']} ({detail})")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _build_generate(sub):
    g = sub.add_parser("generate", help="generate a test matrix (MatrixMarket)")
    g.add_argument("kind", choices=("er", "rmat", "surrogate"))
    g.add_argument("output", help="output .mtx path")
    g.add_argument("--scale", type=int, default=10, help="log2 dimension (er/rmat)")
    g.add_argument("--edge-factor", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--name", default="cage12", help="Table VI name (surrogate)")
    g.add_argument("--scale-factor", type=float, default=1 / 16, help="surrogate size factor")
    g.set_defaults(func=_cmd_generate)


def _build_stats(sub):
    s = sub.add_parser("stats", help="matrix statistics (Table VI row)")
    s.add_argument("matrix", help=".mtx path")
    s.add_argument("--square", action="store_true", help="also analyze A*A")
    s.set_defaults(func=_cmd_stats)


def _build_multiply(sub, exec_parent):
    m = sub.add_parser(
        "multiply", help="sparse matrix multiplication", parents=[exec_parent]
    )
    m.add_argument("a", help="first operand (.mtx)")
    m.add_argument("b", nargs="?", help="second operand (.mtx); default: A*A")
    m.add_argument("--algorithm", default="pb")
    m.add_argument("--semiring", default="plus_times")
    m.add_argument("--output", help="write the product here (.mtx)")
    m.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="peak-memory target: sizes the tile grid / enables spill "
        "(with --algorithm tiled) and gates planner candidates (with "
        "--algorithm auto)",
    )
    m.add_argument(
        "--tile-rows",
        type=int,
        default=None,
        help="rows of A per tile row panel (default: derived from "
        "--memory-budget, else monolithic)",
    )
    m.add_argument(
        "--tile-cols",
        type=int,
        default=None,
        help="columns of B per tile column panel",
    )
    m.add_argument(
        "--spill-dir",
        default=None,
        help="staging directory for spilled tile products (default: a "
        "private temp dir, removed afterwards)",
    )
    m.add_argument(
        "--shards",
        type=_shards_arg,
        default=None,
        metavar="N|auto",
        help="run the multiply across N worker processes, each owning a "
        "flop-balanced contiguous range of tile rows ('auto' derives N "
        "from os.cpu_count() and --memory-budget; 1 degrades to the "
        "in-process tiled engine).  Interactions: --memory-budget "
        "becomes a PER-SHARD bound (each worker's tile working set is "
        "sized to fit it — the aggregate grant is N x budget, which is "
        "the point of sharding); --tile-cols pins the column-panel "
        "split every shard shares; --tile-rows conflicts (the row "
        "split IS the shard assignment) as does --executor process "
        "(sharding forks its own workers).  Output is bit-identical "
        "to the single-process multiply on every semiring.",
    )
    m.set_defaults(func=_cmd_multiply)


def _build_simulate(sub):
    si = sub.add_parser("simulate", help="predicted performance on a machine model")
    si.add_argument("a", help="first operand (.mtx)")
    si.add_argument("b", nargs="?", help="second operand; default: A*A")
    si.add_argument("--algorithms", default="pb,heap,hash,hashvec")
    si.add_argument("--threads", type=int, default=None)
    si.add_argument("--sockets", type=int, default=1)
    _add_machine_arg(si)
    si.set_defaults(func=_cmd_simulate)


def _build_roofline(sub):
    r = sub.add_parser("roofline", help="AI bounds / attainable FLOPS (Fig. 3)")
    r.add_argument("--cf", default="1,2,4,8", help="comma-separated compression factors")
    _add_machine_arg(r)
    r.set_defaults(func=_cmd_roofline)


def _build_stream(sub):
    st = sub.add_parser("stream", help="STREAM bandwidth table (Table V)")
    _add_machine_arg(st)
    st.set_defaults(func=_cmd_stream)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PB-SpGEMM (SPAA 2020) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    exec_parent = _exec_parent()

    # -- matrix group -------------------------------------------------------
    mat = sub.add_parser("matrix", help="generate / inspect / multiply matrices")
    mat_sub = mat.add_subparsers(dest="subcommand", required=True)
    _build_generate(mat_sub)
    _build_stats(mat_sub)
    _build_multiply(mat_sub, exec_parent)

    # -- planner ------------------------------------------------------------
    p = sub.add_parser(
        "plan",
        help="explain the auto-tuning planner's decision for A*B",
        parents=[exec_parent],
    )
    p.add_argument("a", help="first operand (.mtx)")
    p.add_argument("b", nargs="?", help="second operand; default: A*A")
    p.add_argument("--semiring", default="plus_times")
    p.add_argument(
        "--cache-dir",
        help="planner state directory (profile + plan cache); default in-memory",
    )
    p.add_argument("--seed", type=int, default=0, help="sketch sampling seed")
    p.add_argument("--json", action="store_true", help="machine-readable dump")
    p.set_defaults(func=_cmd_plan)

    c = sub.add_parser(
        "calibrate", help="measure this machine's kernel costs into a planner profile"
    )
    c.add_argument(
        "--quick", action="store_true", help="small working sets (finishes in seconds)"
    )
    c.add_argument(
        "--cache-dir", help="also save the profile JSON here (what auto planning reads)"
    )
    c.add_argument(
        "--no-pool",
        action="store_true",
        help="skip the process-pool spawn measurement",
    )
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--json", action="store_true", help="machine-readable dump")
    c.set_defaults(func=_cmd_calibrate)

    # -- bench group --------------------------------------------------------
    bench = sub.add_parser(
        "bench", help="benchmark suites, trend store, regression gate"
    )
    bench_sub = bench.add_subparsers(dest="subcommand", required=True)

    br = bench_sub.add_parser("run", help="run one or more suites")
    br.add_argument("suites", nargs="+", help="suite names (see `repro bench list`)")
    br.add_argument(
        "--smoke",
        "--quick",
        dest="smoke",
        action="store_true",
        help="reduced workloads for CI; full-only acceptance checks skipped",
    )
    br.add_argument(
        "--reps", type=int, default=None, help="best-of repetitions (suite default)"
    )
    br.add_argument("--json", action="store_true", help="print result JSON to stdout")
    br.add_argument(
        "--output", help="write the result JSON here (single suite only)"
    )
    br.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="append results to the on-disk trend store "
        "(default dir: benchmarks/results/bench or $REPRO_BENCH_STORE)",
    )
    br.set_defaults(func=_cmd_bench_run)

    bc = bench_sub.add_parser(
        "compare", help="gate the latest stored results against a baseline"
    )
    bc.add_argument(
        "ref",
        nargs="?",
        default=None,
        help="baseline: 'auto' (prior store entry, else committed artifact), "
        "'committed', a result-file path, or a commit prefix in the store",
    )
    bc.add_argument(
        "--suites", nargs="+", help="suites to compare (default: all in the store)"
    )
    bc.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="trend store directory (default: benchmarks/results/bench "
        "or $REPRO_BENCH_STORE)",
    )
    bc.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the relative regression tolerance for every metric",
    )
    bc.set_defaults(func=_cmd_bench_compare)

    bl = bench_sub.add_parser("list", help="list registered suites")
    bl.add_argument(
        "-v", "--verbose", action="store_true", help="show workloads and checks"
    )
    bl.set_defaults(func=_cmd_bench_list)

    # -- serve --------------------------------------------------------------
    srv = sub.add_parser(
        "serve",
        parents=[exec_parent],
        help="run the async SpGEMM multiply service (repro.serve)",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=7077, help="TCP port (0 = ephemeral)"
    )
    srv.add_argument(
        "--unix", default=None, metavar="PATH",
        help="serve on a unix socket instead of TCP",
    )
    srv.add_argument(
        "--max-pending", type=int, default=256,
        help="admission control: max queued requests before 429s",
    )
    srv.add_argument(
        "--max-pending-tuples", type=int, default=64_000_000,
        help="admission control: max queued estimated flops",
    )
    srv.add_argument(
        "--max-batch", type=int, default=32,
        help="max requests coalesced into one wave",
    )
    srv.add_argument(
        "--max-batch-tuples", type=int, default=8_000_000,
        help="max estimated flops per fused wave",
    )
    srv.add_argument(
        "--warm", action="store_true",
        help="spawn and warm the worker pool before accepting traffic",
    )
    srv.add_argument(
        "--shards", type=_shards_arg, default=None, metavar="N|auto",
        help="route large multiplies through the sharded tiled executor "
        "with this many worker processes ('auto' derives from the "
        "machine); small requests keep wave batching",
    )
    srv.add_argument(
        "--shard-tuples", type=int, default=32_000_000,
        help="flop threshold for the sharded route (with --shards): "
        "requests at or above it run sharded in a wave of one",
    )
    srv.set_defaults(func=_cmd_serve)

    # -- experiments --------------------------------------------------------
    e = sub.add_parser("experiment", help="regenerate a paper figure/table")
    e.add_argument("id", help="e.g. fig7, fig11, table5 (see `repro bench list`)")
    e.add_argument("--csv", help="directory to also write CSVs into")
    e.set_defaults(func=_cmd_experiment)

    # -- machine group ------------------------------------------------------
    mach = sub.add_parser(
        "machine",
        help="analytic machine model; bare `repro machine` reports "
        "runtime capabilities (JIT engine probe, process backend)",
    )
    mach.add_argument(
        "--json", action="store_true", help="machine-readable capability dump"
    )
    mach.set_defaults(func=_cmd_machine_info)
    mach_sub = mach.add_subparsers(dest="subcommand", required=False)
    _build_simulate(mach_sub)
    _build_roofline(mach_sub)
    _build_stream(mach_sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
