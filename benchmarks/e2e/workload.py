"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` launches this script once per measurement; nothing imports
it.  ``--mode setup`` stops as soon as the system is ready and reports
only ``setup_s``.  ``--mode run`` goes on: it generates the inputs from
the seed, times the multiplies, reads the peak RSS, then checks every
product against its reference.  With ``--trace 1`` the timed part is
repeated with the layer tracer installed, and the per-layer numbers
replace the end-to-end ones.  ``--mode copy`` measures the STREAM copy
rate instead.  The result is one JSON object written to ``--result``.
"""

import time

T0 = time.perf_counter()  # setup_s counts from the script's first line

import argparse
import asyncio
import contextlib
import json
import os
import statistics
import subprocess
import sys
import zlib
from dataclasses import replace

import numpy as np

from tracer import Tracer

MB = 1e6
#: Unix socket of the served workload, relative to the private working
#: directory run.py gives this process (keeps the path short whatever
#: the checkout's location).
SOCKET = "serve.sock"


def derive(seed: int, tag: str) -> int:
    """Generator seed for one input of one workload."""
    return zlib.crc32(f"{seed}/{tag}".encode())


def digest(c) -> list:
    """Cheap fingerprint of a CSR product, for bit-identity checks."""
    return [list(c.shape)] + [zlib.crc32(np.ascontiguousarray(arr).view(np.uint8))
                              for arr in (c.indptr, c.indices, c.data)]


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    raise RuntimeError(f"no VmHWM for process {pid}")


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Library workloads: one call into the public API per multiply.
# ---------------------------------------------------------------------------


class Library:
    """Shared driver of the four library workloads."""

    min_reps = 5

    def __init__(self, smoke: bool):
        self.smoke = smoke
        if smoke:
            self.min_reps = 2

    def setup(self) -> None:
        import repro

        self.repro = repro
        self.start()
        tiny = repro.erdos_renyi(1 << 8, edge_factor=4, seed=7)
        self.multiply(tiny, tiny)

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def reference(self, a, b):
        """The product every rep must reproduce bit for bit."""
        return self.repro.pb_spgemm(a.to_csc(), b)

    def timed_reference(self, a, b):
        t = time.perf_counter()
        ref = self.reference(a, b)
        self.reference_s = time.perf_counter() - t
        return ref

    def check(self, a, b, last, digests) -> list[str]:
        ref = digest(self.timed_reference(a, b))
        return [f"rep {i}: product differs from the reference"
                for i, d in enumerate(digests) if d != ref]

    def runtime_stats(self) -> dict:
        return {}

    def details(self) -> dict:
        """Extra facts for the result file; ``reference_s`` times the
        reference product (serial PB, the oracle, or the chosen kernel)."""
        return {"reference_s": getattr(self, "reference_s", None)}


class ErPB(Library):
    """``er14_pb``: the paper's headline squaring on the default config."""

    def inputs(self, seed):
        scale, ef = (10, 8) if self.smoke else (14, 16)
        a = self.repro.erdos_renyi(1 << scale, edge_factor=ef, seed=derive(seed, "er"))
        return a, a

    def multiply(self, a, b):
        return self.repro.multiply(a, b)

    def reference(self, a, b):
        """An independent product: values agree only up to summation order."""
        from repro.kernels import scipy_spgemm_oracle

        return scipy_spgemm_oracle(a.to_csc(), b)

    def check(self, a, b, last, digests) -> list[str]:
        ref = self.timed_reference(a, b)
        problems = []
        if not (np.array_equal(ref.indptr, last.indptr)
                and np.array_equal(ref.indices, last.indices)
                and np.allclose(ref.data, last.data)):
            problems.append("product differs from the scipy oracle")
        checked = digest(last)
        problems += [f"rep {i}: product not bit-identical to the checked one"
                     for i, d in enumerate(digests) if d != checked]
        return problems


class Rmat(Library):
    """R-MAT scale 13, edge factor 8, Graph500 parameters, squared."""

    def inputs(self, seed):
        scale = 9 if self.smoke else 13
        a = self.repro.rmat(scale, edge_factor=8, seed=derive(seed, "rmat"))
        return a, a


class RmatSession(Rmat):
    """``rmat13_session``: skewed squaring on one warm process session."""

    def start(self) -> None:
        from repro.core import PBConfig

        self.session = self.repro.Session(PBConfig(executor="process", nthreads=2))

    def multiply(self, a, b):
        return self.session.multiply(a, b)

    def runtime_stats(self) -> dict:
        return self.session.runtime_stats()

    def close(self) -> None:
        self.session.close()


class RmatAuto(Rmat):
    """``rmat13_auto``: the same input through the planner."""

    def multiply(self, a, b):
        return self.repro.multiply(a, b, algorithm="auto")

    def reference(self, a, b):
        chosen = self.repro.plan(a.to_csc(), b)
        self.chosen = {"algorithm": chosen.algorithm, "source": chosen.source}
        kwargs = {"config": chosen.config} if chosen.config is not None else {}
        return self.repro.multiply(a, b, algorithm=chosen.algorithm, **kwargs)

    def details(self) -> dict:
        return {**super().details(), "chosen": getattr(self, "chosen", None)}


class TallSkinnySharded(Library):
    """``tallskinny_sharded``: square times a BFS frontier, two shards."""

    def start(self) -> None:
        from repro.core import PBConfig

        budget = (256 << 10) if self.smoke else (32 << 20)
        self.config = PBConfig(memory_budget=budget)

    def inputs(self, seed):
        from repro.generators import tall_skinny

        if self.smoke:
            n, ef, width, per_col = 1 << 10, 8, 128, 16
        else:
            n, ef, width, per_col = 1 << 14, 16, 2048, 128
        a = self.repro.erdos_renyi(n, edge_factor=ef, seed=derive(seed, "er"))
        b = tall_skinny(n, width, per_col, seed=derive(seed, "frontier"))
        return a, b

    def multiply(self, a, b):
        return self.repro.multiply(a, b, shards=2, config=self.config)


LIBRARY = {
    "er14_pb": ErPB,
    "rmat13_session": RmatSession,
    "rmat13_auto": RmatAuto,
    "tallskinny_sharded": TallSkinnySharded,
}

COLUMN_KERNELS = ("heap", "hash", "hashvec", "spa", "esc_column")


def install_layer_patches(tracer: Tracer) -> None:
    """Wrap the public entry points of each library layer."""
    from importlib import import_module

    # import_module, not ``import a.b as m``: ``repro.core`` re-exports a
    # function named ``pb_spgemm`` that shadows the submodule attribute.
    pbmod = import_module("repro.core.pb_spgemm")
    shmod = import_module("repro.core.sharded")
    dispatch = import_module("repro.kernels.dispatch")
    planner = import_module("repro.planner")
    from repro.matrix.csc import CSCMatrix
    from repro.matrix.csr import CSRMatrix
    from repro.parallel.executor import ProcessEngine

    def pb_info(rec, res):
        rec["attrs"].update(
            flop=res.flop, nnz_c=res.nnz_c, nbins=res.layout.nbins,
            radix_passes=res.radix_passes, executor=res.executor_used,
            phase_seconds=dict(res.phase_seconds),
        )

    def sharded_info(rec, res):
        rec["attrs"].update(
            plan=res.plan.describe() if res.plan else None,
            fallback=res.fallback,
            recovered_shards=res.recovered_shards,
            shard_seconds=[s.seconds for s in res.shard_stats],
            shard_rss_mb=[s.peak_rss_bytes / MB for s in res.shard_stats],
            spilled_tiles=sum(s.spilled_tiles for s in res.shard_stats),
            broadcast_mb=res.broadcast_bytes / MB,
            returned_mb=res.returned_bytes / MB,
            merge_s=res.merge_seconds,
        )

    def plan_info(rec, plan):
        rec["attrs"].update(algorithm=plan.algorithm, source=plan.source,
                            predicted_s=plan.predicted_seconds)

    tracer.patch(CSRMatrix, "to_csc", "matrix.to_csc")
    tracer.patch(CSCMatrix, "to_csr", "matrix.to_csr")
    tracer.patch(pbmod, "pb_spgemm_detailed", "core.pb_spgemm_detailed", pb_info)
    for fn in ("symbolic_phase", "distribute_packed", "distribute_plan", "unpack_keys"):
        tracer.patch(pbmod, fn, f"core.{fn}")
    for fn in ("expand_arena", "sort_tuples", "compress_keyed"):
        tracer.patch(pbmod, fn, f"kernels.{fn}")
    for fn in ("expand", "sort_compress", "pipelined_sort_compress"):
        tracer.patch(ProcessEngine, fn, f"parallel.{fn}")
    tracer.patch(planner, "plan", "planner.plan", plan_info)
    for name in COLUMN_KERNELS:
        info = dispatch.ALGORITHMS[name]
        traced = tracer.wrap(info.func, "kernels.column")
        tracer.patch_item(dispatch.ALGORITHMS, name, replace(info, func=traced))
    tracer.patch(shmod, "sharded_spgemm_detailed", "core.sharded_spgemm_detailed",
                 sharded_info)
    tracer.patch(shmod, "hstack_tiles", "kernels.hstack_tiles")


def host_machine():
    """This host as a :class:`MachineSpec`: the laptop preset's rates
    with the cache geometry the kernel reports (the bytes model reads
    only cache sizes, line size and core count)."""
    from repro.machine.presets import laptop_generic
    from repro.machine.spec import CacheSpec

    root = "/sys/devices/system/cpu/cpu0/cache"

    def read(entry, name):
        with open(os.path.join(root, entry, name)) as fh:
            return fh.read().strip()

    caches = []
    try:
        for entry in sorted(e for e in os.listdir(root) if e.startswith("index")):
            if read(entry, "type") == "Instruction":
                continue
            size = read(entry, "size")
            size_bytes = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
            shared = 0
            for part in read(entry, "shared_cpu_list").split(","):
                lo, _, hi = part.partition("-")
                shared += int(hi or lo) - int(lo) + 1
            caches.append(CacheSpec(f"L{read(entry, 'level')}", size_bytes,
                                    int(read(entry, "coherency_line_size")),
                                    int(read(entry, "ways_of_associativity")), shared))
    except (OSError, ValueError):
        caches = []
    if not caches:
        return laptop_generic()
    return replace(laptop_generic(), name="host", sockets=1,
                   cores_per_socket=os.cpu_count() or 1, caches=tuple(caches))


def pb_phase_bytes(a, b, nnz_c: int, nbins: int) -> dict:
    """Computed read+write bytes of each PB phase (paper Table III)."""
    from repro.core import PBConfig
    from repro.costmodel.bytes_model import pb_phase_costs
    from repro.costmodel.phases import workload_stats

    stats = workload_stats(a.to_csc(), b, nnz_c=nnz_c)
    costs = pb_phase_costs(stats, host_machine(), PBConfig(), nbins=nbins)
    return {p.name: p.dram_read_bytes + p.dram_write_bytes for p in costs}


def timed_reps(wl, a, b, min_reps: int, seconds: float):
    """Back-to-back multiplies until ``seconds`` pass and ``min_reps``
    are done; the previous product is dropped before the next call."""
    times, digests, c = [], [], None
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < seconds:
        c = None
        t = time.perf_counter()
        c = wl.multiply(a, b)
        times.append(time.perf_counter() - t)
        digests.append(digest(c))
    return times, digests, c


def run_library(args) -> dict:
    wl = LIBRARY[args.workload](args.smoke)
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        wl.close()
        return {"setup_s": setup_s}
    a, b = wl.inputs(args.seed)
    c = wl.multiply(a, b)  # untimed warm-up
    digests = [digest(c)]
    c = None
    out = {"setup_s": setup_s, "inputs": {
        "a_shape": list(a.shape), "b_shape": list(b.shape),
        "nnz_a": a.nnz, "nnz_b": b.nnz}}
    if not args.trace:
        times, reps, c = timed_reps(wl, a, b, wl.min_reps, args.seconds)
        peak = vm_hwm_mb()
        out["metrics"] = {"multiply_s": median(times), "peak_rss_mb": peak}
        out["samples"] = {"multiply_s": times,
                          "capacity_rps": len(times) / sum(times)}
    else:
        # Traced reps interleaved with untraced ones, which give
        # trace.overhead_frac without drift between two blocks of reps.
        order = "UT" if args.smoke else "TUTUT"
        tracer, untraced, reps = Tracer(), [], []
        before = wl.runtime_stats()
        for i, kind in enumerate(order):
            c = None
            if kind == "U":
                t = time.perf_counter()
                c = wl.multiply(a, b)
                untraced.append(time.perf_counter() - t)
            else:
                install_layer_patches(tracer)
                try:
                    with tracer.span("multiply", rep=i):
                        c = wl.multiply(a, b)
                finally:
                    tracer.restore()
            reps.append(digest(c))
        after = wl.runtime_stats()
        out["metrics"] = library_layers(wl, tracer, untraced, a, b, c, before, after)
        out["samples"] = {"untraced_s": untraced}
        tracer.write_chrome(args.trace_file, args.workload,
                            {"workload": args.workload, "seed": args.seed})
    out["nnz_c"] = c.nnz
    problems = wl.check(a, b, c, digests + reps)
    out["attempted"] = 1 + len(reps)
    out["failed"] = len(problems)
    out["problems"] = problems
    out.update(wl.details())
    wl.close()
    return out


def library_layers(wl, tracer, untraced, a, b, c, before, after) -> dict:
    """Per-layer metrics of the traced reps (medians over reps)."""
    roots = tracer.roots("multiply")
    walls = [r["end"] - r["start"] for r in roots]
    selfs = [tracer.self_seconds(r) for r in roots]

    def share(*names):
        return median([sum(s.get(n, 0.0) for n in names) / w
                       for s, w in zip(selfs, walls)])

    m = {
        "trace.wall_s": median(walls),
        "trace.other_frac": share("multiply"),
        "trace.overhead_frac": ratio(median(walls), median(untraced)) - 1.0,
        "matrix.convert_share": share("matrix.to_csc", "matrix.to_csr"),
        "core.symbolic_share": share("core.symbolic_phase"),
        "core.distribute_share": share("core.distribute_packed", "core.distribute_plan"),
        "core.unpack_share": share("core.unpack_keys"),
        "core.csr_assemble_share": share("core.pb_spgemm_detailed"),
        "kernels.expand_share": share("kernels.expand_arena"),
        "kernels.sort_share": share("kernels.sort_tuples"),
        "kernels.compress_share": share("kernels.compress_keyed"),
        "kernels.column_share": share("kernels.column"),
        "kernels.tile_merge_share": share("kernels.hstack_tiles"),
        "parallel.wait_share": share("parallel.expand", "parallel.sort_compress",
                                     "parallel.pipelined_sort_compress"),
        "planner.plan_share": share("planner.plan"),
        "sharded.parent_share": share("core.sharded_spgemm_detailed"),
    }

    # PB phases: only a PB call over the whole product (flop equal to the
    # workload's) has phase bytes that follow from the workload's inputs;
    # the sharded path's per-tile calls do not.
    flop = int(a.to_csc().col_nnz() @ b.row_nnz())
    pb = [[s for s in tracer.descendants(r, "core.pb_spgemm_detailed")
           if s["attrs"].get("flop") == flop] for r in roots]
    pb = [calls[0] for calls in pb if calls]
    passes = [s["attrs"]["radix_passes"] for r in roots
              for s in tracer.descendants(r, "core.pb_spgemm_detailed")]
    m["kernels.sort_passes"] = max(passes, default=0)
    gbps = {k: 0.0 for k in ("expand", "sort", "compress", "sort_compress")}
    expand_imb, sc_imb, idle = [], [], []
    if pb:
        nbytes = pb_phase_bytes(a, b, c.nnz, pb[0]["attrs"]["nbins"])
        nbytes["sort_compress"] = nbytes["sort"] + nbytes["compress"]
        ps = [s["attrs"]["phase_seconds"] for s in pb]
        gbps["expand"] = nbytes["expand"] / median([p["expand"] for p in ps]) / 1e9
        gbps["sort_compress"] = (nbytes["sort_compress"]
                                 / median([p["sort_compress"] for p in ps]) / 1e9)
        if all(p.get("expand_workers") is None for p in ps):
            # Serial: sort and compress run in this process, one span each.
            for phase, span in (("sort", "kernels.sort_tuples"),
                                ("compress", "kernels.compress_keyed")):
                gbps[phase] = nbytes[phase] / median([s[span] for s in selfs]) / 1e9
        for p in ps:
            ew, sw = p.get("expand_workers"), p.get("sort_compress_workers")
            if ew and sw:
                expand_imb.append(max(ew) / statistics.mean(ew))
                sc_imb.append(max(sw) / statistics.mean(sw))
                nworkers = wl.session.config.nthreads
                busy = sum(ew) + sum(sw)
                idle.append(1.0 - busy / (nworkers * (p["expand"] + p["sort_compress"])))
    for phase, value in gbps.items():
        m[f"phase.{phase}.gbps"] = value
    m["parallel.expand_imbalance"] = median(expand_imb)
    m["parallel.sort_compress_imbalance"] = median(sc_imb)
    m["parallel.idle_frac"] = median(idle)

    leases = hits = 0
    if before.get("arena_pool") and after.get("arena_pool"):
        leases = after["arena_pool"]["leases"] - before["arena_pool"]["leases"]
        hits = after["arena_pool"]["hits"] - before["arena_pool"]["hits"]
    m["parallel.arena_hit_ratio"] = ratio(hits, leases)
    m["session.engine_spawns"] = after.get("engine_spawns", 0)
    m["session.engine_restarts"] = after.get("engine_restarts", 0)

    plans = [s for r in roots for s in tracer.descendants(r, "planner.plan")]
    kernels = [s for r in roots for s in tracer.descendants(r, "kernels.column")]
    m["planner.cache_hit_ratio"] = ratio(
        sum(1 for s in plans if s["attrs"]["source"] != "model"), len(plans))
    m["planner.model_ratio"] = median([
        p["attrs"]["predicted_s"] / (k["end"] - k["start"])
        for p, k in zip(plans, kernels)])

    shard_runs = [s["attrs"] for r in roots
                  for s in tracer.descendants(r, "core.sharded_spgemm_detailed")]
    shard_max, shard_imb = [], []
    for attrs, wall in zip(shard_runs, walls):
        secs = attrs["shard_seconds"]
        if secs:
            shard_max.append(max(secs) / wall)
            shard_imb.append(max(secs) / statistics.mean(secs))
    m["sharded.shard_max_share"] = median(shard_max)
    m["sharded.shard_imbalance"] = median(shard_imb)
    m["sharded.merge_share"] = median([s["merge_s"] / w for s, w in zip(shard_runs, walls)])
    m["sharded.recovered_shards"] = max((s["recovered_shards"] for s in shard_runs), default=0)
    m["sharded.broadcast_mb"] = median([s["broadcast_mb"] for s in shard_runs])
    m["sharded.returned_mb"] = median([s["returned_mb"] for s in shard_runs])
    m["sharded.spilled_tiles"] = max((s["spilled_tiles"] for s in shard_runs), default=0)
    m["sharded.max_shard_rss_mb"] = max(
        (max(s["shard_rss_mb"], default=0.0) for s in shard_runs), default=0.0)
    return m


# ---------------------------------------------------------------------------
# The served workload: `repro serve` in a subprocess, one multiplexed client.
# ---------------------------------------------------------------------------

#: Request mix, cycled: (log2 n, nonzeros per column) of ER operands.
SERVE_MIX = ((6, 4), (7, 4), (7, 8), (8, 4))
#: Distinct operands per mix entry.
SERVE_VARIANTS = 8
#: Requests in flight during the closed-loop phase.
SERVE_INFLIGHT = 16


class ServeMix:
    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.rate = 20.0 if smoke else 100.0
        self.proc = None
        self.client = None

    async def setup(self) -> None:
        import repro
        from repro.serve.client import ServeClient

        self.repro = repro
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", SOCKET],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + 60.0
        while self.client is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                self.client = await ServeClient.connect(unix_path=SOCKET)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.005)
        if not await self.client.ping():
            raise RuntimeError("server did not answer ping")
        tiny = repro.erdos_renyi(1 << 6, edge_factor=4, seed=7)
        await self.client.multiply(tiny, tiny)

    async def close(self) -> None:
        if self.client is not None:
            try:
                await self.client.shutdown()
            except ConnectionError:
                pass
            await self.client.close()
        if self.proc is not None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def inputs(self, seed: int) -> None:
        """Operand pool and serial PB references, off the clock."""
        self.pool = []
        for v in range(SERVE_VARIANTS):
            for scale, ef in SERVE_MIX:
                a = self.repro.erdos_renyi(
                    1 << scale, edge_factor=ef, seed=derive(seed, f"serve/{scale}/{ef}/{v}"))
                self.pool.append((a, self.repro.pb_spgemm(a.to_csc(), a)))

    async def request(self, i: int, due: float, tracer=None) -> dict:
        """One multiply; latency counts from ``due`` (open loop) or from
        the call (closed loop)."""
        from repro.serve.client import RemoteError, RequestRejected

        a, ref = self.pool[i % len(self.pool)]
        span = tracer.span("request", i=i) if tracer else contextlib.nullcontext()
        with span as rec:
            try:
                reply = await self.client.multiply(a, a)
            except (RequestRejected, RemoteError) as exc:
                return {"ok": False, "error": str(exc)}
        done = time.perf_counter()
        ok = (reply.c.shape == ref.shape
              and np.array_equal(reply.c.indptr, ref.indptr)
              and np.array_equal(reply.c.indices, ref.indices)
              and reply.c.data.tobytes() == ref.data.tobytes())
        return {"ok": ok, "latency": done - due, "timings": reply.timings,
                "batch": reply.batch, "span": rec}

    async def open_loop(self, duration: float, tracer=None):
        """Requests at a fixed rate regardless of replies; returns the
        outcomes and how late the generator sent each one."""
        interval = 1.0 / self.rate
        count = max(1, int(round(duration * self.rate)))
        start = time.perf_counter() + 0.01
        tasks, late = [], []
        for i in range(count):
            due = start + i * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, time.perf_counter() - due))
            tasks.append(asyncio.create_task(self.request(i, due, tracer)))
        return await asyncio.gather(*tasks), late

    async def closed_loop(self, duration: float):
        """``SERVE_INFLIGHT`` callers that each wait for their reply."""
        outcomes = []
        counter = iter(range(1 << 30))
        start = time.perf_counter()
        stop = start + duration

        async def caller():
            while time.perf_counter() < stop:
                outcomes.append(await self.request(next(counter), time.perf_counter()))

        await asyncio.gather(*(caller() for _ in range(SERVE_INFLIGHT)))
        return outcomes, len(outcomes) / (time.perf_counter() - start)


async def run_serve(args) -> dict:
    wl = ServeMix(args.smoke)
    try:
        await wl.setup()
        setup_s = time.perf_counter() - T0
        if args.mode == "setup":
            return {"setup_s": setup_s}
        wl.inputs(args.seed)
        warm = [await wl.request(i, time.perf_counter()) for i in range(len(wl.pool))]
        out = {"setup_s": setup_s, "rate_rps": wl.rate, "inflight": SERVE_INFLIGHT}
        if not args.trace:
            if args.smoke:
                open_s, closed_s = 2.0, 1.0
            else:
                open_s, closed_s = 0.6 * args.seconds, 0.4 * args.seconds
            opened, late = await wl.open_loop(open_s)
            closed, capacity = await wl.closed_loop(closed_s)
            peak = vm_hwm_mb(wl.proc.pid)
            lat = [o["latency"] for o in opened if o["ok"]]
            out["metrics"] = {"multiply_s": median(lat), "peak_rss_mb": peak}
            out["samples"] = {"open_loop_requests": len(opened),
                              "closed_loop_requests": len(closed),
                              "capacity_rps": capacity,
                              "latency_p90_s": quantile(lat, 0.9),
                              "latency_p99_s": quantile(lat, 0.99),
                              "generator_late_p99_s": quantile(late, 0.99)}
            outcomes = warm + opened + closed
        else:
            span_s = 1.0 if args.smoke else 0.4 * args.seconds
            plain, late = await wl.open_loop(span_s)
            tracer = Tracer()
            import repro.serve.client as client_mod

            for fn in ("encode_matrix", "decode_matrix"):
                tracer.patch(client_mod, fn, f"serve.{fn}")
            try:
                traced, _ = await wl.open_loop(span_s, tracer)
            finally:
                tracer.restore()
            stats = await wl.client.stats()
            out["metrics"] = serve_layers(wl, tracer, plain, traced, late, stats)
            tracer.write_chrome(args.trace_file, args.workload,
                                {"workload": args.workload, "seed": args.seed})
            outcomes = warm + plain + traced
        out["server_stats"] = await wl.client.stats()
        failed = [o for o in outcomes if not o["ok"]]
        out["attempted"] = len(outcomes)
        out["failed"] = len(failed)
        out["problems"] = sorted({o.get("error", "product differs from the reference")
                                  for o in failed})
        return out
    finally:
        await wl.close()


def serve_layers(wl, tracer, plain, traced, late, stats) -> dict:
    ok = [o for o in traced if o["ok"]]
    for o in ok:
        rec, t = o["span"], o["timings"]
        enc = tracer.descendants(rec, "serve.encode_matrix")
        dec = tracer.descendants(rec, "serve.decode_matrix")
        # The server's own interval, measured server-side: placed inside
        # the gap between the client's encode and decode (its exact
        # position on the client clock is unknown).
        gap_lo = max((s["end"] for s in enc), default=rec["start"])
        gap_hi = min((s["start"] for s in dec), default=rec["end"])
        server_s = min(t["total_s"], max(gap_hi - gap_lo, 0.0))
        lo = gap_lo + (gap_hi - gap_lo - server_s) / 2
        tracer.add_span("serve.server", lo, lo + server_s, rec["id"],
                        queue_wait_s=t["queue_wait_s"], compute_s=t["compute_s"],
                        wave=o["batch"].get("id"), wave_size=o["batch"].get("size"))
    walls, shares = [], {k: [] for k in ("queue", "compute", "server", "wire",
                                         "encode", "decode", "other")}
    for o in ok:
        rec, t = o["span"], o["timings"]
        wall = rec["end"] - rec["start"]
        own = tracer.self_seconds(rec)
        walls.append(wall)
        shares["queue"].append(t["queue_wait_s"] / wall)
        shares["compute"].append(t["compute_s"] / wall)
        shares["server"].append(t["total_s"] / wall)
        shares["wire"].append((wall - t["total_s"]) / wall)
        shares["encode"].append(own.get("serve.encode_matrix", 0.0) / wall)
        shares["decode"].append(own.get("serve.decode_matrix", 0.0) / wall)
        shares["other"].append(own.get("request", 0.0) / wall)
    waves = {o["batch"].get("id") for o in ok}
    plain_lat = [o["latency"] for o in plain if o["ok"]]
    traced_lat = [o["latency"] for o in ok]
    session = stats.get("session", {})
    return {
        "trace.wall_s": median(walls),
        "trace.other_frac": median(shares["other"]),
        "trace.overhead_frac": ratio(median(traced_lat), median(plain_lat)) - 1.0,
        "serve.queue_wait_share": median(shares["queue"]),
        "serve.compute_share": median(shares["compute"]),
        "serve.server_share": median(shares["server"]),
        "serve.wire_share": median(shares["wire"]),
        "serve.encode_share": median(shares["encode"]),
        "serve.decode_share": median(shares["decode"]),
        "serve.mean_wave_size": ratio(len(ok), len(waves)),
        "serve.fused_frac": ratio(sum(1 for o in ok if o["batch"].get("fused")), len(ok)),
        "serve.rejected": stats.get("server", {}).get("counters", {}).get("rejected", 0),
        "serve.generator_late_p99_slots": quantile(late, 0.99) * wl.rate,
        "session.engine_spawns": session.get("engine_spawns", 0),
        "session.engine_restarts": session.get("engine_restarts", 0),
    }


# ---------------------------------------------------------------------------
# STREAM copy
# ---------------------------------------------------------------------------


def stream_copy(nbytes: int, reps: int = 6) -> dict:
    """STREAM-convention copy rate: two arrays of ``nbytes`` each, bytes
    counted as read + write, best of ``reps`` after a faulting pass."""
    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t)
    return {"copy_gbps": 2 * src.nbytes / best / 1e9, "array_bytes": src.nbytes}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--mode", choices=("setup", "run", "copy"), default="run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--result", required=True)
    args = p.parse_args()
    if args.mode == "copy":
        out = stream_copy((64 << 20) if args.smoke else (1280 << 20))
    elif args.workload == "serve_mix":
        out = asyncio.run(run_serve(args))
    else:
        out = run_library(args)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
