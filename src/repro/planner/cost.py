"""Candidate ranking: sketch × profile → scored algorithm choices.

Every distinct registered kernel (``kernels.dispatch`` — hash, the one
panel kernel that heap / hashvec / spa also name; esc_column; pb;
tiled; sharded) is priced from the measured costs of the kernel family
that runs it (``AlgorithmInfo.family``;
:class:`~repro.planner.calibrate.MachineProfile`, DESIGN.md §10)::

    seconds = flop · t_flop + nnz(C) · t_out

PB runs on the threads :func:`repro.parallel.threads.thread_count`
gives it (or the process pool's workers), so its time is divided by
them.  Tiled and sharded add the bytes they restream over the measured
copy rate plus :data:`PER_TILE_S` per tile, and sharded adds the pool
spawn it pays every call.  Process-pool candidates (the registry's
``supports_process`` metadata) pay the calibrated ``pool_startup_s``
per standalone multiply, or only ``warm_dispatch_s`` on a session
whose pool already runs (``rank(..., warm_pool=True)``).

A ``memory_budget`` orders candidates before speed: one whose modeled
peak exceeds it loses to every candidate that fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.blocks import CSR_ENTRY_BYTES, TILE_WORKING_BYTES_PER_FLOP
from ..core.config import PBConfig
from ..core.tiled import monolithic_peak_bytes, tiled_peak_bytes
from ..kernels.dispatch import ALGORITHMS, distinct_algorithms
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..matrix.stats import flops_per_row
from ..parallel import threads
from .calibrate import MachineProfile
from .sketch import Sketch, deepen

#: Grid dimensions swept when pricing ``algorithm="tiled"``.
TILE_GRID_SWEEP = (1, 2, 4, 8, 16, 32)

#: Shard counts swept when ``PBConfig.shards`` leaves the count open
#: (those up to the usable CPUs).
SHARD_SWEEP = (2, 4, 8)

#: Fixed seconds per tile: panel slicing, the per-tile symbolic phase
#: and the Python dispatch around each small PB multiply.  Measured at
#: 0.5–1.1 ms per tile on a 2-vCPU x86-64 host (compiled tier, ER 2^12
#: and 2^14 at edge factor 16 on 16×16 and 32×32 grids).  It is what
#: stops the grid sweep from over-tiling.
PER_TILE_S = 1e-3


@dataclass(frozen=True)
class CandidateScore:
    """One priced (algorithm, executor) candidate.

    ``reason`` is ``None`` for the winner; every loser carries a short
    human-readable why-rejected string (the ``repro plan`` table).
    """

    algorithm: str
    executor: str
    nthreads: int
    predicted_seconds: float
    overrides: dict = field(default_factory=dict)
    reason: str | None = None
    #: Modeled peak resident bytes (0.0 on pre-tiling cache records,
    #: which also never carried a memory budget to gate against).
    predicted_peak_bytes: float = 0.0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "executor": self.executor,
            "nthreads": self.nthreads,
            "predicted_seconds": self.predicted_seconds,
            "predicted_peak_bytes": self.predicted_peak_bytes,
            "overrides": dict(self.overrides),
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateScore":
        return cls(
            algorithm=data["algorithm"],
            executor=data.get("executor", "serial"),
            nthreads=int(data.get("nthreads", 1)),
            predicted_seconds=float(data["predicted_seconds"]),
            overrides=dict(data.get("overrides", {})),
            reason=data.get("reason"),
            predicted_peak_bytes=float(data.get("predicted_peak_bytes", 0.0)),
        )


#: Modeled bytes per tuple of one compiled panel's scratch: a 16-byte
#: (value, column) record plus the uint32 row, uint32 column and
#: float64 value outputs.
COMPILED_PANEL_BYTES_PER_TUPLE = 32

#: Modeled bytes per output entry of a panel multiply at its peak, the
#: end of assembly: the per-panel fragments kept until then (8-byte
#: row, up to 4-byte column, 8-byte value), the narrow column arena the
#: fragments scatter into (up to 4 bytes) and the final CSR.
PANEL_BYTES_PER_OUTPUT = 24 + CSR_ENTRY_BYTES


def _panel_peak_bytes(sk: Sketch) -> float:
    """Modeled peak bytes of the panel-vectorized column algorithms.

    On top of the operands: one panel's working set, whichever of the
    numpy panel (``DEFAULT_PANEL_TUPLES`` tuples) and the compiled one
    (``COMPILED_PANEL_SCALE`` times as many) holds more; an m-length
    int64 row histogram per numpy panel (the more panels of the two);
    and :data:`PANEL_BYTES_PER_OUTPUT` per output entry, since every
    panel's fragments live until the product is assembled.
    """
    from ..kernels.column_panel import COMPILED_PANEL_SCALE, DEFAULT_PANEL_TUPLES

    inputs = CSR_ENTRY_BYTES * 2.0 * (sk.nnz_a + sk.nnz_b)
    panel = max(
        TILE_WORKING_BYTES_PER_FLOP * float(min(sk.flop, DEFAULT_PANEL_TUPLES)),
        COMPILED_PANEL_BYTES_PER_TUPLE
        * float(min(sk.flop, DEFAULT_PANEL_TUPLES * COMPILED_PANEL_SCALE)),
    )
    row_counts = 8.0 * sk.m * -(-sk.flop // DEFAULT_PANEL_TUPLES)
    return inputs + panel + row_counts + PANEL_BYTES_PER_OUTPUT * float(sk.nnz_c)


def _copy_seconds(profile: MachineProfile, entries: float) -> float:
    """Seconds to restream ``entries`` CSR entries at the copy rate."""
    return CSR_ENTRY_BYTES * float(entries) / (profile.copy_gbs * 1e9)


def _grid_dims(extent: int, pinned_tile: int | None) -> list[int]:
    """Candidate panel counts for one grid dimension."""
    extent = max(int(extent), 1)
    if pinned_tile is not None:
        return [max(1, -(-extent // max(1, min(pinned_tile, extent))))]
    return [d for d in TILE_GRID_SWEEP if d <= extent] or [1]


def _max_panel_flop(per_line: np.ndarray, panels: int) -> float:
    """Flop of the busiest of ``panels`` even panels over ``per_line``."""
    if panels <= 1 or not len(per_line):
        return float(per_line.sum())
    starts = np.linspace(0, len(per_line), panels + 1).astype(int)[:-1]
    return float(np.add.reduceat(per_line, starts).max())


def _tune_tiled(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    sk: Sketch,
    pb_s: float,
    config: PBConfig,
    profile: MachineProfile,
) -> tuple[float, dict, float]:
    """Sweep the tile grid; returns ``(seconds, overrides, peak)``.

    Each grid costs the PB time of the whole product plus its
    restreamed operand passes ((gc−1)·A, (gr−1)·B), the merge stage's
    read and write of C, and :data:`PER_TILE_S` per tile; the cheapest
    *budget-feasible* grid wins.  With no ``memory_budget`` the 1×1
    grid wins, which is right: tiling is pure cost until memory is
    the constraint.  The busiest tile's flop is the product of the
    busiest row and column panels' flop over the total (independent
    row and column structure).  Pinned ``config.tile_rows`` /
    ``tile_cols`` collapse their dimension of the sweep; the returned
    overrides only ever fill blanks.
    """
    budget = config.memory_budget
    m, n = sk.m, sk.n
    per_row = flops_per_row(a_csc, b_csr)
    per_col = flops_per_row(b_csr.transpose(), a_csc.transpose())
    total = float(max(sk.flop, 1))
    best = None
    for gr in _grid_dims(m, config.tile_rows):
        for gc in _grid_dims(n, config.tile_cols):
            ntiles = gr * gc
            restream = (gc - 1) * sk.nnz_a + (gr - 1) * sk.nnz_b
            if ntiles > 1:
                restream += 2 * sk.nnz_c
            seconds = pb_s + _copy_seconds(profile, restream) + ntiles * PER_TILE_S
            peak = tiled_peak_bytes(
                sk.flop,
                sk.nnz_a,
                sk.nnz_b,
                sk.nnz_c,
                gr,
                gc,
                max_tile_flop=(
                    _max_panel_flop(per_row, gr) * _max_panel_flop(per_col, gc) / total
                ),
            )
            key = (budget is not None and peak > budget, seconds, peak)
            if best is None or key < best[0]:
                best = (key, gr, gc)
    (_, seconds, peak), gr, gc = best
    overrides = {}
    if config.tile_rows is None:
        overrides["tile_rows"] = max(1, -(-max(m, 1) // gr))
    if config.tile_cols is None:
        overrides["tile_cols"] = max(1, -(-max(n, 1) // gc))
    return seconds, overrides, peak


def _shard_counts(sk: Sketch, config: PBConfig, cpus: int) -> list[int]:
    """Shard counts to price: the pinned one, or those this host can run
    in parallel plus the count ``"auto"`` needs to meet the budget."""
    from ..core.sharded import resolve_shards

    rows = max(sk.m, 1)
    if isinstance(config.shards, int):
        return [min(config.shards, rows)]
    budgeted = [
        resolve_shards(
            "auto", m=sk.m, flop=sk.flop, memory_budget=config.memory_budget
        )
    ]
    if config.shards == "auto":
        return budgeted
    counts = {s for s in SHARD_SWEEP if s <= cpus} or {SHARD_SWEEP[0]}
    if config.memory_budget is not None:
        counts.update(budgeted)
    return sorted({min(s, rows) for s in counts})


def _tune_sharded(
    sk: Sketch,
    pb_s: float,
    config: PBConfig,
    profile: MachineProfile,
) -> tuple[float, dict, float]:
    """Sweep shard counts; returns ``(seconds, overrides, peak)``.

    * **compute** — the one-thread PB time divided by the shards that
      run at once, ``min(shards, usable CPUs)``; extra shards only
      shrink per-process working sets.
    * **transport** — A and the B panels written to and read from
      shared memory once, and C returned, merged and assembled
      (3× its entries), all at the copy rate, plus :data:`PER_TILE_S`
      for each of the ``shards × grid_cols`` tiles.
    * **spawn** — the calibrated ``pool_startup_s`` every call: the
      sharded driver forks its own workers per multiply.

    The returned peak is the busiest *shard's* modeled resident bytes
    (:func:`repro.core.sharded.sharded_peak_bytes`) or the parent's
    assembly floor, whichever is larger — the feasibility gate compares
    it against the per-process ``memory_budget``, which is how
    ``algorithm="auto"`` picks sharded exactly when fan-out is what
    makes the budget satisfiable.
    """
    from ..core.blocks import col_panels_for
    from ..core.sharded import sharded_peak_bytes

    budget = config.memory_budget
    cpus = threads.usable_cpus()
    transport = _copy_seconds(profile, 2 * (sk.nnz_a + sk.nnz_b) + 3 * sk.nnz_c)
    parent_floor = CSR_ENTRY_BYTES * float(sk.nnz_a + sk.nnz_b + sk.nnz_c)
    best = None
    for s in _shard_counts(sk, config, cpus):
        # The driver's column split, for an even flop split over s shards.
        gc = col_panels_for(sk.n, float(sk.flop) / max(s, 1), config)
        seconds = (
            pb_s / min(s, cpus)
            + transport
            + s * gc * PER_TILE_S
            + profile.pool_startup_s
        )
        peak = max(
            sharded_peak_bytes(sk.flop, sk.nnz_a, sk.nnz_b, s, gc), parent_floor
        )
        key = (budget is not None and peak > budget, seconds, peak)
        if best is None or key < best[0]:
            best = (key, s, gc)
    (_, seconds, peak), s, gc = best
    overrides = {"shards": s}
    if config.tile_cols is None and gc > 1:
        overrides["tile_cols"] = max(1, -(-max(sk.n, 1) // gc))
    return seconds, overrides, peak


def rank(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    sk: Sketch,
    profile: MachineProfile,
    config: PBConfig | None = None,
    process_ok: bool = False,
    warm_pool: bool = False,
    threads_ok: bool = False,
) -> list[CandidateScore]:
    """Price every distinct registered kernel
    (:func:`~repro.kernels.dispatch.distinct_algorithms`); cheapest
    first.

    ``process_ok`` says whether a process pool is actually an option
    for this call (config asks for it *and* the platform supports it);
    the registry's ``supports_process`` metadata then decides which
    candidates may use it.  ``warm_pool`` says a session's pool is
    already running, so process candidates pay the calibrated
    warm-dispatch latency instead of the pool-spawn cost.
    ``threads_ok`` says the compiled PB pipeline can run this call, so
    PB and tiled run (and are priced) on ``thread_count(cfg.nthreads,
    flop)`` threads.
    """
    from ..parallel import process_backend_available

    cfg = config or PBConfig()
    sk = deepen(sk, a_csc, b_csr)
    want_threads = max(1, cfg.nthreads)
    budget = cfg.memory_budget
    pb_threads = threads.thread_count(want_threads, sk.flop) if threads_ok else 1
    scored: list[CandidateScore] = []
    for name in distinct_algorithms():
        info = ALGORITHMS[name]
        seconds = profile.kernel_seconds(info.family, sk.flop, sk.nnz_c)
        if name == "sharded":
            # Feasibility gate: the sharded executor needs POSIX shared
            # memory, and a config that asked for the (mutually
            # exclusive) process executor keeps it out of the running.
            if not process_backend_available() or cfg.executor == "process":
                continue
            seconds, overrides, peak = _tune_sharded(sk, seconds, cfg, profile)
            shards = overrides["shards"]
            scored.append(
                CandidateScore(name, "sharded", shards, seconds, overrides, None, peak)
            )
            continue
        use_process = process_ok and info.supports_process and want_threads > 1
        nthreads = min(want_threads, threads.usable_cpus()) if use_process else 1
        executor = "process" if use_process else "serial"
        if name in ("pb", "tiled") and pb_threads > 1:
            nthreads, executor = pb_threads, "threads"
        seconds /= nthreads
        overrides: dict = {}
        if name == "tiled":
            seconds, overrides, peak = _tune_tiled(
                a_csc, b_csr, sk, seconds, cfg, profile
            )
        elif info.family == "panel":
            peak = _panel_peak_bytes(sk)
        else:  # pb and esc_column expand the whole tuple stream
            peak = monolithic_peak_bytes(sk.flop, sk.nnz_a, sk.nnz_b, sk.nnz_c)
        if use_process:
            seconds += profile.warm_dispatch_s if warm_pool else profile.pool_startup_s
        scored.append(
            CandidateScore(name, executor, nthreads, seconds, overrides, None, peak)
        )

    def _infeasible(c: CandidateScore) -> bool:
        return budget is not None and c.predicted_peak_bytes > budget

    scored.sort(key=lambda c: (_infeasible(c), c.predicted_seconds, c.algorithm))
    winner = scored[0]
    out = [winner]
    for c in scored[1:]:
        ratio = c.predicted_seconds / max(winner.predicted_seconds, 1e-12)
        notes = []
        if _infeasible(c):
            notes.append(
                f"predicted peak {c.predicted_peak_bytes / 1e6:.0f} MB "
                f"exceeds memory budget {budget / 1e6:.0f} MB"
            )
        if ratio >= 1.005:
            notes.append(f"predicted {ratio:.2f}x slower than {winner.algorithm}")
        elif not notes:
            notes.append(f"tied with {winner.algorithm}; loses the name tiebreak")
        if (
            cfg.executor == "process"
            and want_threads > 1
            and not ALGORITHMS[c.algorithm].supports_process
        ):
            notes.append("no process-executor support; priced serially")
        out.append(replace(c, reason="; ".join(notes)))
    return out
