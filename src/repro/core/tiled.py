"""Tiled out-of-core PB-SpGEMM: the block core run in process with spill.

The monolithic pipeline's peak memory scales with *flop* — the expand
arena plus the binned key/value copies hold every generated tuple at
once — which caps problem size far below what the streaming substrate
(Session / ArenaPool) could serve.  This driver bounds the peak by
*tile size* instead (DESIGN.md §16): it runs the block core of
:mod:`repro.core.blocks` — row panels of A against pre-split column
panels of B, each tile one small PB-SpGEMM — in this process, so the
working set is one tile's flop.  Tiles are bit-identical sub-blocks of
the monolithic product for every semiring (k is never split).

Streaming and spill
-------------------
Every tile multiply runs on the one engine
:func:`~repro.parallel.executor.engine_scope` resolves for the grid (a
warm :class:`repro.session.Session`'s, or one private engine spawned
for the whole grid), so pools are never spawned per tile.  Staged
tile products and merged row panels pass through a
:class:`SpillStore`: a bounded in-memory cache that evicts
oldest-first to ``.npz`` files in a staging directory once
``memory_budget`` is exceeded, giving true out-of-core operation for
products larger than memory (minus the final in-memory CSR, which the
caller receives).
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..kernels.tile_merge import hstack_tiles
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..matrix.ops import row_slice
from ..parallel.executor import engine_scope
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .blocks import (
    CSR_ENTRY_BYTES,
    MAX_GRID_DIM,
    TILE_WORKING_BYTES_PER_FLOP,
    BlockGrid,
    assemble_rows,
    row_panel_tiles,
    split_col_panels,
    uniform_edges,
)
from .config import PBConfig, effective_config

#: How ``memory_budget`` is apportioned: one tile's modeled working
#: set gets ``budget // WORKING_BUDGET_DENOM`` and the in-memory
#: staging cache (:class:`SpillStore`) gets
#: ``budget // STAGING_BUDGET_DENOM``; everything else — both input
#: orientations, the final assembled CSR, merge transients — lives in
#: the remaining headroom.  Deliberately conservative: the assembled
#: product alone is an irreducible ``CSR_ENTRY_BYTES * nnz_c`` floor,
#: so the tunable shares must stay small for the whole multiply to
#: land under the budget.
WORKING_BUDGET_DENOM = 6
STAGING_BUDGET_DENOM = 8


def grid_for_budget(
    m: int, n: int, flop: int, memory_budget: int
) -> tuple[int, int]:
    """Near-square ``(grid_rows, grid_cols)`` fitting a byte budget.

    Sizes the grid so one tile's modeled working set
    (``TILE_WORKING_BYTES_PER_FLOP`` per tuple, tuples assumed spread
    evenly) uses at most ``budget // WORKING_BUDGET_DENOM`` — the rest
    is headroom for the staging cache, the inputs, and the assembled
    product — clamped to :data:`MAX_GRID_DIM` per dimension and to the
    matrix extents.
    """
    usable = max(int(memory_budget) // WORKING_BUDGET_DENOM, 1)
    ntiles = max(1, math.ceil(int(flop) * TILE_WORKING_BYTES_PER_FLOP / usable))
    side = max(1, math.ceil(math.sqrt(ntiles)))
    gr = min(side, MAX_GRID_DIM, max(m, 1))
    gc = min(max(1, math.ceil(ntiles / gr)), MAX_GRID_DIM, max(n, 1))
    return gr, gc


def plan_tile_grid(
    m: int, n: int, flop: int, config: PBConfig | None = None
) -> BlockGrid:
    """Resolve THE tile grid for one multiply (the single policy point).

    Explicit ``config.tile_rows`` / ``tile_cols`` pin their dimension
    (clamped to the matrix, so a tile larger than the matrix degrades
    to one panel).  Unpinned dimensions fall back to the
    ``memory_budget`` heuristic (:func:`grid_for_budget`) when a budget
    is set, else to a single monolithic panel.
    """
    cfg = config or PBConfig()
    tr, tc = cfg.tile_rows, cfg.tile_cols
    if (tr is None or tc is None) and cfg.memory_budget is not None:
        gr, gc = grid_for_budget(m, n, flop, cfg.memory_budget)
        if tr is None:
            tr = max(1, math.ceil(m / gr)) if m else 1
        if tc is None:
            tc = max(1, math.ceil(n / gc)) if n else 1
    if tr is None:
        tr = max(m, 1)
    if tc is None:
        tc = max(n, 1)
    return BlockGrid(uniform_edges(m, tr), uniform_edges(n, tc))


def monolithic_peak_bytes(
    flop: int, nnz_a: int, nnz_b: int, nnz_c: int
) -> float:
    """Modeled peak bytes of one monolithic PB multiply: a 1x1 grid."""
    return tiled_peak_bytes(flop, nnz_a, nnz_b, nnz_c, 1, 1)


def tiled_peak_bytes(
    flop: int,
    nnz_a: int,
    nnz_b: int,
    nnz_c: int,
    grid_rows: int,
    grid_cols: int,
    max_tile_flop: float | None = None,
) -> float:
    """Modeled peak bytes of a tiled multiply on a given grid.

    The working set shrinks to the busiest tile's flop; the final CSR
    (all of ``nnz_c``) still materializes in memory at assembly, which
    is the irreducible floor of returning an in-memory product.
    """
    inputs = CSR_ENTRY_BYTES * 2.0 * (nnz_a + nnz_b)
    if max_tile_flop is None:
        max_tile_flop = float(flop) / max(grid_rows * grid_cols, 1)
    working = TILE_WORKING_BYTES_PER_FLOP * float(max_tile_flop)
    return inputs + working + CSR_ENTRY_BYTES * float(nnz_c)


class SpillStore:
    """Bounded staging area for tile products, spilling oldest to disk.

    Entries are CSR blocks keyed by string.  While total staged bytes
    stay within ``mem_budget`` everything lives in an in-memory dict;
    beyond it, the oldest entries are written as ``.npz`` files
    (arrays ``indptr``/``indices``/``data`` plus the 2-vector
    ``shape`` — the spill format of DESIGN.md §16) under ``spill_dir``
    and dropped from memory.  ``pop`` restores from either place and
    deletes the entry.  With ``mem_budget=None`` nothing ever spills.

    The staging directory is created lazily on first spill —
    ``tempfile.mkdtemp`` when the caller gave none — and removed by
    :meth:`close` only if this store created it.  Only the process that
    owns the store ever writes to it: shards stream their tiles to the
    parent and never stage, so a killed worker cannot orphan a file.
    """

    def __init__(
        self,
        spill_dir: str | None = None,
        mem_budget: int | None = None,
    ) -> None:
        self._requested_dir = spill_dir
        self._dir: str | None = None
        self._own_dir = False
        self._budget = None if mem_budget is None else max(int(mem_budget), 0)
        self._mem: dict[str, CSRMatrix] = {}
        self._bytes = 0
        self.peak_bytes = 0  # high-water mark of staged_bytes
        self._on_disk: dict[str, str] = {}
        self.spilled_entries = 0
        self.spilled_bytes = 0

    @staticmethod
    def _size(mat: CSRMatrix) -> int:
        return mat.indptr.nbytes + mat.indices.nbytes + mat.data.nbytes

    @property
    def staging_dir(self) -> str | None:
        """The directory holding spilled files (``None`` until a spill)."""
        return self._dir

    @property
    def staged_bytes(self) -> int:
        """Bytes currently held in memory (spilled entries excluded)."""
        return self._bytes

    def _ensure_dir(self) -> str:
        if self._dir is None:
            if self._requested_dir is not None:
                os.makedirs(self._requested_dir, exist_ok=True)
                self._dir = self._requested_dir
            else:
                self._dir = tempfile.mkdtemp(prefix="repro-tiled-")
                self._own_dir = True
        return self._dir

    def put(self, key: str, mat: CSRMatrix) -> None:
        self.pop(key)  # replace semantics
        self._mem[key] = mat
        self._bytes += self._size(mat)
        self._evict()
        self.peak_bytes = max(self.peak_bytes, self._bytes)

    def _evict(self) -> None:
        if self._budget is None:
            return
        while self._bytes > self._budget and self._mem:
            key, mat = next(iter(self._mem.items()))
            del self._mem[key]
            size = self._size(mat)
            self._bytes -= size
            path = os.path.join(self._ensure_dir(), f"{key}.npz")
            np.savez(
                path,
                shape=np.asarray(mat.shape, dtype=np.int64),
                indptr=mat.indptr,
                indices=mat.indices,
                data=mat.data,
            )
            self._on_disk[key] = path
            self.spilled_entries += 1
            self.spilled_bytes += size

    def pop(self, key: str) -> CSRMatrix | None:
        mat = self._mem.pop(key, None)
        if mat is not None:
            self._bytes -= self._size(mat)
            return mat
        path = self._on_disk.pop(key, None)
        if path is None:
            return None
        with np.load(path) as payload:
            mat = CSRMatrix(
                tuple(int(x) for x in payload["shape"]),
                payload["indptr"],
                payload["indices"],
                payload["data"],
                validate=False,
            )
        os.unlink(path)
        return mat

    def close(self) -> None:
        """Drop staged state; remove the staging dir if this store made it."""
        self._mem.clear()
        self._bytes = 0
        for path in self._on_disk.values():
            try:
                os.unlink(path)
            except OSError:
                pass
        self._on_disk.clear()
        if self._own_dir and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
        self._dir = None
        self._own_dir = False

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class TiledResult:
    """The product plus everything observable about the tiled run."""

    c: CSRMatrix
    grid: BlockGrid
    tiles_computed: int = 0
    tiles_empty: int = 0
    spilled_tiles: int = 0
    spilled_bytes: int = 0
    peak_tile_flop: int = 0
    total_flop: int = 0
    peak_staged_bytes: int = 0
    predicted_peak_bytes: float = 0.0
    seconds: float = 0.0
    merge_seconds: float = 0.0
    executor_used: str = "serial"


def run_tile_grid(
    a,
    b_csr: CSRMatrix,
    grid: BlockGrid,
    sr: Semiring,
    cfg: PBConfig,
    session=None,
    staging_budget: int | None = None,
) -> TiledResult:
    """Execute a given :class:`BlockGrid` in this process on one engine.

    Tiles and merged row panels wait in a :class:`SpillStore` bounded
    by ``staging_budget`` (``None`` never spills).  ``a`` may be CSC or
    CSR.  Fills every :class:`TiledResult` field except ``total_flop``,
    ``predicted_peak_bytes`` and ``seconds``, which belong to the caller.
    """
    m, n = a.shape[0], b_csr.shape[1]
    store = SpillStore(cfg.spill_dir, staging_budget)
    dtypes = (a.data.dtype, b_csr.data.dtype)
    with engine_scope(cfg, sr, session, dtypes) as engine, store:
        result = TiledResult(
            c=CSRMatrix.empty((m, n)),
            grid=grid,
            executor_used="process" if engine is not None else "serial",
        )
        a_csr = a.to_csr() if grid.grid_rows > 1 else None
        b_panels = split_col_panels(b_csr, grid.col_edges)
        panel_nnz: list[int] = []
        for i, rlo, rhi in grid.row_panels():
            # single row panel: A is already panel-shaped
            a_i = a.to_csc() if a_csr is None else row_slice(a_csr, rlo, rhi).to_csc()
            tiles = row_panel_tiles(a_i, b_panels, sr, cfg, engine)
            for j, (tile_flop, c_ij) in enumerate(tiles):
                if c_ij is None:
                    result.tiles_empty += 1
                    continue
                result.tiles_computed += 1
                result.peak_tile_flop = max(result.peak_tile_flop, tile_flop)
                store.put(f"tile-{i}-{j}", c_ij)
            t0 = time.perf_counter()
            staged = [
                store.pop(f"tile-{i}-{j}") for j in range(grid.grid_cols)
            ]
            merged = hstack_tiles(staged, grid.col_starts, rhi - rlo, n, sr)
            result.merge_seconds += time.perf_counter() - t0
            panel_nnz.append(merged.nnz)
            store.put(f"panel-{i}", merged)
            del merged, staged
        result.c = assemble_rows(
            (m, n), grid.row_edges, panel_nnz, lambda i: store.pop(f"panel-{i}")
        )
        result.spilled_tiles = store.spilled_entries
        result.spilled_bytes = store.spilled_bytes
        result.peak_staged_bytes = store.peak_bytes
    return result


def tiled_spgemm_detailed(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    session=None,
) -> TiledResult:
    """C = A · B over a 2D tile grid of small PB-SpGEMMs.

    ``session`` — a :class:`repro.session.Session` whose warm engine
    every tile multiply runs on.  Without one, ``executor="process"``
    spawns **one** private engine for the whole grid (never per tile)
    and closes it at the end; configs that resolve to serial run
    serially.  Output is bit-identical to the monolithic
    :func:`repro.core.pb_spgemm` for every semiring and every grid (see
    :mod:`repro.core.blocks`).
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    cfg = effective_config(config, session)
    sr = get_semiring(semiring)

    t_start = time.perf_counter()
    total_flop = int(a_csc.col_nnz() @ b_csr.row_nnz())
    grid = plan_tile_grid(a_csc.shape[0], b_csr.shape[1], total_flop, cfg)
    staging_budget = (
        None
        if cfg.memory_budget is None
        else max(cfg.memory_budget // STAGING_BUDGET_DENOM, 1)
    )
    result = run_tile_grid(a_csc, b_csr, grid, sr, cfg, session, staging_budget)
    result.total_flop = total_flop
    result.predicted_peak_bytes = tiled_peak_bytes(
        total_flop,
        a_csc.nnz,
        b_csr.nnz,
        result.c.nnz,
        grid.grid_rows,
        grid.grid_cols,
        max_tile_flop=result.peak_tile_flop or None,
    )
    result.seconds = time.perf_counter() - t_start
    return result


def tiled_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    session=None,
) -> CSRMatrix:
    """C = A · B through the tile grid; see :func:`tiled_spgemm_detailed`."""
    return tiled_spgemm_detailed(a_csc, b_csr, semiring, config, session=session).c


def partitioned_pb_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    npartitions: int = 2,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    *,
    session=None,
) -> CSRMatrix:
    """C = A · B with A split into ``npartitions`` row blocks: the NUMA
    variant of paper Sec. V-D.

    The author's thesis variant of the dual-socket experiment (Fig. 14)
    gives each socket one row block of A and an independent PB-SpGEMM
    against all of B, so its bins stay local; the price is reading B
    once per partition (:func:`repro.simulate.simulate_partitioned_pb`
    models the bandwidth).  Here it is :func:`run_tile_grid` on a
    row-only grid of ``npartitions`` equal row ranges (clamped to the
    row count) with panels staged in memory: ``memory_budget`` and
    ``spill_dir`` do not apply.  ``a_csc`` may also be CSR; ``session``
    works as for :func:`tiled_spgemm_detailed`.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    if npartitions < 1:
        raise ValueError(f"npartitions must be >= 1, got {npartitions}")
    m, n = a_csc.shape[0], b_csr.shape[1]
    npartitions = min(npartitions, max(m, 1))
    edges = np.linspace(0, m, npartitions + 1).astype(int)
    grid = BlockGrid(tuple(int(x) for x in edges), (0, n))
    cfg = effective_config(config, session)
    return run_tile_grid(a_csc, b_csr, grid, get_semiring(semiring), cfg, session).c
