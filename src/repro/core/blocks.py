"""The block-decomposition core of tiled, sharded, partitioned and fused SpGEMM.

Every memory- or process-bounded driver cuts ``C = A · B`` the same way
(DESIGN.md §16): a :class:`BlockGrid` of row edges over A and column
edges over B, B split into column panels converted to CSR once, one
tile loop that multiplies a row panel of A against those panels, a
``hstack_tiles`` column merge per row panel, and one preallocated-CSR
assembler that stacks the merged row panels.  The drivers differ only
in the grid and in *where* the tile loop runs:

* :mod:`repro.core.tiled` — the in-process runner
  (:func:`~repro.core.tiled.run_tile_grid`), panels staged in a
  :class:`~repro.core.tiled.SpillStore`; the tiled grid comes from
  :func:`~repro.core.tiled.plan_tile_grid`, the NUMA-partitioned grid
  (:func:`~repro.core.tiled.partitioned_pb_spgemm`) is row-only;
* :mod:`repro.core.sharded` — one worker process per row panel,
  tiles streamed back to the parent, which merges and assembles;
* :func:`fused_multiply_detailed` — the other way round: a wave of
  independent products as ONE multiply over block-diagonal operands,
  split afterwards along a diagonal grid.

Bit-identity
------------
The grid is strictly 2D — the inner (k) dimension is never split.  A
tile ``C[i,j] = A[i,:] · B[:,j]`` therefore folds, for every output
position, exactly the value sequence the monolithic multiply folds, in
k order: tiles are bit-identical sub-blocks of the monolithic product
for **all** semirings, including float ``plus_times`` whose ⊕ is not
associative.  Column panels are disjoint and merged in ascending
column order, row panels are disjoint and assembled in ascending row
order, so no schedule can perturb a bit.  A k-split would need
:func:`repro.kernels.tile_merge.accumulate_partials` and would forfeit
bit-identity for plus-like semirings; it would be one more enumerator
of blocks here, not another driver.

A fused wave is exact for a different reason: no PB phase reorders
values *within* a ``(row, col)`` group.

* Expansion visits the stacked columns in order, and a block's columns
  are contiguous, so its tuple stream is exactly the standalone stream
  (with offset coordinates).
* Blocks occupy disjoint row ranges, so keys from different blocks
  never collide.
* Distribute is a stable counting placement and the per-bin radix sort
  a stable LSD sort, so within any key group the value order is the
  expansion order — the standalone order.
* Compress folds duplicate runs left to right, in that same order, so
  floating-point reductions associate identically.

The stacked run's binning geometry differs from the standalone runs
(more rows, more flops, possibly wider keys), but binning only
partitions the key space; it never reorders values within a key.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..matrix.ops import col_slice, row_slice
from ..semiring import PLUS_TIMES, Semiring
from .config import PBConfig
from .pb_spgemm import _pb_run

#: Modeled peak working bytes per expanded tuple in one PB tile: the
#: expand arena (8B row + 8B col + 8B value) plus the distribute-phase
#: binned key/value copies and the radix scatter's double buffer
#: (~24B amortized).  Shared with the planner's feasibility gate so the
#: drivers' grid sizing and the cost model can never disagree.
TILE_WORKING_BYTES_PER_FLOP = 48

#: Bytes per stored entry of a canonical CSR/CSC (int64 index +
#: float64 value); indptr is negligible at the sizes that matter here.
CSR_ENTRY_BYTES = 16

#: Budget-derived grids are clamped to this many panels per dimension:
#: past it, per-tile fixed costs dominate and the planner would never
#: pick the grid anyway, but a pathological budget (1 byte) must not
#: explode into an m×n grid of empty multiplies.
MAX_GRID_DIM = 64

#: Fraction of a shard's ``memory_budget`` granted to one tile's
#: modeled working set by :func:`col_panels_for`.  Much looser than the
#: single-process tiled share because a shard holds almost nothing
#: else: the inputs are shared pages, finished tiles leave immediately,
#: and the final CSR lives in the parent.
SHARD_WORKING_BUDGET_DENOM = 2


@dataclass(frozen=True)
class BlockGrid:
    """The 2D block decomposition: row edges over A, column edges over B."""

    row_edges: tuple[int, ...]
    col_edges: tuple[int, ...]

    @property
    def grid_rows(self) -> int:
        return len(self.row_edges) - 1

    @property
    def grid_cols(self) -> int:
        return len(self.col_edges) - 1

    @property
    def ntiles(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def col_starts(self) -> list[int]:
        """First global column of each column panel (``hstack_tiles``)."""
        return list(self.col_edges[:-1])

    def row_panels(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(i, lo, hi)`` for each row panel."""
        for i in range(self.grid_rows):
            yield i, self.row_edges[i], self.row_edges[i + 1]

    def describe(self) -> str:
        tr = max(np.diff(self.row_edges))
        tc = max(np.diff(self.col_edges))
        return f"{self.grid_rows}x{self.grid_cols} grid (tiles up to {tr}x{tc})"


def uniform_edges(extent: int, tile: int) -> tuple[int, ...]:
    """Edges cutting ``[0, extent)`` into panels of ``tile`` (last ragged)."""
    if extent <= 0:
        return (0, 0)
    tile = max(1, min(int(tile), extent))
    return tuple(range(0, extent, tile)) + (extent,)


def col_panels_for(n: int, row_panel_flop: float, config: PBConfig) -> int:
    """Column panels for a row panel of ``row_panel_flop`` (the column-split policy).

    ``config.tile_cols`` pins the panel width; otherwise, under a
    ``memory_budget``, the row panel's flop is split into enough panels
    that one tile's modeled working set fits ``memory_budget //
    SHARD_WORKING_BUDGET_DENOM`` (clamped to :data:`MAX_GRID_DIM` and
    to ``n``); with neither, one panel.  The sharded driver and the
    planner's sharded pricing both call this.
    """
    if config.tile_cols is not None:
        tc = max(1, min(config.tile_cols, max(n, 1)))
        return max(1, math.ceil(max(n, 1) / tc))
    if config.memory_budget is None:
        return 1
    usable = max(config.memory_budget // SHARD_WORKING_BUDGET_DENOM, 1)
    gc = max(1, math.ceil(row_panel_flop * TILE_WORKING_BYTES_PER_FLOP / usable))
    return min(gc, MAX_GRID_DIM, max(n, 1))


def split_col_panels(b_csr: CSRMatrix, col_edges) -> list[CSRMatrix]:
    """B's column panels, each converted to the CSR the PB kernel wants once.

    Total conversion work is nnz(B), paid once no matter how many row
    panels stream over the panels.  A single panel is B itself.
    """
    if len(col_edges) == 2:
        return [b_csr]
    b_csc = b_csr.to_csc()
    return [
        col_slice(b_csc, lo, hi).to_csr()
        for lo, hi in zip(col_edges[:-1], col_edges[1:])
    ]


def row_panel_tiles(
    a_i: CSCMatrix,
    b_panels: list[CSRMatrix],
    semiring: Semiring,
    config: PBConfig,
    engine=None,
) -> Iterator[tuple[int, CSRMatrix | None]]:
    """The tile loop: ``A[i,:] · B[:,j]`` for each column panel in order.

    Every tile runs on ``engine``, which the caller resolved once for
    its whole grid (``None`` = serial).  Yields ``(tile_flop, tile)``
    per panel; ``tile`` is ``None`` when the tile generates no flop (it
    is skipped, not multiplied).
    """
    if a_i.nnz == 0:
        for _ in b_panels:
            yield 0, None
        return
    ai_colnnz = a_i.col_nnz()
    for b_j in b_panels:
        flop = int(ai_colnnz @ b_j.row_nnz()) if b_j.nnz else 0
        if flop == 0:
            yield 0, None
        else:
            yield flop, _pb_run(a_i, b_j, semiring, config, engine).c


def assemble_rows(
    shape: tuple[int, int],
    row_edges,
    panel_nnz: list[int],
    fetch: Callable[[int], CSRMatrix],
) -> CSRMatrix:
    """Stack merged row panels into one preallocated CSR.

    ``fetch(i)`` returns row panel ``i`` (rows ``row_edges[i]:
    row_edges[i+1]``, ``panel_nnz[i]`` entries) and may load it from
    disk.  Panels are copied into their slices one at a time and
    dropped, so assembly peaks at the product plus ONE panel — not the
    2x of concatenating a list of all panels.
    """
    m, n = shape
    total = sum(panel_nnz)
    indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    indices = np.empty(total, dtype=INDEX_DTYPE)
    data = np.empty(total, dtype=VALUE_DTYPE)
    off = 0
    for i, nnz in enumerate(panel_nnz):
        lo, hi = row_edges[i], row_edges[i + 1]
        block = fetch(i)
        indptr[lo + 1 : hi + 1] = block.indptr[1:] + off
        indices[off : off + nnz] = block.indices
        data[off : off + nnz] = block.data
        off += nnz
        del block
    return CSRMatrix((m, n), indptr, indices, data, validate=False)


def _block_diag(shape, row_edges, col_edges, blocks) -> CSRMatrix:
    """diag(blocks) as CSR: row panel ``i`` is block ``i`` shifted right
    to ``col_edges[i]`` (one tile per panel, so nothing to interleave)."""

    def fetch(i: int) -> CSRMatrix:
        blk = blocks[i]
        return CSRMatrix(
            (blk.shape[0], shape[1]),
            blk.indptr,
            blk.indices + col_edges[i],
            blk.data,
            validate=False,
        )

    return assemble_rows(shape, row_edges, [blk.nnz for blk in blocks], fetch)


def fused_multiply_detailed(
    pairs,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    session=None,
):
    """Run a wave of coerced ``(A_csc, B_csr)`` pairs as one PB multiply
    over diag(A_1 … A_p) · diag(B_1 … B_p) (module docstring).

    diag(B) is :func:`assemble_rows` with B_i, shifted to its column
    offset, as row panel ``i``; diag(A) in CSC is the same call on the A_iᵀ
    (zero-copy CSR views).  Returns ``(products, detail)``: each pair's
    product, sliced along the diagonal :class:`BlockGrid` and owning
    its arrays, plus the stacked run's
    :class:`~repro.core.pb_spgemm.PBResult` (wave-level
    ``phase_seconds``).
    """
    from .pb_spgemm import pb_spgemm_detailed

    pairs = list(pairs)
    if not pairs:
        raise ValueError("a fused wave needs at least one (a, b) pair")
    for a, b in pairs:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")

    def edges(extents):
        return tuple(int(x) for x in np.cumsum([0, *extents]))

    grid = BlockGrid(
        edges(a.shape[0] for a, _ in pairs), edges(b.shape[1] for _, b in pairs)
    )
    k_edges = edges(a.shape[1] for a, _ in pairs)
    m, k, n = grid.row_edges[-1], k_edges[-1], grid.col_edges[-1]
    a_stacked = _block_diag(
        (k, m), k_edges, grid.row_edges, [a.transpose() for a, _ in pairs]
    ).transpose()
    b_stacked = _block_diag((k, n), k_edges, grid.col_edges, [b for _, b in pairs])
    detail = pb_spgemm_detailed(
        a_stacked, b_stacked, semiring=semiring, config=config, session=session
    )
    products = []
    for i, lo, hi in grid.row_panels():
        c_i = row_slice(detail.c, lo, hi)
        c0, c1 = grid.col_edges[i], grid.col_edges[i + 1]
        products.append(
            CSRMatrix(
                (hi - lo, c1 - c0),
                c_i.indptr,
                c_i.indices - c0,
                c_i.data.copy(),
                validate=False,
            )
        )
    return products, detail
