"""The block-decomposition core shared by tiled, sharded and partitioned SpGEMM.

Every memory- or process-bounded driver cuts ``C = A · B`` the same way
(DESIGN.md §16): a :class:`BlockGrid` of row edges over A and column
edges over B, B split into column panels converted to CSR once, one
tile loop that multiplies a row panel of A against those panels, a
``hstack_tiles`` column merge per row panel, and one preallocated-CSR
assembler that stacks the merged row panels.  The drivers differ only
in *where* the tile loop runs and where merged panels wait:

* :mod:`repro.core.tiled` — in process, panels staged in a
  :class:`~repro.core.tiled.SpillStore`;
* :mod:`repro.core.sharded` — one worker process per row panel,
  tiles streamed back to the parent, which merges and assembles;
* :mod:`repro.core.partitioned` — a row-only grid, panels in memory.

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
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from ..matrix.base import INDEX_DTYPE, VALUE_DTYPE
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..matrix.ops import col_slice
from ..semiring import Semiring
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
