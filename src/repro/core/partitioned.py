"""Partitioned PB-SpGEMM — the NUMA variant of paper Sec. V-D.

The dual-socket experiment (Fig. 14) shows PB-SpGEMM losing bandwidth
to cross-socket traffic.  The author's thesis variant partitions A by
rows into one block per socket and runs an independent PB-SpGEMM per
block against the whole of B, so each socket's bins stay local; the
price is reading B once per partition.

Functionally the row blocks produce disjoint row ranges of C: this is
the block core of :mod:`repro.core.blocks` on a row-only grid (one
column panel, B itself).  The simulator models the bandwidth side;
this module provides the executable algorithm (and is also a useful
out-of-core pattern: peak memory drops by the partition count).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..matrix.ops import row_slice
from ..parallel.executor import engine_scope
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .blocks import BlockGrid, assemble_rows, row_panel_tiles
from .config import PBConfig


def partitioned_pb_spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    npartitions: int = 2,
    semiring: Semiring | str = PLUS_TIMES,
    config: PBConfig | None = None,
    *,
    session=None,
) -> CSRMatrix:
    """C = A · B with A split into ``npartitions`` row blocks.

    Each block multiplies independently (one virtual socket each in the
    NUMA model); outputs stack vertically into the final CSR.

    ``session`` — an open :class:`repro.session.Session` whose warm
    engine (and recycling arena pool) every block multiply runs on.
    Without one, ``executor="process"`` spawns one private engine for
    the whole grid; a config that resolves to serial runs serially.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(f"cannot multiply {a_csc.shape} by {b_csr.shape}")
    if npartitions < 1:
        raise ValueError(f"npartitions must be >= 1, got {npartitions}")
    m, n = a_csc.shape[0], b_csr.shape[1]
    npartitions = min(npartitions, max(m, 1))

    cfg = config or PBConfig()
    sr = get_semiring(semiring)

    a_csr = a_csc.to_csr()
    bounds = np.linspace(0, m, npartitions + 1).astype(int)
    grid = BlockGrid(tuple(int(x) for x in bounds), (0, n))
    panels: list[CSRMatrix] = []
    with engine_scope(cfg, sr, session) as engine:
        for _, lo, hi in grid.row_panels():
            block = row_slice(a_csr, lo, hi).to_csc()
            _, c_block = next(row_panel_tiles(block, [b_csr], sr, cfg, engine))
            panels.append(
                CSRMatrix.empty((hi - lo, n)) if c_block is None else c_block
            )
    return assemble_rows(
        (m, n), grid.row_edges, [p.nnz for p in panels], panels.__getitem__
    )
