"""PB-SpGEMM — the paper's primary contribution (Algorithms 1-3).

* :class:`PBConfig` — tunable parameters (nbins policy, local-bin
  width, key packing, bin mapping, sort backend).
* :func:`symbolic_phase` — Alg. 3: O(n) flop estimation + bin sizing.
* :mod:`repro.core.binning` — bin geometry and key packing
  (Sec. III-D).
* :func:`pb_spgemm` — Alg. 2: expand → bin → sort → compress → CSR.
* :mod:`repro.core.blocks` — the block-decomposition core (DESIGN.md
  §16): :class:`BlockGrid`, the tile loop, the B column-panel split,
  the preallocated-CSR row assembler, and the fused wave
  (``fused_multiply_detailed``: many small multiplies as one
  block-diagonal PB run).
* :func:`tiled_spgemm` — the block core in process: bounded peak
  memory, spill-to-disk staging; :func:`partitioned_pb_spgemm`, the
  NUMA variant of Sec. V-D, is the same runner on a row-only grid.
* :func:`sharded_spgemm` — the block core with one worker process per
  row panel: shared-memory panel broadcast, tiles streamed to the
  parent for merge and assembly.
"""

from .config import PBConfig
from .symbolic import SymbolicResult, symbolic_phase
from .binning import BinLayout, pack_keys, unpack_keys, plan_bins
from .pb_spgemm import PBResult, pb_spgemm, pb_spgemm_detailed
from .blocks import BlockGrid
from .tiled import (
    SpillStore,
    TiledResult,
    partitioned_pb_spgemm,
    plan_tile_grid,
    tiled_spgemm,
    tiled_spgemm_detailed,
)
from .sharded import (
    ShardedResult,
    plan_shards,
    resolve_shards,
    sharded_spgemm,
    sharded_spgemm_detailed,
)

__all__ = [
    "PBConfig",
    "SymbolicResult",
    "symbolic_phase",
    "BinLayout",
    "pack_keys",
    "unpack_keys",
    "plan_bins",
    "PBResult",
    "pb_spgemm",
    "pb_spgemm_detailed",
    "BlockGrid",
    "partitioned_pb_spgemm",
    "SpillStore",
    "TiledResult",
    "plan_tile_grid",
    "tiled_spgemm",
    "tiled_spgemm_detailed",
    "ShardedResult",
    "plan_shards",
    "resolve_shards",
    "sharded_spgemm",
    "sharded_spgemm_detailed",
]
