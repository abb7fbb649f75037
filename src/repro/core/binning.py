"""Bin geometry and key packing (Secs. III-C/D).

Propagation blocking partitions the expanded tuple stream into
``nbins`` bins so that sort and compress run bin-local (in cache) and
thread-parallel.  :class:`BinLayout` is the bin↦row-range geometry plus
the packed-key codec of Sec. III-D: within a bin covering
``rows_per_bin`` rows, a tuple's key is ``(local_row << col_bits) |
col``, which usually fits 32 bits and halves the radix passes.  The
numpy pipeline distributes tuples with one vectorized stable
placement; the compiled pipeline expands straight into the bins
(:func:`repro.kernels.jit.pb_expand_jit`), directly or through the
thread-private local bins of Fig. 5, which the cost model and the
trace simulator model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import balanced_edges
from ..errors import ConfigError
from ..matrix.base import INDEX_DTYPE
from .config import PBConfig, index_bits


@dataclass(frozen=True)
class BinLayout:
    """Geometry of the global bins for one multiplication.

    Attributes
    ----------
    nrows, ncols:
        Output matrix dimensions.
    nbins:
        Number of global bins.
    rows_per_bin:
        Rows covered by each bin (``range`` mapping; last bin may be
        short).
    mapping:
        ``"range"`` or ``"modulo"``.
    key_dtype:
        ``uint32`` when packed keys fit (Sec. III-D), else ``uint64``.
    key_bits:
        Significant bits per key — what the radix sort must cover.
    """

    nrows: int
    ncols: int
    nbins: int
    rows_per_bin: int
    mapping: str
    key_dtype: np.dtype
    key_bits: int
    col_bits: int
    row_bits: int

    def bin_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Bin id of each tuple from its row id (Alg. 2 line 9)."""
        if self.mapping == "range":
            return rows // self.rows_per_bin
        return rows % self.nbins

    def row_range(self, binid: int) -> tuple[int, int]:
        """Row interval [lo, hi) a ``range`` bin covers."""
        if self.mapping != "range":
            raise ConfigError("row_range is only defined for range mapping")
        lo = binid * self.rows_per_bin
        return lo, min(lo + self.rows_per_bin, self.nrows)

    def row_starts(self) -> np.ndarray:
        """First row of every ``range`` bin (what packed keys offset by)."""
        if self.mapping != "range":
            raise ConfigError("row_starts is only defined for range mapping")
        return np.arange(self.nbins, dtype=np.int64) * self.rows_per_bin


def key_dtype(key_bits: int, pack_keys: bool = True) -> np.dtype:
    """THE key-width rule of every bin layout: ``uint32`` when packing is
    on and the key fits 32 bits (Sec. III-D), else ``uint64``."""
    if key_bits > 64:
        raise ConfigError(
            f"key of {key_bits} bits exceeds 64 (matrix too large "
            f"for the packed-key scheme)"
        )
    if pack_keys and key_bits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


def plan_bins(
    nrows: int,
    ncols: int,
    nbins: int,
    rows_per_bin: int,
    config: PBConfig | None = None,
) -> BinLayout:
    """Build the :class:`BinLayout`, choosing the packed-key width.

    With ``range`` mapping, only ``local_row = row - bin_lo`` must be
    encoded (``ceil(log2(rows_per_bin))`` bits) next to the column id;
    the paper's example: 1M rows, 1K bins → 10 row bits + 20 column
    bits → a 30-bit key in a 4-byte integer, 4 radix passes instead
    of 8.
    """
    cfg = config or PBConfig()
    col_bits = index_bits(ncols)
    if cfg.bin_mapping == "range":
        row_span = rows_per_bin
    else:
        row_span = nrows  # modulo mapping cannot localize rows
    row_bits = index_bits(row_span)
    key_bits = row_bits + col_bits
    return BinLayout(
        nrows=nrows,
        ncols=ncols,
        nbins=nbins,
        rows_per_bin=rows_per_bin,
        mapping=cfg.bin_mapping,
        key_dtype=key_dtype(key_bits, cfg.pack_keys),
        key_bits=key_bits,
        col_bits=col_bits,
        row_bits=row_bits,
    )


def pack_keys(
    layout: BinLayout,
    rows: np.ndarray,
    cols: np.ndarray,
    binid: np.ndarray | None = None,
) -> np.ndarray:
    """Encode (row, col) as sortable per-bin keys.

    ``range`` mapping stores the row *offset within the bin*; sorting a
    bin by this key orders tuples by (row, col) globally because bins
    cover disjoint ascending row ranges.  ``binid`` (only consulted by
    the ``variable`` mapping) lets a caller that already computed the
    bin ids skip the second edge search.
    """
    if layout.mapping == "range":
        local_rows = rows % layout.rows_per_bin
    elif layout.mapping == "variable":
        if binid is None:
            binid = layout.bin_of_rows(rows)
        local_rows = rows - layout.edges[binid]
    else:  # modulo
        local_rows = rows
    k = local_rows.astype(layout.key_dtype, copy=False) << np.asarray(
        layout.col_bits, dtype=layout.key_dtype
    )
    return k | cols.astype(layout.key_dtype, copy=False)


def unpack_keys(
    layout: BinLayout, keys: np.ndarray, binid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_keys` for the tuples of one bin."""
    col_mask = np.asarray((1 << layout.col_bits) - 1, dtype=layout.key_dtype)
    cols = (keys & col_mask).astype(INDEX_DTYPE)
    local_rows = (keys >> np.asarray(layout.col_bits, dtype=layout.key_dtype)).astype(
        INDEX_DTYPE
    )
    if layout.mapping == "range":
        rows = local_rows + binid * layout.rows_per_bin
    elif layout.mapping == "variable":
        rows = local_rows + int(layout.edges[binid])
    else:  # modulo
        rows = local_rows
    return rows, cols


def _bin_order(binid: np.ndarray, nbins: int) -> np.ndarray:
    """Stable permutation grouping a tuple stream by bin id.

    The bin ids are narrowed to the smallest integer dtype before the
    stable sort: numpy's stable sort on uint8/uint16 is its O(n)
    counting/radix scatter, where wide-dtype ids would fall back to an
    O(n log n) comparison sort.
    """
    if nbins <= 1 << 8:
        return np.argsort(binid.astype(np.uint8, copy=False), kind="stable")
    if nbins <= 1 << 16:
        return np.argsort(binid.astype(np.uint16, copy=False), kind="stable")
    # Wide bin spaces: LSD 16-bit counting passes over the bin id.
    from ..kernels.radix import radix_argsort

    order, _ = radix_argsort(
        binid.astype(np.uint32, copy=False), key_bits=max(int(nbins - 1).bit_length(), 1)
    )
    return order


def _bin_starts(binid: np.ndarray, nbins: int) -> np.ndarray:
    counts = np.bincount(binid, minlength=nbins)
    starts = np.zeros(nbins + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=starts[1:])
    return starts


def distribute_plan(
    layout: BinLayout,
    rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed keys + stable placement permutation, *without* applying it.

    Returns ``(keys, order, bin_starts)`` — everything
    :func:`distribute_packed` needs short of the final gather.  The
    pipelined process executor
    (:meth:`repro.parallel.executor.ProcessEngine.pipelined_sort_compress`)
    consumes the plan directly: it applies ``order`` slice-by-slice into
    shared bin arrays so each bin group's sort task can be submitted the
    moment that group is placed, instead of barriering on the whole
    gather.
    """
    binid = layout.bin_of_rows(rows)
    keys = pack_keys(layout, rows, cols, binid=binid)
    order = _bin_order(binid, layout.nbins)
    starts = _bin_starts(binid, layout.nbins)
    return keys, order, starts


def distribute_packed(
    layout: BinLayout,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition the tuple stream into global bins, keys packed first.

    Packs the whole tuple stream into narrow per-bin keys *before*
    placement, so binning gathers one key array (4 or 8 bytes) instead
    of separate row and column arrays, and the sort phase receives
    already-packed keys.

    Returns ``(binned_keys, binned_vals, bin_starts)``: ``bin_starts``
    has length nbins + 1 and the tuples of bin b occupy
    ``bin_starts[b]:bin_starts[b+1]``.  Within a bin the original
    stream order is preserved (stable), matching the append semantics
    of the global bins.
    """
    keys, order, starts = distribute_plan(layout, rows, cols)
    return keys[order], vals[order], starts


def balanced_bin_edges(
    flops_per_row: np.ndarray, nbins: int
) -> np.ndarray:
    """Variable-range bin boundaries equalizing tuples per bin.

    The paper's load-balance remedy for skewed inputs (Sec. V-C: "we
    either use more bins or create bins with variable ranges of rows"):
    instead of fixed ``rows_per_bin``, cut the row axis where the
    expanded-tuple prefix sum crosses equal shares.  Returns ``nbins+1``
    ascending row boundaries with ``edges[0] == 0`` and
    ``edges[-1] == len(flops_per_row)``.

    A single mega-row can still exceed one share — bins never split a
    row — so perfect balance is not guaranteed, only monotone
    improvement over fixed ranges.  The cut is
    :func:`repro._util.balanced_edges`.
    """
    if nbins < 1:
        raise ConfigError(f"nbins must be >= 1, got {nbins}")
    return balanced_edges(flops_per_row, nbins)


class VariableBinLayout:
    """Bin layout over variable row ranges (duck-types BinLayout's
    ``bin_of_rows``/``row_range`` interface used by the pipeline).

    Key packing still works: the widest bin's row span bounds the local
    row bits.
    """

    def __init__(
        self, nrows: int, ncols: int, edges: np.ndarray, pack_keys: bool = True
    ):
        edges = np.asarray(edges, dtype=np.int64)
        if len(edges) < 2 or edges[0] != 0 or edges[-1] != nrows:
            raise ConfigError(
                f"edges must run from 0 to nrows={nrows}, got {edges[:3]}..."
            )
        if np.any(np.diff(edges) < 0):
            raise ConfigError("edges must be non-decreasing")
        self.nrows = nrows
        self.ncols = ncols
        self.edges = edges
        self.nbins = len(edges) - 1
        self.mapping = "variable"
        widest = int(np.diff(edges).max()) if self.nbins else 1
        self.rows_per_bin = widest  # upper bound used for key packing
        self.col_bits = index_bits(ncols)
        self.row_bits = index_bits(widest)
        self.key_bits = self.row_bits + self.col_bits
        self.key_dtype = key_dtype(self.key_bits, pack_keys)

    def bin_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Bin id per row via binary search on the edge array."""
        return np.searchsorted(self.edges, np.asarray(rows), side="right") - 1

    def row_range(self, binid: int) -> tuple[int, int]:
        return int(self.edges[binid]), int(self.edges[binid + 1])

    def row_starts(self) -> np.ndarray:
        """First row of every bin (what packed keys offset by)."""
        return self.edges[:-1]
