"""SpGEMM kernels: the paper's algorithm and every baseline it compares.

Column algorithms (Gustavson-style, one output column at a time):

* :func:`heap_spgemm`     — heap accumulator           [Azad et al. 2016]
* :func:`hash_spgemm`     — hash-table accumulator     [Nagasaka et al. 2019]
* :func:`hashvec_spgemm`  — vectorized hash probing    [Nagasaka et al. 2019]
* :func:`spa_spgemm`      — dense SPA accumulator      [Gilbert et al. 1992]
* :func:`esc_column_spgemm` — column-wise expand-sort-compress [Dalton 2015]

The first four all run :func:`panel_spgemm`; their faithful
per-column transcriptions are the references ``heap_spgemm_loop``,
``hash_spgemm_loop``, ``hashvec_spgemm_loop`` and ``spa_spgemm_loop``.

Outer-product algorithms:

* :func:`repro.core.pb_spgemm` — the paper's PB-SpGEMM (propagation
  blocking); lives in :mod:`repro.core`.
* shared primitives here: :func:`expand_outer`, :func:`radix_sort_pairs`,
  :func:`compress_sorted`.

All kernels produce canonical CSR and accept any registered semiring.
"""

from .outer_expand import (
    expand_outer,
    expand_chunks,
    expand_arena,
    expand_cols_range,
    column_flops,
    iter_expand_columns,
    chunk_ranges,
)
from .column_panel import (
    panel_spgemm,
    DEFAULT_PANEL_TUPLES,
)
from .radix import radix_sort_keys, radix_argsort, radix_sort_pairs, sort_tuples
from .compress import compress_sorted, compress_keyed
from .gustavson_spa import spa_spgemm, spa_spgemm_loop
from .heap_spgemm import heap_spgemm, heap_spgemm_loop
from .hash_spgemm import hash_spgemm, hash_spgemm_loop
from .hashvec_spgemm import hashvec_spgemm, hashvec_spgemm_loop
from .esc_column import esc_column_spgemm
from .masked import masked_spgemm
from .tile_merge import hstack_tiles, accumulate_partials
from .pb_spmv import pb_spmv, spmv_reference
from .reference import dense_spgemm_reference, scipy_spgemm_oracle
from .dispatch import spgemm, available_algorithms, get_algorithm, ALGORITHMS

__all__ = [
    "expand_outer",
    "expand_chunks",
    "expand_arena",
    "expand_cols_range",
    "column_flops",
    "iter_expand_columns",
    "chunk_ranges",
    "panel_spgemm",
    "DEFAULT_PANEL_TUPLES",
    "radix_sort_keys",
    "radix_argsort",
    "radix_sort_pairs",
    "sort_tuples",
    "compress_sorted",
    "compress_keyed",
    "spa_spgemm",
    "heap_spgemm",
    "hash_spgemm",
    "hashvec_spgemm",
    "spa_spgemm_loop",
    "heap_spgemm_loop",
    "hash_spgemm_loop",
    "hashvec_spgemm_loop",
    "esc_column_spgemm",
    "masked_spgemm",
    "hstack_tiles",
    "accumulate_partials",
    "pb_spmv",
    "spmv_reference",
    "dense_spgemm_reference",
    "scipy_spgemm_oracle",
    "spgemm",
    "available_algorithms",
    "get_algorithm",
    "ALGORITHMS",
]
