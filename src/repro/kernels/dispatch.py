"""Algorithm registry and uniform dispatch for all SpGEMM kernels.

Every kernel shares one signature: ``f(a_csc, b_csr, semiring) -> CSRMatrix``.
The registry also carries each algorithm's Table I classification
(input-access and output-formation class), which the Table I/II
benchmarks assert against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import DispatchError
from ..matrix.csc import CSCMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import PLUS_TIMES, Semiring, get_semiring


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry record for one SpGEMM algorithm.

    ``input_access`` ∈ {"column", "outer"} and ``output_formation`` ∈
    {"accumulator", "esc"} reproduce the two axes of the paper's
    Table I.  ``reads_a`` is the number of times the algorithm streams
    the first operand in the ER model (Table II's "No of Accesses: A"
    column, with "d" meaning degree-many reads).

    The ``supports_*`` flags are capability metadata the planner
    (:mod:`repro.planner`) and the session front door consume instead of
    hard-coding algorithm names: whether the kernel accepts a
    ``config=`` PBConfig, whether it can run on the process-pool
    executor, and whether it accepts a ``session=``
    :class:`repro.session.Session` whose warm resources it runs on.
    """

    name: str
    func: Callable[..., CSRMatrix]
    input_access: str
    output_formation: str
    accumulator: str
    reads_a: str  # "1" or "d"
    reads_chat: int  # accesses of the expanded matrix (0, or 2 for ESC)
    description: str
    supports_config: bool = False  # accepts config=PBConfig
    supports_process: bool = False  # can run on the process-pool executor
    supports_session: bool = False  # accepts session= (a warm Session)


def _pb(a_csc, b_csr, semiring=PLUS_TIMES, **kwargs):
    from ..core.pb_spgemm import pb_spgemm

    return pb_spgemm(a_csc, b_csr, semiring=semiring, **kwargs)


def _tiled(a_csc, b_csr, semiring=PLUS_TIMES, **kwargs):
    from ..core.tiled import tiled_spgemm

    return tiled_spgemm(a_csc, b_csr, semiring=semiring, **kwargs)


def _sharded(a_csc, b_csr, semiring=PLUS_TIMES, **kwargs):
    from ..core.sharded import sharded_spgemm

    return sharded_spgemm(a_csc, b_csr, semiring=semiring, **kwargs)


def _registry() -> dict[str, AlgorithmInfo]:
    from .esc_column import esc_column_spgemm
    from .gustavson_spa import spa_spgemm
    from .hash_spgemm import hash_spgemm
    from .hashvec_spgemm import hashvec_spgemm
    from .heap_spgemm import heap_spgemm

    infos = [
        AlgorithmInfo(
            "heap", heap_spgemm, "column", "accumulator", "heap", "d", 0,
            "Column SpGEMM, per-column heap merge (Azad et al. 2016)",
            supports_config=True,
        ),
        AlgorithmInfo(
            "hash", hash_spgemm, "column", "accumulator", "hash", "d", 0,
            "Column SpGEMM, per-column hash table (Nagasaka et al. 2019)",
            supports_config=True,
        ),
        AlgorithmInfo(
            "hashvec", hashvec_spgemm, "column", "accumulator", "hash", "d", 0,
            "Column SpGEMM, batched open-addressing probing (HashVec)",
            supports_config=True,
        ),
        AlgorithmInfo(
            "spa", spa_spgemm, "column", "accumulator", "spa", "d", 0,
            "Column SpGEMM, dense sparse-accumulator (Gilbert et al. 1992)",
            supports_config=True,
        ),
        AlgorithmInfo(
            "esc_column", esc_column_spgemm, "column", "esc", "sort", "d", 2,
            "Column-wise expand-sort-compress (Dalton et al. 2015)",
            supports_config=True,
        ),
        AlgorithmInfo(
            "pb", _pb, "outer", "esc", "sort", "1", 2,
            "PB-SpGEMM: outer product + propagation blocking (this paper)",
            supports_config=True,
            supports_process=True,
            supports_session=True,
        ),
        AlgorithmInfo(
            # Same Table I cell as PB — each tile IS a PB multiply; the
            # grid only changes how many times the operands restream
            # (grid_cols passes over A, grid_rows over B).
            "tiled", _tiled, "outer", "esc", "sort", "1", 2,
            "Tiled out-of-core PB-SpGEMM: 2D panel grid, bounded peak "
            "memory, spill-to-disk staging (repro.core.tiled)",
            supports_config=True,
            supports_process=True,
            supports_session=True,
        ),
        AlgorithmInfo(
            # Still the same Table I cell: shards only spread the tile
            # rows over processes; every tile is a full-k PB multiply.
            "sharded", _sharded, "outer", "esc", "sort", "1", 2,
            "Multi-process sharded tiled PB-SpGEMM: tile-row shards, "
            "shared-memory panel broadcast, streamed assembly "
            "(repro.core.sharded)",
            supports_config=True,
            supports_session=True,
        ),
    ]
    return {i.name: i for i in infos}


ALGORITHMS: dict[str, AlgorithmInfo] = _registry()

#: The four algorithms the paper's evaluation compares head-to-head.
EVALUATED = ("pb", "heap", "hash", "hashvec")


def available_algorithms() -> tuple[str, ...]:
    """Names of all registered SpGEMM algorithms."""
    return tuple(sorted(ALGORITHMS))


def get_algorithm(name: str) -> AlgorithmInfo:
    """Registry lookup; unknown names raise :class:`DispatchError`.

    The error message always lists :func:`available_algorithms` so a
    typo'd name is self-diagnosing.  ``DispatchError`` subclasses
    ``KeyError``, so pre-existing ``except KeyError`` handlers keep
    working.
    """
    try:
        return ALGORITHMS[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(ALGORITHMS))
        raise DispatchError(
            f"unknown algorithm {name!r}; available: {known}"
        ) from None


def algorithm_metadata() -> dict[str, dict]:
    """Per-algorithm capability metadata (what the planner consumes).

    Maps each registered name to its Table I classification plus the
    ``supports_*`` capability flags, with the kernel callable omitted —
    safe to serialize or display.
    """
    return {
        info.name: {
            "input_access": info.input_access,
            "output_formation": info.output_formation,
            "accumulator": info.accumulator,
            "supports_config": info.supports_config,
            "supports_process": info.supports_process,
            "supports_session": info.supports_session,
            "description": info.description,
        }
        for info in ALGORITHMS.values()
    }


def spgemm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    algorithm="pb",
    semiring: Semiring | str = PLUS_TIMES,
    **kwargs,
) -> CSRMatrix:
    """Multiply two sparse matrices with the named algorithm.

    Parameters
    ----------
    a_csc, b_csr:
        Operands in the formats PB-SpGEMM expects (A column-major,
        B row-major).  Other kernels convert internally as needed.
    algorithm:
        One of :func:`available_algorithms` (default the paper's
        ``"pb"``), or a :class:`repro.planner.Plan` — the plan's chosen
        algorithm and resolved config are applied directly.
    semiring:
        Value algebra — a :class:`~repro.semiring.Semiring` or a
        registered name like ``"min_plus"``; resolved here so every
        kernel receives a Semiring instance.  Default plus-times.
    kwargs:
        Algorithm-specific options (e.g. ``config=`` for ``"pb"``).

    See also :func:`repro.multiply`, the format-agnostic front door
    that converts COO/CSR/CSC operands before dispatching here.
    """
    # A Plan (repro.planner) carries its own algorithm + tuned config.
    if hasattr(algorithm, "algorithm") and hasattr(algorithm, "config"):
        plan = algorithm
        info = get_algorithm(plan.algorithm)
        if info.supports_config and plan.config is not None:
            kwargs.setdefault("config", plan.config)
        return info.func(a_csc, b_csr, semiring=get_semiring(semiring), **kwargs)
    info = get_algorithm(algorithm)
    return info.func(a_csc, b_csr, semiring=get_semiring(semiring), **kwargs)
