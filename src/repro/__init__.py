"""repro — reproduction of PB-SpGEMM (SPAA 2020).

Bandwidth-optimized parallel sparse matrix-matrix multiplication using
propagation blocking, plus every baseline, generator, machine model and
experiment harness the paper's evaluation needs.

Quickstart::

    import repro
    a = repro.erdos_renyi(2**12, edge_factor=4, seed=1)
    c = repro.multiply(a, a, algorithm="pb")   # or simply: a @ a
    print(c.nnz)

:func:`multiply` accepts COO/CSR/CSC (or scipy/dense) operands in
either position and converts to each kernel's expected formats; pass
``config=PBConfig(nthreads=4)`` for real multi-core execution of the
compiled PB pipeline on threads.  Where only the numpy pipeline can
run, ``executor="process"`` runs it on a worker pool; for many such
multiplies in a loop, open a :class:`Session` — the pool and
shared-memory arenas persist across calls instead of being rebuilt per
multiply (with a compiler the session runs on threads and never
spawns)::

    with repro.Session(repro.PBConfig(executor="process", nthreads=4)) as s:
        c = s.multiply(a, a)          # threads, or spawns the pool once
        c2 = s.multiply(c, a)         # reuses it, recycled arenas
"""

from .errors import (
    BenchError,
    ConfigError,
    DispatchError,
    FormatError,
    MachineError,
    PlannerError,
    ReproError,
    ShapeError,
    SimulationError,
)
from .semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_PAIR,
    PLUS_TIMES,
    Semiring,
    available_semirings,
    get_semiring,
)
from .matrix import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    matrix_stats,
    multiply_stats,
    read_matrix_market,
    write_matrix_market,
)
from .generators import erdos_renyi, rmat, surrogate, SURROGATE_SPECS
from .kernels import (
    available_algorithms,
    masked_spgemm,
    esc_column_spgemm,
    hash_spgemm,
    hashvec_spgemm,
    heap_spgemm,
    pb_spmv,
    spa_spgemm,
)
from .api import multiply, spgemm
from .core import (
    PBConfig,
    pb_spgemm,
    pb_spgemm_detailed,
    partitioned_pb_spgemm,
    tiled_spgemm,
    tiled_spgemm_detailed,
)
from .parallel import process_backend_available
from .session import Session, SessionStats
from . import apps
from .machine import MachineSpec, skylake_sp, power9, stream_bandwidth
from .costmodel import roofline_mflops, spgemm_arithmetic_intensity
from .simulate import simulate_spgemm, SimReport
from .planner import MachineProfile, Plan, PlanCache, calibrate, plan
from . import bench
from .bench import BenchResult, compare_results, load_result

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ShapeError",
    "FormatError",
    "ConfigError",
    "MachineError",
    "SimulationError",
    "DispatchError",
    "PlannerError",
    "BenchError",
    "Semiring",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_TIMES",
    "OR_AND",
    "PLUS_PAIR",
    "get_semiring",
    "available_semirings",
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "matrix_stats",
    "multiply_stats",
    "read_matrix_market",
    "write_matrix_market",
    "erdos_renyi",
    "rmat",
    "surrogate",
    "SURROGATE_SPECS",
    "multiply",
    "spgemm",
    "Session",
    "SessionStats",
    "available_algorithms",
    "process_backend_available",
    "masked_spgemm",
    "apps",
    "heap_spgemm",
    "hash_spgemm",
    "hashvec_spgemm",
    "spa_spgemm",
    "esc_column_spgemm",
    "pb_spmv",
    "PBConfig",
    "pb_spgemm",
    "pb_spgemm_detailed",
    "partitioned_pb_spgemm",
    "tiled_spgemm",
    "tiled_spgemm_detailed",
    "MachineSpec",
    "skylake_sp",
    "power9",
    "stream_bandwidth",
    "roofline_mflops",
    "spgemm_arithmetic_intensity",
    "simulate_spgemm",
    "SimReport",
    "Plan",
    "plan",
    "PlanCache",
    "MachineProfile",
    "calibrate",
    "bench",
    "BenchResult",
    "load_result",
    "compare_results",
    "__version__",
]
