"""Built-in suite definitions.

Each module here owns one registered :class:`~repro.bench.registry.
Suite`: the measurement code plus the declarative acceptance checks
for that suite (``repro bench run <suite>`` runs it).  Modules register
themselves at import time; the registry imports them lazily by name.
"""

from __future__ import annotations

import time


def timed(fn) -> float:
    """Seconds for one call of ``fn``."""
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def best_of(fn, reps: int) -> float:
    """Best of ``reps`` timed calls after one untimed warm-up.

    The warm-up absorbs page-in, allocator growth, and first-call
    costs; min-of-reps is the standard noise-rejecting estimator for
    compute-bound kernels.
    """
    fn()
    return min(timed(fn) for _ in range(max(1, reps)))


def bit_identical(c0, c1) -> bool:
    """Whether two CSR products are equal bit for bit (NaNs included)."""
    return bool(
        c0.shape == c1.shape
        and c0.indptr.tobytes() == c1.indptr.tobytes()
        and c0.indices.tobytes() == c1.indices.tobytes()
        and c0.data.tobytes() == c1.data.tobytes()
    )
