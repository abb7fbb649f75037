"""Real multi-core execution backend for PB-SpGEMM.

The simulator (:mod:`repro.simulate`) *models* the paper's parallel
phases; this package *runs* them.  ``PBConfig(nthreads=N)`` fans the
compiled pipeline's chunked expand and per-bin sort+compress out over
threads of this process (:mod:`repro.parallel.threads`); where only the
numpy pipeline can run, ``PBConfig(executor="process", nthreads=N)``
fans it out over a ``ProcessPoolExecutor`` instead, with the large
arrays passed zero-copy through POSIX shared memory.

* :mod:`repro.parallel.threads` — the thread-count policy and the
  thread team of the compiled pipeline.
* :func:`process_backend_available` — platform capability probe.
* :func:`~repro.parallel.executor.engine_scope` — the one resolver:
  worker processes or this process, and the engine a multiply runs on.
* :class:`ProcessEngine` — pool + shared-memory arenas; private to one
  multiply by default, or kept warm across many multiplies by a
  :class:`repro.session.Session`.
* :class:`ArenaPool` — size-classed recycler of shared-memory segments
  (sessions lease/return buffers instead of allocating/unlinking).
* :mod:`repro.parallel.shm` — the shared-memory array transport.
"""

from .executor import ProcessEngine, process_backend_available, semiring_token
from .shm import HAVE_SHARED_MEMORY, ArenaPool

__all__ = [
    "ProcessEngine",
    "ArenaPool",
    "process_backend_available",
    "semiring_token",
    "HAVE_SHARED_MEMORY",
]
