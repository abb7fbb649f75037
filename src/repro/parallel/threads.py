"""Thread team of the compiled PB pipeline (``PBConfig.nthreads``).

The compiled kernels are ``ctypes`` calls, which release the GIL, so
the paper's per-phase ``parallel for`` (Alg. 2) runs on plain Python
threads over one address space: no worker processes, no shared-memory
transport.  :func:`thread_count` is the one policy that turns a
requested ``nthreads`` into the threads a multiply actually uses, and
:class:`ThreadTeam` runs one phase's tasks on them — the first task on
the calling thread, the rest on a pool that the team owns for one
multiply and joins when it closes, so no thread outlives the multiply.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

__all__ = ["MIN_FLOP_PER_THREAD", "usable_cpus", "thread_count", "ThreadTeam"]

#: Tuples each thread must have to itself before a multiply splits:
#: below this, the extra passes a split costs (per-chunk counts, the
#: ordered compaction) and the handoff outweigh the parallel work, so
#: serve waves, tiles and small products run inline.  On a 2-vCPU
#: host, two threads lost to one on every ER product up to 2^21 tuples
#: (DESIGN.md §8).
MIN_FLOP_PER_THREAD = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the
    platform reports one)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)


def thread_count(nthreads: int, flop: int, cpus: int | None = None) -> int:
    """Threads one compiled multiply of ``flop`` tuples runs on:
    ``min(nthreads, cpus, flop // MIN_FLOP_PER_THREAD)``, at least 1.

    ``cpus`` defaults to :func:`usable_cpus`.  Pure: starts nothing.
    """
    cap = usable_cpus() if cpus is None else cpus
    return max(1, min(int(nthreads), int(cap), int(flop) // MIN_FLOP_PER_THREAD))


class ThreadTeam:
    """Runs the tasks of one phase on up to ``size`` threads.

    :meth:`map` calls ``fn(task)`` for each task, the first on the
    calling thread and the rest on the team's pool (started on the
    first split, joined by :meth:`close` or on leaving a ``with``
    block), and returns the results in task order once every task has
    finished.  Task ``i``'s seconds add up in slot ``i`` until
    :meth:`take_seconds`, so two phases that deal the same ranges (count
    then expand, sort then compress) report one busy time per thread.
    """

    def __init__(self, size: int = 1):
        self.size = max(1, int(size))
        self._seconds: list[float] = []
        self._pool: ThreadPoolExecutor | None = None

    def __enter__(self) -> "ThreadTeam":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Join the pool threads, if any ran."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _timed(self, fn, task, slot: int):
        t0 = time.perf_counter()
        try:
            return fn(task)
        finally:
            self._seconds[slot] += time.perf_counter() - t0

    def map(self, fn, tasks) -> list:
        tasks = list(tasks)
        if len(tasks) > self.size:
            raise ValueError(f"{len(tasks)} tasks for a team of {self.size}")
        if len(self._seconds) < len(tasks):
            self._seconds += [0.0] * (len(tasks) - len(self._seconds))
        if len(tasks) <= 1:
            return [self._timed(fn, t, 0) for t in tasks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.size - 1, thread_name_prefix="repro-pb")
        futures = [
            self._pool.submit(self._timed, fn, t, i) for i, t in enumerate(tasks[1:], 1)
        ]
        try:
            first = self._timed(fn, tasks[0], 0)
        finally:
            # Every task writes into the caller's buffers: none may
            # still run when map returns, not even after an error.
            for f in futures:
                f.exception()
        return [first] + [f.result() for f in futures]

    def take_seconds(self) -> list[float]:
        """Busy seconds per slot since the last call; resets them."""
        seconds, self._seconds = self._seconds, []
        return seconds
