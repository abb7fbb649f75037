"""Session plumbing shared by the looping apps.

Every app in this package calls SpGEMM in a loop (MCL expansion, matrix
powers, AMG triple products...), which is exactly the workload
:class:`repro.session.Session` exists for: when the loop's multiplies
run on worker processes (``PBConfig(executor="process")`` on the numpy
pipeline) a session spawns the pool once and recycles shared-memory
arenas across all iterations, instead of paying pool startup and arena
setup per multiply.  Compiled multiplies run on threads and need none.

:func:`spgemm_session` is the one policy point: apps call it with their
``config`` / ``session`` keyword pair and get back the session their
loop should multiply on (or ``None`` for the plain dispatch path).  A
caller-provided session is used as-is and left open; an internal one is
created only when the config actually runs on worker processes
(:func:`repro.parallel.executor.uses_workers`), and closed when the
loop finishes.
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def spgemm_session(config=None, session=None):
    """Yield the session an app loop should run its SpGEMMs on.

    * ``session`` given — yielded unchanged; the caller owns its
      lifetime (several app invocations can share one warm pool).
    * ``config`` runs on worker processes — a fresh internal
      :class:`repro.session.Session` is opened for the duration of the
      loop and closed (pool down, arenas unlinked) on exit, even on
      error.
    * otherwise — ``None``: the loop uses plain per-call dispatch, so a
      config that falls back to serial (``nthreads=1``, no shared
      memory) runs serially, exactly as :func:`repro.multiply` does.
    """
    if session is not None:
        yield session
        return
    from ..parallel.executor import uses_workers

    if config is not None and uses_workers(config):
        from ..session import Session

        with Session(config) as s:
            yield s
        return
    yield None


def loop_multiply(sess, a_csc, b_csr, algorithm, config, **kwargs):
    """One SpGEMM inside an app loop, on the session when there is one.

    Falls back to :func:`repro.kernels.dispatch.spgemm` (the historical
    app path) when no session is active, forwarding ``config`` only
    when the caller actually set one.
    """
    if sess is not None:
        return sess.multiply(a_csc, b_csr, algorithm=algorithm, config=config, **kwargs)
    from ..kernels.dispatch import spgemm

    if config is not None:
        kwargs["config"] = config
    return spgemm(a_csc, b_csr, algorithm=algorithm, **kwargs)
