"""Worker-death recovery of persistent sessions (``@pytest.mark.parallel``).

A session's process pool can die under it — OOM killer, segfaulting
worker, operator ``kill -9``.  The contract (DESIGN.md §15 failure
model): the poisoned :class:`~repro.parallel.executor.ProcessEngine` is
torn down and respawned transparently, the interrupted multiply is
retried once and succeeds bit-identically, ``stats.engine_restarts``
records the event, and nothing leaks into ``/dev/shm`` — including
when the death happens under a fused ``multiply_many`` wave.

Each scenario runs in a subprocess (a real driver script, so worker
pickling works under ``spawn`` too) and the parent asserts a silent
``resource_tracker`` at interpreter exit, mirroring
``tests/test_shm_hygiene.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel import process_backend_available

pytestmark = [pytest.mark.parallel, pytest.mark.session]

needs_pool = pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)

REPO_ROOT = Path(__file__).resolve().parent.parent
START_METHODS = sorted(set(mp.get_all_start_methods()) & {"fork", "spawn"})

DRIVER = '''
import glob
import os
import signal
import sys

import repro
from repro import PBConfig, Session
from repro.kernels import jit


def shm_names():
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))


def _suicide():
    """Runs inside a worker: dies without cleanup, like the OOM killer."""
    os.kill(os.getpid(), signal.SIGKILL)


def kill_workers(session):
    procs = list(session._engine._pool._processes.values())
    assert procs, "engine has no live workers to kill"
    for p in procs:
        p.kill()
    for p in procs:
        p.join()


def main(start_method):
    before = shm_names()
    a = repro.erdos_renyi(1 << 8, edge_factor=4, seed=7, fmt="csr")
    serial = repro.multiply(a, a, config=PBConfig(nbins=8))
    cfg = PBConfig(executor="process", nthreads=2, nbins=8)
    # The pool serves only the numpy pipeline: with the compiled tier
    # off, every multiply below runs on the engine.
    with jit.disabled(), Session(cfg, start_method=start_method) as s:
        c = s.multiply(a, a)
        assert c.data.tobytes() == serial.data.tobytes()
        spawns0 = s.stats.engine_spawns

        # 1. Workers killed between multiplies (kill -9 from outside).
        kill_workers(s)
        c = s.multiply(a, a)
        assert c.data.tobytes() == serial.data.tobytes()
        assert s.stats.engine_restarts == 1, s.stats.engine_restarts
        assert s.stats.engine_spawns > spawns0
        # The retried multiply ran on the engine once, not twice.
        assert s.stats.engine_multiplies == 2, s.stats.engine_multiplies

        # 2. A worker dies *while executing* (suicide task poisons the
        # pool mid-flight), then a fused multiply_many wave must recover.
        try:
            s._engine._pool.submit(_suicide).result()
        except Exception:
            pass  # BrokenProcessPool from the dying worker
        outs = s.multiply_many([(a, a), (a, a), (a, a)])
        for c in outs:
            assert c.data.tobytes() == serial.data.tobytes()
        assert s.stats.engine_restarts == 2, s.stats.engine_restarts
        assert s.stats.fused_waves == 1
        stats = s.runtime_stats()
        assert stats["engine"]["workers_alive"] >= 1
        assert not stats["engine"]["broken"]
    # With the tier on, the same config runs compiled on threads: no
    # pool to kill.
    if jit.jit_available():
        with Session(cfg, start_method=start_method) as s:
            c = s.multiply(a, a)
            assert c.data.tobytes() == serial.data.tobytes()
            assert s.stats.engine_spawns == 0, s.stats.engine_spawns
    leftover = shm_names() - before
    if leftover:
        raise SystemExit(f"leaked shm segments: {sorted(leftover)}")
    print("RECOVERY-OK")


if __name__ == "__main__":
    main(sys.argv[1])
'''


def _run_driver(tmp_path: Path, start_method: str):
    script = tmp_path / "recovery_driver.py"
    script.write_text(DRIVER)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script), start_method],
        capture_output=True,
        text=True,
        env=env,
        timeout=560,
    )


@needs_pool
@pytest.mark.parametrize("start_method", START_METHODS)
def test_worker_death_recovery(tmp_path, start_method):
    proc = _run_driver(tmp_path, start_method)
    assert proc.returncode == 0, (
        f"driver failed under {start_method}:\n{proc.stdout}\n{proc.stderr}"
    )
    assert "RECOVERY-OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr
