"""Shared-memory hygiene of persistent sessions (``@pytest.mark.parallel``).

A session leases segments from its :class:`~repro.parallel.shm.ArenaPool`
across many multiplies; the contract is that *nothing* outlives
``Session.close()``: zero leftover ``/dev/shm`` segments and zero
``resource_tracker`` leak warnings at interpreter exit — including after
an abnormal teardown where a worker raises mid-bin with arenas live.

Each scenario runs in a subprocess (a real driver script, so worker
pickling works under ``spawn`` too): the driver diffs ``/dev/shm``
around the session and the parent asserts its stderr carries no
tracker warnings, which only surface at process exit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import multiprocessing as mp
import pytest

from repro.parallel import process_backend_available

pytestmark = pytest.mark.parallel

needs_pool = pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)

REPO_ROOT = Path(__file__).resolve().parent.parent
START_METHODS = sorted(
    set(mp.get_all_start_methods()) & {"fork", "spawn"}
)

DRIVER = '''
import glob
import sys

import numpy as np

import repro
from repro import PBConfig, Session
from repro.kernels import jit
from repro.semiring import Semiring


def shm_names():
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))


class BombSemiring(Semiring):
    """plus_times until compress calls the fold mid-bin."""

    def fold(self, run_start, values):
        raise RuntimeError("bin bomb")


def main(start_method, n_multiplies):
    before = shm_names()
    a = repro.erdos_renyi(1 << 9, edge_factor=4, seed=5, fmt="csr")
    serial = repro.multiply(a, a, config=PBConfig(nbins=16))
    cfg = PBConfig(executor="process", nthreads=2, nbins=16)
    # The pool serves only the numpy pipeline: with the compiled tier
    # off, every multiply below leases arenas on the engine.
    with jit.disabled(), Session(cfg, start_method=start_method) as s:
        for _ in range(n_multiplies):
            c = s.multiply(a, a)
            assert c.data.tobytes() == serial.data.tobytes()
        # Abnormal teardown: an unregistered (pickled-by-value) semiring
        # whose ⊕ fold detonates inside a worker, mid-bin, while the
        # multiply's arenas are still leased.
        bomb = BombSemiring(
            name="bomb-unregistered",
            add_ufunc=np.add,
            multiply=np.multiply,
            add_identity=0.0,
        )
        try:
            s.multiply(a, a, semiring=bomb)
        except Exception as exc:
            assert "bin bomb" in repr(exc), f"unexpected failure: {exc!r}"
        else:
            raise SystemExit("worker bomb did not propagate")
        # The session survives the failure: pool still warm, arenas
        # reclaimed, next multiply still bit-identical.
        assert s.is_warm()
        c = s.multiply(a, a)
        assert c.data.tobytes() == serial.data.tobytes()
    # With the tier on, the same config runs compiled on threads: no
    # pool, no arenas.
    if jit.jit_available():
        with Session(cfg, start_method=start_method) as s:
            c = s.multiply(a, a)
            assert c.data.tobytes() == serial.data.tobytes()
            assert s.stats.engine_spawns == 0, s.stats.engine_spawns
            assert s.arena_pool.stats()["leases"] == 0
    leftover = shm_names() - before
    if leftover:
        raise SystemExit(f"leaked shm segments: {sorted(leftover)}")
    print("HYGIENE-OK")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
'''


def _run_driver(tmp_path: Path, start_method: str, n: int):
    script = tmp_path / "hygiene_driver.py"
    script.write_text(DRIVER)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script), start_method, str(n)],
        capture_output=True,
        text=True,
        env=env,
        timeout=560,
    )


@needs_pool
@pytest.mark.parametrize("start_method", START_METHODS)
def test_no_shm_leaks_and_no_tracker_warnings(tmp_path, start_method):
    n = 8 if start_method == "fork" else 4  # spawn pays slow worker boot
    proc = _run_driver(tmp_path, start_method, n)
    assert proc.returncode == 0, (
        f"driver failed under {start_method}:\n{proc.stdout}\n{proc.stderr}"
    )
    assert "HYGIENE-OK" in proc.stdout
    # resource_tracker complains on stderr at interpreter exit; any
    # mention means a segment was left registered or double-unlinked.
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr
