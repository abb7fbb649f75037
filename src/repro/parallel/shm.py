"""Zero-copy array transport over POSIX shared memory.

The process backend moves the large index/value arrays between the
parent and its workers without serializing them: the parent copies each
array once into a named ``multiprocessing.shared_memory`` segment, and
workers map the same segment by name.  Two details matter:

* **Ownership** is strictly parent-side.  Workers *attach* (map an
  existing segment) and must never unlink it.  Python < 3.13 registers
  every attach with the ``resource_tracker``; whether that registration
  must be undone depends on the start method.  Under ``fork`` the
  worker shares the parent's tracker, so its registration is a no-op
  set-add and must be left alone (unregistering would race the parent's
  own unlink bookkeeping).  Under ``spawn`` the worker runs its own
  tracker, which would unlink the segment when the worker exits —
  destroying it under the parent's feet — so there the registration is
  removed.  The executor tells us which case we are in via
  :func:`set_tracker_inherited` from its pool initializer; 3.13+ skips
  registration natively (``track=False``).
* **Zero-byte segments** are illegal at the OS level, so every segment
  is at least one byte; the :class:`ArraySpec` carries the logical
  shape and the view is trimmed to it.

When the interpreter was built without ``_posixshmem`` (some minimal
platforms), :data:`HAVE_SHARED_MEMORY` is ``False`` and the caller
falls back to serial execution.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

try:  # pragma: no cover - import guard exercised only on exotic builds
    from multiprocessing import shared_memory as _shm

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover
    _shm = None
    HAVE_SHARED_MEMORY = False

#: Python >= 3.13 can skip resource-tracker registration natively.
_HAVE_TRACK_KW = HAVE_SHARED_MEMORY and "track" in inspect.signature(
    _shm.SharedMemory.__init__
).parameters


@dataclass(frozen=True)
class ArraySpec:
    """Pickle-cheap handle to one ndarray living in a shared segment."""

    name: str
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


#: True when this (worker) process inherited the parent's resource
#: tracker via fork — set by the executor's pool initializer.
_TRACKER_INHERITED = False


def set_tracker_inherited(flag: bool) -> None:
    """Record whether this worker shares the parent's resource tracker."""
    global _TRACKER_INHERITED
    _TRACKER_INHERITED = bool(flag)


def _untrack(segment) -> None:
    """Undo the attach-side resource_tracker registration (see module doc)."""
    try:  # pragma: no cover - defensive; tracker layout is CPython-internal
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def attach(spec: ArraySpec):
    """Map an existing segment; returns ``(ndarray view, segment)``.

    The caller must keep ``segment`` alive while the view is used and
    ``segment.close()`` it afterwards (never ``unlink`` — the parent
    owns the segment).
    """
    if _HAVE_TRACK_KW:  # pragma: no cover - 3.13+ only
        seg = _shm.SharedMemory(name=spec.name, track=False)
    else:
        seg = _shm.SharedMemory(name=spec.name)
        if not _TRACKER_INHERITED:
            _untrack(seg)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)
    return view, seg


class ArenaPool:
    """Size-classed recycler of shared-memory segments.

    A long-lived :class:`repro.session.Session` leases expand/distribute
    buffers from this pool instead of creating and unlinking fresh
    segments per multiply: segment sizes are rounded up to the next
    power of two (min one page), released segments park on a per-class
    free list, and the next lease of the same class reuses the mapping —
    no shm_open/ftruncate/mmap, and the pages are already faulted in.

    Ownership stays strictly parent-side: every segment was created (and
    resource-tracker-registered) by this process, and :meth:`close`
    unlinks everything still parked or leased, so a closed pool provably
    leaves nothing behind in ``/dev/shm``.
    """

    #: Smallest size class (one typical page).
    MIN_CLASS_BYTES = 4096

    def __init__(self):
        if not HAVE_SHARED_MEMORY:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._free: dict[int, list] = {}
        self._leased: dict[str, tuple] = {}  # segment name -> (segment, class)
        self._closed = False
        self._counters = {
            "leases": 0,
            "hits": 0,
            "misses": 0,
            "released": 0,
            "unlinked": 0,
        }

    @staticmethod
    def size_class(nbytes: int) -> int:
        """Round a request up to its power-of-two size class."""
        return max(ArenaPool.MIN_CLASS_BYTES, 1 << max(0, int(nbytes) - 1).bit_length())

    def cached_bytes(self) -> int:
        """Total bytes parked on the free lists."""
        return sum(cls * len(segs) for cls, segs in self._free.items())

    def stats(self) -> dict:
        """Cheap snapshot of pool counters.

        Extends the lifetime counters (leases/hits/misses/released/
        unlinked) with the instantaneous gauges a ``/stats`` endpoint or
        bench suite wants: ``outstanding`` leases not yet released,
        bytes parked on the free lists, and whether the pool is closed.
        """
        return {
            **self._counters,
            "outstanding": len(self._leased),
            "cached_bytes": self.cached_bytes(),
            "closed": self._closed,
        }

    def lease(self, nbytes: int):
        """Borrow a segment of at least ``nbytes``; returns
        ``(segment, fresh)`` where ``fresh`` says the segment was newly
        created (its pages are untouched zeros)."""
        if self._closed:
            raise RuntimeError("arena pool is closed")
        cls = self.size_class(nbytes)
        self._counters["leases"] += 1
        free = self._free.get(cls)
        if free:
            seg = free.pop()
            self._counters["hits"] += 1
            fresh = False
        else:
            seg = _shm.SharedMemory(create=True, size=cls)
            self._counters["misses"] += 1
            fresh = True
        self._leased[seg.name] = (seg, cls)
        return seg, fresh

    def release(self, seg) -> None:
        """Return a leased segment to its free list (or unlink it when
        the pool is closed)."""
        entry = self._leased.pop(seg.name, None)
        cls = entry[1] if entry is not None else self.size_class(seg.size)
        if self._closed:
            self._unlink(seg)
            return
        self._counters["released"] += 1
        self._free.setdefault(cls, []).append(seg)

    def _unlink(self, seg) -> None:
        """Destroy one segment.  The unlink always runs; the mapping
        close is best-effort — a caller may still hold numpy views over
        the buffer (abnormal teardown), in which case the mapping dies
        with the last view and only the name is removed now."""
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        try:
            seg.close()
        except BufferError:  # live views: mapping freed when they die
            pass
        self._counters["unlinked"] += 1

    def trim(self) -> None:
        """Unlink every parked segment (free lists only)."""
        for segs in self._free.values():
            for seg in segs:
                self._unlink(seg)
        self._free.clear()

    def close(self) -> None:
        """Unlink everything — parked *and* still-leased (idempotent).

        Closing with live leases invalidates their views; callers close
        arenas first in normal operation, but abnormal teardown must
        still leave zero segments behind in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        self.trim()
        for name in list(self._leased):
            seg, _ = self._leased.pop(name)
            self._unlink(seg)

    def __enter__(self) -> "ArenaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SharedArena:
    """Parent-side bundle of named shared arrays for one pipeline phase.

    ``share`` copies an existing array in; ``allocate`` creates a
    writable output the workers fill in place.  ``specs()`` returns the
    pickle-cheap handles a worker task needs; ``close`` unmaps and
    unlinks everything (parent owns all segments).

    With ``pool=`` (an :class:`ArenaPool`), segments are leased from the
    pool instead of created, and ``close`` returns them for reuse rather
    than unlinking.  Pool-backed allocations skip the zero-fill — every
    consumer in the PB pipeline writes each logical element before
    reading it — which is exactly the recycling win: no per-multiply
    page faulting or clearing.
    """

    def __init__(self, pool: "ArenaPool | None" = None):
        if not HAVE_SHARED_MEMORY:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._pool = pool
        self._segments: dict[str, object] = {}
        self._specs: dict[str, ArraySpec] = {}
        self._closed = False

    def allocate(self, key: str, shape, dtype) -> np.ndarray:
        """Create (or lease) a shared array and return the parent's view.

        Freshly created segments are zero-filled (also pre-faulting the
        pages); recycled pool segments keep their stale bytes — callers
        must write before they read, which every pipeline phase does.
        """
        if key in self._segments:
            raise KeyError(f"arena already holds {key!r}")
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if self._pool is not None:
            seg, fresh = self._pool.lease(max(1, nbytes))
        else:
            seg = _shm.SharedMemory(create=True, size=max(1, nbytes))
            fresh = True
        self._segments[key] = seg
        self._specs[key] = ArraySpec(seg.name, tuple(shape), dtype.str)
        view = np.ndarray(tuple(shape), dtype=dtype, buffer=seg.buf)
        if fresh:
            view[...] = 0
        return view

    def share(self, key: str, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into a new shared segment; returns the view."""
        array = np.ascontiguousarray(array)
        view = self.allocate(key, array.shape, array.dtype)
        view[...] = array
        return view

    def spec(self, key: str) -> ArraySpec:
        return self._specs[key]

    def specs(self, *keys: str) -> tuple[ArraySpec, ...]:
        return tuple(self._specs[k] for k in keys)

    def view(self, key: str) -> np.ndarray:
        spec = self._specs[key]
        return np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=self._segments[key].buf
        )

    def take(self, key: str) -> np.ndarray:
        """Copy an array out of the arena (safe to use after close)."""
        return self.view(key).copy()

    def close(self) -> None:
        """Release every segment (idempotent).

        Pool-backed segments go back to the pool's free lists for the
        next lease; owned segments are unmapped and unlinked.  Either
        way the arena's views must not be used afterwards.
        """
        if self._closed:
            return
        self._closed = True
        for seg in self._segments.values():
            if self._pool is not None:
                self._pool.release(seg)
                continue
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AttachedArrays:
    """Worker-side context manager mapping a set of :class:`ArraySpec`."""

    def __init__(self, specs: dict[str, ArraySpec]):
        self._specs = specs
        self._segments: list = []
        self.arrays: dict[str, np.ndarray] = {}

    def __enter__(self) -> dict[str, np.ndarray]:
        for key, spec in self._specs.items():
            view, seg = attach(spec)
            self._segments.append(seg)
            self.arrays[key] = view
        return self.arrays

    def __exit__(self, *exc) -> None:
        self.arrays.clear()
        for seg in self._segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover - defensive
                pass
        self._segments.clear()
