"""Request batching and admission control for the multiply service.

The scheduler owns one FIFO of accepted requests and turns it into
*waves*: the head request is popped, and every queued request that is
**compatible** with it — same algorithm (``"pb"`` only; the planner and
the column kernels don't fuse) and same semiring — is drained into the
same wave, bounded by ``max_batch`` requests and ``max_batch_tuples``
estimated flops.  Every request runs under the server's one
``PBConfig``.  Compatible waves of two or more execute as a single
block-diagonally stacked PB multiply
(:meth:`repro.session.Session.multiply_many_detailed`); everything else
runs as a wave of one.

Batching is *emergent*, not delayed: a lone request is dispatched
immediately (no added latency at low load), and waves grow naturally
under concurrency because requests that arrive while a wave is
computing pile up in the queue.

Admission control is a bounded queue in two currencies: requests
(``max_pending``) and estimated flops (``max_pending_tuples``, the
proxy for arena-pool pressure — queued tuples are bytes the pool will
soon have to lease).  A request over either bound is rejected with a
``retry_after_s`` hint derived from the EWMA wave duration and the
current backlog, so well-behaved clients back off proportionally to
actual service speed.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["ServeRequest", "Wave", "Rejection", "BatchScheduler"]


@dataclass
class ServeRequest:
    """One accepted multiply request, queued for a wave."""

    id: object
    a_csc: object
    b_csr: object
    algorithm: str
    semiring: str
    tuples: int  # estimated flops (admission + batch budgeting)
    future: asyncio.Future = None
    enqueued_at: float = 0.0

    @property
    def compat_token(self) -> tuple:
        """Wave-compatibility key: requests fuse iff tokens are equal
        and the algorithm is the stackable ``"pb"``."""
        return (self.algorithm, self.semiring)

    @property
    def fusable(self) -> bool:
        return self.algorithm == "pb"


@dataclass
class Wave:
    """One dispatch unit: an ordered group of compatible requests."""

    id: int
    requests: list

    @property
    def tuples(self) -> int:
        return sum(r.tuples for r in self.requests)


@dataclass
class Rejection:
    """Admission-control verdict for an over-capacity request."""

    reason: str
    retry_after_s: float


class BatchScheduler:
    def __init__(
        self,
        execute,
        *,
        max_pending: int = 256,
        max_pending_tuples: int = 64_000_000,
        max_batch: int = 32,
        max_batch_tuples: int = 8_000_000,
        solo_tuples: int | None = None,
    ):
        self._execute = execute  # async callable(Wave)
        self.max_pending = int(max_pending)
        self.max_pending_tuples = int(max_pending_tuples)
        self.max_batch = max(1, int(max_batch))
        self.max_batch_tuples = int(max_batch_tuples)
        #: Requests at or above this many estimated flops always ride a
        #: wave of one — the server runs them on the sharded executor,
        #: which wants the whole machine to itself; fusing them into a
        #: stacked PB multiply would both defeat the shard routing and
        #: stall the small requests behind the giant.  ``None`` — off.
        self.solo_tuples = None if solo_tuples is None else int(solo_tuples)
        self._pending: deque = deque()
        self._pending_tuples = 0
        self._wake = asyncio.Event()
        self._closed = False
        self._wave_ids = itertools.count(1)
        #: EWMA of recent wave wall-clock seconds — the service-speed
        #: estimate behind retry_after hints (seeded pessimistically so
        #: the very first reject does not suggest an instant retry).
        self.wave_ewma_s = 0.05
        self.waves_dispatched = 0

    # -- admission -----------------------------------------------------------
    def submit(self, request: ServeRequest) -> Rejection | None:
        """Accept a request into the queue, or return a :class:`Rejection`."""
        if self._closed:
            return Rejection("server is shutting down", 0.0)
        if len(self._pending) >= self.max_pending:
            return Rejection(
                f"queue full ({self.max_pending} requests pending)",
                self._retry_after(),
            )
        if (
            self._pending_tuples + request.tuples > self.max_pending_tuples
            and self._pending
        ):
            # An oversized lone request on an empty queue is admitted —
            # rejecting it forever would livelock a legitimate client.
            return Rejection(
                f"queue full ({self._pending_tuples} tuples pending)",
                self._retry_after(),
            )
        request.enqueued_at = time.perf_counter()
        self._pending.append(request)
        self._pending_tuples += request.tuples
        self._wake.set()
        return None

    def _retry_after(self) -> float:
        # Backlog drains one wave at a time: expected wait is roughly
        # (queued waves ahead) x (EWMA wave seconds).
        waves_ahead = max(1, -(-len(self._pending) // self.max_batch))
        return float(min(5.0, max(0.005, waves_ahead * self.wave_ewma_s)))

    # -- wave formation ------------------------------------------------------
    def _solo(self, req: ServeRequest) -> bool:
        return self.solo_tuples is not None and req.tuples >= self.solo_tuples

    def _next_wave(self) -> Wave:
        head = self._pending.popleft()
        self._pending_tuples -= head.tuples
        requests = [head]
        if head.fusable and not self._solo(head):
            tuples = head.tuples
            token = head.compat_token
            keep = deque()
            while self._pending and len(requests) < self.max_batch:
                req = self._pending.popleft()
                if (
                    req.compat_token == token
                    and tuples + req.tuples <= self.max_batch_tuples
                    and not self._solo(req)
                ):
                    requests.append(req)
                    tuples += req.tuples
                    self._pending_tuples -= req.tuples
                else:
                    keep.append(req)
            # Unmatched requests keep their arrival order.
            keep.extend(self._pending)
            self._pending = keep
        return Wave(id=next(self._wave_ids), requests=requests)

    # -- main loop -----------------------------------------------------------
    async def run(self) -> None:
        """Dispatch loop: forms waves and awaits their execution.

        Waves run one at a time — the session is a single compute
        resource — so queue time under load *is* the batching window:
        requests arriving during a wave join the next one.
        """
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            wave = self._next_wave()
            t0 = time.perf_counter()
            await self._execute(wave)
            elapsed = time.perf_counter() - t0
            self.wave_ewma_s = 0.7 * self.wave_ewma_s + 0.3 * elapsed
            self.waves_dispatched += 1

    def close(self) -> list:
        """Stop accepting work; returns the requests still queued (the
        caller fails them out)."""
        self._closed = True
        drained = list(self._pending)
        self._pending.clear()
        self._pending_tuples = 0
        self._wake.set()
        return drained

    def gauges(self) -> dict:
        return {
            "pending": len(self._pending),
            "pending_tuples": self._pending_tuples,
            "max_pending": self.max_pending,
            "max_pending_tuples": self.max_pending_tuples,
            "max_batch": self.max_batch,
            "max_batch_tuples": self.max_batch_tuples,
            "solo_tuples": self.solo_tuples,
            "waves_dispatched": self.waves_dispatched,
            "wave_ewma_s": self.wave_ewma_s,
        }
