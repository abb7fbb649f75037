"""Server-side metrics: counters plus a small latency reservoir.

One :class:`ServerMetrics` instance lives on the server and is only
touched from the event loop thread (single-threaded — no locking).
Latency quantiles come from a bounded ring of recent request latencies
rather than a streaming sketch: the service-level numbers (`p50`/`p99`
over the last ``reservoir`` requests) are what the bench suite and the
``stats`` op report, and a deque keeps them O(1) to record.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["ServerMetrics"]


class ServerMetrics:
    def __init__(self, reservoir: int = 4096):
        self.counters = {
            "requests": 0,  # multiply requests accepted into the queue
            "responses_ok": 0,
            "responses_error": 0,
            "rejected": 0,  # admission-control 429s
            "bad_requests": 0,
            "batches": 0,  # waves dispatched to the session
            "fused_batches": 0,  # waves executed as one stacked multiply
            "batched_requests": 0,  # requests served by waves of size >= 2
            "connections": 0,
        }
        self._latencies = deque(maxlen=reservoir)
        self._queue_waits = deque(maxlen=reservoir)

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] += by

    def record_request(self, latency_s: float, queue_wait_s: float) -> None:
        self._latencies.append(latency_s)
        self._queue_waits.append(queue_wait_s)

    def _quantiles(self, values) -> dict:
        if not values:
            return {"count": 0, "p50_s": 0.0, "p99_s": 0.0, "mean_s": 0.0}
        arr = np.asarray(values, dtype=np.float64)
        return {
            "count": int(arr.size),
            "p50_s": float(np.quantile(arr, 0.5)),
            "p99_s": float(np.quantile(arr, 0.99)),
            "mean_s": float(arr.mean()),
        }

    def snapshot(self) -> dict:
        return {
            "counters": dict(self.counters),
            "latency": self._quantiles(self._latencies),
            "queue_wait": self._quantiles(self._queue_waits),
        }
