"""The multiply server: asyncio front end over one shared Session.

Architecture (DESIGN.md §15)::

    clients ──frames──▶ asyncio loop ──submit──▶ BatchScheduler
                                                     │ waves
                                                     ▼
                                        compute thread (one)
                                                     │
                                             shared Session
                                   (warm pool · arena pool · plan
                                    cache · machine profile · JIT)

* The **event loop** owns sockets, framing, decoding, admission and
  response encoding.  It never blocks on a multiply.
* One **compute thread** serializes all Session use (a Session is a
  single compute resource: one warm pool, one arena pool).  Waves are
  handed over with ``run_in_executor``; while a wave computes, the
  loop keeps accepting requests — which is exactly how batches form.
* **Every** client shares the one Session, hence one plan cache, one
  machine profile, one warm JIT tier and one recycled arena pool.

Failure model: a pool worker dying mid-wave surfaces as
``BrokenProcessPool``.  Every wave runs through ``Session._run``, which
swaps in a fresh engine and retries the multiply once; a second death
fails the wave's requests with ``code="error"``, and later requests run
on the replacement pool.  Admission control rejects with
``code="rejected"`` + ``retry_after_s`` before the queue can grow
without bound (the queued-tuples bound is the arena-pool pressure
proxy).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..core.config import PBConfig
from ..errors import ShapeError
from ..kernels.dispatch import get_algorithm
from ..semiring import get_semiring
from ..session import Session
from .metrics import ServerMetrics
from .protocol import ProtocolError, decode_matrix, encode_matrix, read_frame, write_frame
from .scheduler import BatchScheduler, ServeRequest, Wave

__all__ = ["ServeConfig", "MultiplyServer"]


@dataclass
class ServeConfig:
    """Network + scheduling knobs for one :class:`MultiplyServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 — ephemeral; read the bound port off .address
    unix_path: str | None = None  # set to serve on a unix socket instead
    max_pending: int = 256
    max_pending_tuples: int = 64_000_000
    max_batch: int = 32
    max_batch_tuples: int = 8_000_000
    #: Route large ``"pb"``/``"tiled"`` requests through the sharded
    #: executor (:mod:`repro.core.sharded`): worker count (int or
    #: ``"auto"``), or ``None`` — sharded routing off.  Small requests
    #: keep wave batching either way.
    shards: int | str | None = None
    #: Flop threshold for the sharded route: requests at or above this
    #: many estimated tuples run sharded (and ride a wave of one — see
    #: ``BatchScheduler.solo_tuples``); below it they batch as usual.
    shard_tuples: int = 32_000_000


class MultiplyServer:
    """Long-running SpGEMM service around one shared :class:`Session`.

    Usage::

        server = MultiplyServer(PBConfig(), ServeConfig(port=7077))
        await server.start()
        await server.serve_forever()   # until .close() or a shutdown op
    """

    def __init__(
        self,
        config: PBConfig | None = None,
        serve: ServeConfig | None = None,
        *,
        start_method: str | None = None,
        warm: bool = False,
    ):
        self.config = config or PBConfig()
        self.serve_config = serve or ServeConfig()
        self._start_method = start_method
        self._warm = warm
        self.session: Session | None = None
        self.metrics = ServerMetrics()
        self.scheduler: BatchScheduler | None = None
        self._server = None
        self._scheduler_task = None
        self._compute: ThreadPoolExecutor | None = None
        self._started = False
        self._closed = False
        self._done = asyncio.Event()
        self.address = None  # (host, port) or unix path once started

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "MultiplyServer":
        if self._started:
            return self
        self._started = True
        self.session = Session(
            self.config, start_method=self._start_method, warm=self._warm
        )
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-compute"
        )
        sc = self.serve_config
        self.scheduler = BatchScheduler(
            self._execute_wave,
            max_pending=sc.max_pending,
            max_pending_tuples=sc.max_pending_tuples,
            max_batch=sc.max_batch,
            max_batch_tuples=sc.max_batch_tuples,
            solo_tuples=sc.shard_tuples if sc.shards is not None else None,
        )
        self._scheduler_task = asyncio.create_task(self.scheduler.run())
        if sc.unix_path:
            self._server = await asyncio.start_unix_server(
                self._on_client, path=sc.unix_path
            )
            self.address = sc.unix_path
        else:
            self._server = await asyncio.start_server(
                self._on_client, host=sc.host, port=sc.port
            )
            self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def serve_forever(self) -> None:
        """Block until :meth:`close` (or a client ``shutdown`` op)."""
        await self._done.wait()

    async def close(self) -> None:
        """Drain, reject queued work, and tear everything down
        (idempotent).  The Session close unlinks every pooled shm
        segment — a stopped server leaves ``/dev/shm`` clean."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.scheduler is not None:
            for req in self.scheduler.close():
                if not req.future.done():
                    req.future.set_exception(
                        ConnectionError("server shutting down")
                    )
        if self._scheduler_task is not None:
            await self._scheduler_task
        if self._compute is not None:
            self._compute.shutdown(wait=True)
        if self.session is not None:
            self.session.close()
        self._done.set()

    # -- connection handling -------------------------------------------------
    async def _on_client(self, reader, writer) -> None:
        self.metrics.bump("connections")
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            await self._client_loop(reader, writer, write_lock, tasks)
        except asyncio.CancelledError:
            # Server close cancels handler tasks mid-read; finish the
            # teardown normally so shutdown stays silent.
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _client_loop(self, reader, writer, write_lock, tasks) -> None:
        while True:
            try:
                msg = await read_frame(reader)
            except ProtocolError as exc:
                self.metrics.bump("bad_requests")
                try:
                    await write_frame(
                        writer, _error(None, "bad_request", str(exc)), write_lock
                    )
                except (ConnectionError, ProtocolError):
                    pass
                return
            if msg is None:
                return
            # Each request is its own task so many multiplies can be in
            # flight per connection (the client multiplexes by id); the
            # writer lock keeps frames whole.
            task = asyncio.create_task(self._dispatch(msg, writer, write_lock))
            tasks.add(task)
            task.add_done_callback(tasks.discard)

    async def _dispatch(self, msg, writer, write_lock) -> None:
        rid = msg.get("id")
        op = msg.get("op")
        try:
            if op == "ping":
                await self._safe_write(writer, {"id": rid, "ok": True}, write_lock)
            elif op == "stats":
                await self._safe_write(
                    writer, {"id": rid, "ok": True, "stats": self.stats()},
                    write_lock,
                )
            elif op == "shutdown":
                await self._safe_write(writer, {"id": rid, "ok": True}, write_lock)
                asyncio.get_running_loop().create_task(self.close())
            elif op == "multiply":
                await self._handle_multiply(msg, rid, writer, write_lock)
            else:
                self.metrics.bump("bad_requests")
                await self._safe_write(
                    writer, _error(rid, "bad_request", f"unknown op {op!r}"),
                    write_lock,
                )
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass  # client went away mid-response

    async def _safe_write(self, writer, obj, lock) -> None:
        try:
            await write_frame(writer, obj, lock)
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass

    # -- multiply path -------------------------------------------------------
    async def _handle_multiply(self, msg, rid, writer, write_lock) -> None:
        t_recv = time.perf_counter()
        try:
            request = self._parse_multiply(msg, rid)
        except (ProtocolError, ShapeError, ValueError, KeyError, TypeError) as exc:
            self.metrics.bump("bad_requests")
            await self._safe_write(
                writer, _error(rid, "bad_request", str(exc)), write_lock
            )
            return
        rejection = self.scheduler.submit(request)
        if rejection is not None:
            self.metrics.bump("rejected")
            err = _error(rid, "rejected", rejection.reason)
            err["error"]["retry_after_s"] = rejection.retry_after_s
            await self._safe_write(writer, err, write_lock)
            return
        self.metrics.bump("requests")
        try:
            payload = await request.future
        except ConnectionError as exc:  # server shutdown drained the queue
            await self._safe_write(
                writer, _error(rid, "rejected", str(exc)), write_lock
            )
            return
        if "c" in payload:
            self.metrics.bump("responses_ok")
        else:
            self.metrics.bump("responses_error")
        payload["timings"]["total_s"] = time.perf_counter() - t_recv
        self.metrics.record_request(
            payload["timings"]["total_s"], payload["timings"]["queue_wait_s"]
        )
        response = {"id": rid, "ok": "c" in payload, **payload}
        if "c" in payload:
            response["c"] = encode_matrix(payload["c"])
        await self._safe_write(writer, response, write_lock)

    def _parse_multiply(self, msg, rid) -> ServeRequest:
        from ..matrix.stats import total_flops

        if "config" in msg:
            # The server's config is an operator decision: a client
            # must not pick server-side paths or resize the pool.
            raise ProtocolError("multiply takes no config; the server's applies")
        a = decode_matrix(msg["a"])
        b = decode_matrix(msg["b"])
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
        algorithm = msg.get("algorithm", "pb")
        if not isinstance(algorithm, str):
            raise ProtocolError("algorithm must be a string")
        if algorithm != "auto":
            get_algorithm(algorithm)  # raises DispatchError on unknown names
        semiring = msg.get("semiring", "plus_times")
        get_semiring(semiring)  # raises KeyError on unknown names
        a_csc = a.to_csc()
        return ServeRequest(
            id=rid,
            a_csc=a_csc,
            b_csr=b,
            algorithm=algorithm,
            semiring=semiring,
            tuples=int(total_flops(a_csc, b)),
            future=asyncio.get_running_loop().create_future(),
        )

    # -- wave execution ------------------------------------------------------
    async def _execute_wave(self, wave: Wave) -> None:
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        queue_waits = [t0 - r.enqueued_at for r in wave.requests]
        self.metrics.bump("batches")
        if len(wave.requests) >= 2:
            self.metrics.bump("fused_batches")
            self.metrics.bump("batched_requests", by=len(wave.requests))
        try:
            outcomes = await loop.run_in_executor(
                self._compute, self._run_wave_sync, wave
            )
        except Exception as exc:  # pragma: no cover - defensive
            outcomes = [("error", f"{type(exc).__name__}: {exc}")] * len(
                wave.requests
            )
        wave_s = time.perf_counter() - t0
        fused = len(wave.requests) >= 2
        for i, (request, outcome) in enumerate(zip(wave.requests, outcomes)):
            kind, value = outcome[0], outcome[1]
            batch_info = {
                "id": wave.id,
                "size": len(wave.requests),
                "index": i,
                "fused": fused and kind == "ok",
            }
            timings = {
                "queue_wait_s": queue_waits[i],
                "wave_s": wave_s,
            }
            if kind == "ok":
                c, phase_seconds, compute_s, plan = value
                timings["compute_s"] = compute_s
                timings["phase_seconds"] = phase_seconds
                payload = {
                    "c": c,
                    "timings": timings,
                    "batch": batch_info,
                    "plan": plan,
                }
            else:
                timings["compute_s"] = wave_s
                payload = {
                    "timings": timings,
                    "batch": batch_info,
                    "error": {"code": "error", "message": value},
                }
            if not request.future.done():
                request.future.set_result(payload)

    def _run_wave_sync(self, wave: Wave) -> list:
        """Compute-thread entry: run one wave (the Session retries a
        worker death once; a second one fails the wave)."""
        session = self.session
        reqs = wave.requests
        if len(reqs) >= 2:
            # Compatible by construction: one stacked PB multiply.
            head = reqs[0]
            t0 = time.perf_counter()
            products, detail = session.multiply_many_detailed(
                [(r.a_csc, r.b_csr) for r in reqs],
                semiring=head.semiring,
            )
            compute_s = time.perf_counter() - t0
            phase = {**detail.phase_seconds, "shared": True}
            plan = {
                "algorithm": "pb",
                "source": "fused-wave",
                "executor": detail.executor_used,
            }
            # Wave-level timings are shared; compute_s is the per-
            # request amortized share of the stacked multiply.
            share = compute_s / len(reqs)
            return [("ok", (c, phase, share, plan)) for c in products]
        req = reqs[0]
        try:
            return [("ok", self._run_single(req))]
        except Exception as exc:
            return [("error", f"{type(exc).__name__}: {exc}")]

    def _run_single(self, req: ServeRequest):
        session = self.session
        sc = self.serve_config
        t0 = time.perf_counter()
        if (
            sc.shards is not None
            and req.algorithm in ("pb", "tiled", "sharded")
            and req.tuples >= sc.shard_tuples
        ):
            from ..core.sharded import sharded_config, sharded_spgemm_detailed

            cfg = sharded_config(self.config, sc.shards)
            detail = session._run(
                lambda: sharded_spgemm_detailed(
                    req.a_csc, req.b_csr, req.semiring, cfg, session=session
                )
            )
            compute_s = time.perf_counter() - t0
            plan = {
                "algorithm": "sharded",
                "source": "shard-routed",
                "shards": detail.plan.grid_rows if detail.plan else 1,
                "fallback": detail.fallback,
            }
            phase = {"merge": detail.merge_seconds}
            return detail.c, phase, compute_s, plan
        if req.algorithm == "pb":
            detail = session.multiply_detailed(
                req.a_csc, req.b_csr, semiring=req.semiring
            )
            compute_s = time.perf_counter() - t0
            plan = {
                "algorithm": "pb",
                "source": "direct",
                "executor": detail.executor_used,
            }
            return detail.c, dict(detail.phase_seconds), compute_s, plan
        if req.algorithm == "auto":
            from ..planner import plan as make_plan

            chosen = make_plan(
                req.a_csc,
                req.b_csr,
                semiring=req.semiring,
                config=self.config,
                warm_pool=session.is_warm(),
            )
            c = session.multiply(
                req.a_csc, req.b_csr, algorithm=chosen, semiring=req.semiring
            )
            compute_s = time.perf_counter() - t0
            plan = {
                "algorithm": chosen.algorithm,
                "source": chosen.source,
                "executor": chosen.executor,
                "nthreads": chosen.nthreads,
                "predicted_seconds": chosen.predicted_seconds,
                "cache_key": chosen.cache_key,
            }
            return c, {}, compute_s, plan
        c = session.multiply(
            req.a_csc,
            req.b_csr,
            algorithm=req.algorithm,
            semiring=req.semiring,
        )
        compute_s = time.perf_counter() - t0
        return c, {}, compute_s, {"algorithm": req.algorithm, "source": "direct"}

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        """The ``stats`` op payload: server counters + latency
        quantiles, scheduler gauges, and the shared session's runtime
        counters (engine + arena pool)."""
        return {
            "server": self.metrics.snapshot(),
            "scheduler": self.scheduler.gauges() if self.scheduler else {},
            "session": self.session.runtime_stats() if self.session else {},
        }


def _error(rid, code: str, message: str) -> dict:
    return {"id": rid, "ok": False, "error": {"code": code, "message": message}}
