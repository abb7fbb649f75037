"""Multiply service end-to-end (``@pytest.mark.serve``).

The serve smoke contract from the ISSUE: a server under >= 32
concurrent mixed-shape requests answers every one of them (success or
clean admission reject), every product is bit-identical to a direct
``repro.multiply``, the ``stats`` op exposes the batching counters,
shutdown is clean, and no ``/dev/shm`` segment outlives the server.
Protocol and scheduler units are covered without a server.
"""

from __future__ import annotations

import asyncio
import glob
import struct

import numpy as np
import pytest

import repro
from repro import PBConfig
from repro.parallel import process_backend_available
from repro.serve import (
    BatchScheduler,
    MultiplyServer,
    RemoteError,
    RequestRejected,
    ServeClient,
    ServeConfig,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_matrix,
    encode_matrix,
    read_frame,
)
from repro.serve.scheduler import ServeRequest

pytestmark = [pytest.mark.serve, pytest.mark.parallel]

needs_pool = pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)

SERVER_PB = dict(executor="process", nthreads=2)


def _shm_names():
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))


def _mix():
    out = []
    for scale, ef, seed in ((5, 3, 1), (6, 4, 2), (7, 4, 3)):
        b = repro.erdos_renyi(1 << scale, ef, seed=seed, fmt="csr")
        out.append((b.to_csc(), b))
    return out


def _identical(ref, got):
    return bool(
        np.array_equal(ref.indptr, got.indptr)
        and np.array_equal(ref.indices, got.indices)
        and ref.data.tobytes() == got.data.tobytes()
    )


# ---------------------------------------------------------------------------
# protocol (no server)
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_matrix_roundtrip(self):
        b = repro.erdos_renyi(64, 4, seed=3, fmt="csr")
        for operand in (b, b.to_csc()):
            wire = encode_matrix(operand)
            back = decode_matrix(wire)
            assert _identical(b, back)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_matrix({"format": "coo"})
        wire = encode_matrix(repro.erdos_renyi(8, 2, seed=1, fmt="csr"))
        wire["indptr"] = "!!!not-base64!!!"
        with pytest.raises(ProtocolError):
            decode_matrix(wire)

    def test_read_frame_errors(self):
        async def scenario():
            # Clean EOF -> None.
            r = asyncio.StreamReader()
            r.feed_eof()
            assert await read_frame(r) is None
            # Oversize header -> ProtocolError.
            r = asyncio.StreamReader()
            r.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                await read_frame(r)
            # Connection dropped mid-frame -> ProtocolError.
            r = asyncio.StreamReader()
            r.feed_data(struct.pack(">I", 100) + b'{"tru')
            r.feed_eof()
            with pytest.raises(ProtocolError, match="mid-frame"):
                await read_frame(r)
            # Bad JSON -> ProtocolError.
            body = b"not json"
            r = asyncio.StreamReader()
            r.feed_data(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="JSON"):
                await read_frame(r)
            # JSON that is not an object -> ProtocolError; ``null`` must
            # not read as a clean EOF.
            for body in (b"null", b"[]"):
                r = asyncio.StreamReader()
                r.feed_data(struct.pack(">I", len(body)) + body)
                with pytest.raises(ProtocolError, match="object"):
                    await read_frame(r)

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# scheduler (no server)
# ---------------------------------------------------------------------------

def _request(rid, semiring="plus_times", algorithm="pb", tuples=10):
    return ServeRequest(
        id=rid,
        a_csc=None,
        b_csr=None,
        algorithm=algorithm,
        semiring=semiring,
        tuples=tuples,
    )


class TestScheduler:
    def test_wave_formation_skips_incompatible(self):
        async def scenario():
            sched = BatchScheduler(None, max_batch=8)
            for req in (
                _request(1),
                _request(2, semiring="min_plus"),
                _request(3),
                _request(4, algorithm="hash"),
                _request(5),
            ):
                assert sched.submit(req) is None
            wave = sched._next_wave()
            assert [r.id for r in wave.requests] == [1, 3, 5]
            # Unmatched requests keep arrival order for the next waves.
            assert [r.id for r in sched._pending] == [2, 4]
            assert sched._next_wave().requests[0].id == 2
            # Non-fusable head never drains followers.
            assert sched.submit(_request(6, algorithm="hash")) is None
            wave = sched._next_wave()
            assert [r.id for r in wave.requests] == [4]

        asyncio.run(scenario())

    def test_batch_budgets(self):
        async def scenario():
            sched = BatchScheduler(None, max_batch=2, max_batch_tuples=25)
            for rid in (1, 2, 3):
                assert sched.submit(_request(rid)) is None
            assert len(sched._next_wave().requests) == 2  # max_batch
            sched = BatchScheduler(None, max_batch=8, max_batch_tuples=25)
            for rid in (1, 2, 3):
                assert sched.submit(_request(rid)) is None
            assert len(sched._next_wave().requests) == 2  # tuple budget

        asyncio.run(scenario())

    def test_admission_rejects(self):
        async def scenario():
            sched = BatchScheduler(None, max_pending=2, max_pending_tuples=100)
            assert sched.submit(_request(1)) is None
            assert sched.submit(_request(2)) is None
            rej = sched.submit(_request(3))
            assert rej is not None and rej.retry_after_s > 0
            # Tuple-budget reject, but an oversized lone request on an
            # empty queue is admitted (no livelock).
            sched = BatchScheduler(None, max_pending=8, max_pending_tuples=100)
            assert sched.submit(_request(1, tuples=500)) is None
            assert sched.submit(_request(2, tuples=500)) is not None
            # Closed scheduler rejects and drains.
            sched.close()
            assert sched.submit(_request(3)).retry_after_s == 0.0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

@needs_pool
class TestServerEndToEnd:
    def test_concurrent_mixed_shapes(self):
        """32+ concurrent mixed-shape/semiring requests: all answered,
        bit-identical, batched, observable, and shm-clean."""
        pairs = _mix()
        refs = {
            (i, sr): repro.multiply(a, b, semiring=sr, config=PBConfig())
            for i, (a, b) in enumerate(pairs)
            for sr in ("plus_times", "min_plus")
        }
        before = _shm_names()

        async def scenario():
            server = await MultiplyServer(
                PBConfig(**SERVER_PB), ServeConfig(port=0)
            ).start()
            try:
                async with await ServeClient.connect(*server.address) as client:
                    assert await client.ping()

                    async def one(i):
                        key = (i % len(pairs), "min_plus" if i % 3 == 0 else "plus_times")
                        a, b = pairs[key[0]]
                        reply = await client.multiply(a, b, semiring=key[1])
                        assert _identical(refs[key], reply.c)
                        assert reply.timings["queue_wait_s"] >= 0
                        assert "phase_seconds" in reply.timings
                        assert reply.batch["size"] >= 1 and "id" in reply.batch
                        assert reply.plan["algorithm"] == "pb"
                        return reply

                    replies = await asyncio.gather(*(one(i) for i in range(36)))
                    stats = await client.stats()
                    return replies, stats
            finally:
                await server.close()

        replies, stats = asyncio.run(scenario())
        counters = stats["server"]["counters"]
        assert counters["responses_ok"] >= 36
        assert counters["responses_error"] == 0
        assert counters["batches"] >= 1
        # Single compute thread + 36 concurrent submissions: waves of
        # two or more must have formed, and they execute fused.
        assert counters["fused_batches"] >= 1
        assert counters["batched_requests"] >= 2
        assert any(r.batch["fused"] for r in replies)
        assert stats["server"]["latency"]["p99_s"] > 0
        assert stats["session"]["multiplies"] >= 1
        assert stats["scheduler"]["waves_dispatched"] >= 1
        assert _shm_names() - before == set()

    def test_backpressure_and_retry(self):
        b = repro.erdos_renyi(64, 3, seed=5, fmt="csr")
        a = b.to_csc()

        async def scenario():
            server = await MultiplyServer(
                PBConfig(**SERVER_PB), ServeConfig(port=0, max_pending=2)
            ).start()
            try:
                async with await ServeClient.connect(*server.address) as client:
                    await client.multiply(a, b)  # warm off the burst
                    outcomes = await asyncio.gather(
                        *(client.multiply(a, b) for _ in range(24)),
                        return_exceptions=True,
                    )
                    drained = await asyncio.gather(
                        *(client.multiply_retrying(a, b, attempts=64) for _ in range(6))
                    )
                    stats = await client.stats()
                    return outcomes, drained, stats
            finally:
                await server.close()

        outcomes, drained, stats = asyncio.run(scenario())
        ok = [o for o in outcomes if not isinstance(o, BaseException)]
        rejected = [o for o in outcomes if isinstance(o, RequestRejected)]
        assert len(ok) + len(rejected) == 24  # no other failure mode
        assert rejected and all(o.retry_after_s > 0 for o in rejected)
        assert len(drained) == 6
        assert stats["server"]["counters"]["rejected"] >= len(rejected)

    def test_bad_requests_and_shutdown(self):
        b = repro.erdos_renyi(32, 3, seed=7, fmt="csr")
        tall = repro.erdos_renyi(16, 2, seed=8, fmt="csr")

        async def scenario():
            server = await MultiplyServer(
                PBConfig(**SERVER_PB), ServeConfig(port=0)
            ).start()
            client = await ServeClient.connect(*server.address)
            try:
                with pytest.raises(RemoteError, match="bad_request"):
                    await client.multiply(tall, b)  # shape mismatch
                with pytest.raises(RemoteError, match="bad_request"):
                    await client.multiply(b, b, semiring="no_such_semiring")
                with pytest.raises(RemoteError, match="bad_request"):
                    await client.multiply(b, b, algorithm="no_such_algorithm")
                raw = await client._call({"op": "frobnicate"})
                assert not raw["ok"] and "unknown op" in raw["error"]["message"]
                # The connection survives every bad request.
                reply = await client.multiply(b, b)
                assert _identical(repro.multiply(b, b, config=PBConfig()), reply.c)
                await client.shutdown()
                await asyncio.wait_for(server.serve_forever(), timeout=10)
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_config_override_rejected(self, tmp_path):
        """The wire takes no PBConfig: a client must not choose
        server-side paths (``spill_dir``) or resize the pool."""
        b = repro.erdos_renyi(64, 4, seed=11, fmt="csr")
        spill = tmp_path / "x"

        async def scenario():
            server = await MultiplyServer(
                PBConfig(**SERVER_PB), ServeConfig(port=0)
            ).start()
            try:
                async with await ServeClient.connect(*server.address) as client:
                    raw = await client._call({
                        "op": "multiply",
                        "a": encode_matrix(b),
                        "b": encode_matrix(b),
                        "algorithm": "tiled",
                        "config": {"spill_dir": str(spill), "memory_budget": 4096},
                    })
                    reply = await client.multiply(b, b)
                    return raw, reply
            finally:
                await server.close()

        raw, reply = asyncio.run(scenario())
        assert not raw["ok"] and raw["error"]["code"] == "bad_request"
        assert "config" in raw["error"]["message"]
        assert not spill.exists()
        assert _identical(repro.multiply(b, b, config=PBConfig()), reply.c)

    def test_plan_provenance_auto(self):
        b = repro.erdos_renyi(64, 4, seed=9, fmt="csr")

        async def scenario():
            server = await MultiplyServer(
                PBConfig(**SERVER_PB), ServeConfig(port=0)
            ).start()
            try:
                async with await ServeClient.connect(*server.address) as client:
                    return await client.multiply(b, b, algorithm="auto")
            finally:
                await server.close()

        reply = asyncio.run(scenario())
        assert reply.plan["source"] in ("model", "cache", "feedback")
        chosen = reply.plan["algorithm"]
        assert chosen in repro.available_algorithms()
        # The served auto result is bit-identical to invoking the chosen
        # algorithm directly (the repro.multiply auto contract).
        assert _identical(repro.multiply(b, b, algorithm=chosen), reply.c)
