"""Machine specification dataclasses (paper Tables IV, V, VII as data).

A :class:`MachineSpec` carries everything the cost model and simulator
need: core topology, cache geometry, STREAM-sustainable bandwidths, a
per-core bandwidth ceiling, and DRAM latency / memory-level-parallelism
parameters that govern irregular (non-streamed) access throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MachineError


@dataclass(frozen=True)
class CacheSpec:
    """One cache level.

    ``shared_by`` is the number of cores sharing one instance (1 for a
    private L2; a whole socket for Skylake L3; 2 for POWER9's paired
    cores).
    """

    level: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    shared_by: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise MachineError(f"{self.level}: size must be positive")
        if self.line_bytes <= 0 or self.size_bytes % self.line_bytes:
            raise MachineError(
                f"{self.level}: size {self.size_bytes} not a multiple of "
                f"line {self.line_bytes}"
            )
        if self.associativity < 1:
            raise MachineError(f"{self.level}: associativity must be >= 1")
        nlines = self.size_bytes // self.line_bytes
        if nlines % self.associativity:
            raise MachineError(
                f"{self.level}: {nlines} lines not divisible by "
                f"associativity {self.associativity}"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // self.line_bytes // self.associativity


@dataclass(frozen=True)
class StreamTable:
    """STREAM benchmark results in GB/s (paper Table V)."""

    copy: float
    scale: float
    add: float
    triad: float

    def kernel(self, name: str) -> float:
        try:
            return getattr(self, name)
        except AttributeError:
            raise MachineError(
                f"unknown STREAM kernel {name!r}; expected copy/scale/add/triad"
            ) from None

    @property
    def best(self) -> float:
        return max(self.copy, self.scale, self.add, self.triad)


@dataclass(frozen=True)
class NUMASpec:
    """NUMA bandwidth/latency matrix (paper Table VII).

    ``bandwidth[i][j]`` is GB/s for a thread on socket i reading memory
    on socket j; ``latency_ns`` likewise in nanoseconds.
    """

    bandwidth: tuple[tuple[float, ...], ...]
    latency_ns: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.bandwidth)
        if any(len(row) != n for row in self.bandwidth) or len(self.latency_ns) != n:
            raise MachineError("NUMA matrices must be square and consistent")

    @property
    def nsockets(self) -> int:
        return len(self.bandwidth)

    def local_bandwidth(self, socket: int = 0) -> float:
        return self.bandwidth[socket][socket]

    def remote_bandwidth(self, socket: int = 0) -> float:
        others = [
            self.bandwidth[socket][j]
            for j in range(self.nsockets)
            if j != socket
        ]
        return min(others) if others else self.local_bandwidth(socket)


@dataclass(frozen=True)
class MachineSpec:
    """A complete machine model (one column of paper Table IV + memory data).

    Attributes beyond the obvious:

    per_core_bandwidth_gbs:
        Sustainable streaming bandwidth of a single core — the
        small-thread-count limiter in strong scaling (Fig. 12).
    dram_latency_ns / mlp:
        Random-access model: a dependent stream of cache misses from one
        core sustains ``mlp`` outstanding line fetches, giving
        ``line_bytes * mlp / latency`` bytes/s of irregular throughput.
    clock_ghz:
        Also the scalar-op throughput used to convert the cost model's
        cycle counts to seconds (one op per cycle per core).
    """

    name: str
    sockets: int
    cores_per_socket: int
    clock_ghz: float
    caches: tuple[CacheSpec, ...]
    stream_single: StreamTable
    stream_dual: StreamTable
    numa: NUMASpec
    per_core_bandwidth_gbs: float
    dram_latency_ns: float
    mlp: int = 10
    memory_gib: int = 0

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise MachineError(f"{self.name}: need at least one socket and core")
        if self.clock_ghz <= 0:
            raise MachineError(f"{self.name}: clock must be positive")
        if not self.caches:
            raise MachineError(f"{self.name}: at least one cache level required")
        if self.per_core_bandwidth_gbs <= 0 or self.dram_latency_ns <= 0:
            raise MachineError(f"{self.name}: bandwidth/latency must be positive")
        if self.mlp < 1:
            raise MachineError(f"{self.name}: mlp must be >= 1")

    # -- derived geometry ---------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def line_bytes(self) -> int:
        return self.caches[0].line_bytes

    def cache(self, level: str) -> CacheSpec:
        for c in self.caches:
            if c.level == level:
                return c
        raise MachineError(f"{self.name} has no cache level {level!r}")

    def l2_per_core_bytes(self) -> int:
        l2 = self.cache("L2")
        return l2.size_bytes // l2.shared_by

    def llc_bytes(self, sockets: int = 1) -> int:
        """Last-level cache capacity across ``sockets`` sockets."""
        last = self.caches[-1]
        instances = (self.cores_per_socket * sockets) // last.shared_by
        return last.size_bytes * max(instances, 1)

    def socket_of_thread(self, thread: int) -> int:
        """Socket a thread lands on under OMP_PLACES=cores / close binding."""
        return (thread // self.cores_per_socket) % self.sockets
