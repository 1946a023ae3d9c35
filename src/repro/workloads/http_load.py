"""HTTP load generator (§VII-C Nginx workload).

The paper requests a 180-byte html file for a minute via 40 persistent
connections.  The driver opens ``connections`` keep-alive connections
and issues GETs round-robin until the virtual deadline, measuring
per-request latency and counting failures (resets / bad responses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..apps.nginx import MiniNginx
from ..net.tcp import ClientSocket, ConnectionRefused, ConnectionReset
from ..sim.engine import Simulation


@dataclass
class HttpLoadResult:
    requests: int
    successes: int
    failures: int
    duration_us: float
    latencies_us: List[float] = field(default_factory=list)

    @property
    def throughput_per_s(self) -> float:
        if self.duration_us == 0:
            return 0.0
        return self.successes / (self.duration_us / 1_000_000.0)

    @property
    def success_ratio(self) -> float:
        if self.requests == 0:
            return 1.0
        return self.successes / self.requests


class HttpLoadGenerator:
    """Keep-alive GET driver against a MiniNginx instance."""

    REQUEST = b"GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n"

    def __init__(self, app: MiniNginx, connections: int = 40) -> None:
        if connections < 1:
            raise ValueError("need at least one connection")
        self.app = app
        self.connections = connections
        self.sim: Simulation = app.sim
        self._sockets: List[Optional[ClientSocket]] = [None] * connections

    def _socket(self, index: int) -> ClientSocket:
        sock = self._sockets[index]
        if sock is None or not sock.is_open:
            sock = self.app.network.connect(self.app.PORT)
            self._sockets[index] = sock
        return sock

    def one_request(self, index: int = 0) -> float:
        """One GET on connection ``index``; returns latency in us.

        Raises ConnectionReset when the server side died mid-request.
        """
        sock = self._socket(index)
        start = self.sim.clock.now_us
        sock.send(self.REQUEST)
        self.app.poll()
        response = sock.recv()
        if not response.startswith(b"HTTP/1.1 200"):
            raise ConnectionReset(sock.conn_id,
                                  f"bad response: {response[:30]!r}")
        return self.sim.clock.now_us - start

    def run_for(self, duration_us: float,
                between_requests_us: float = 0.0) -> HttpLoadResult:
        """Issue GETs round-robin until the virtual deadline."""
        result = HttpLoadResult(requests=0, successes=0, failures=0,
                                duration_us=0.0)
        start = self.sim.clock.now_us
        deadline = start + duration_us
        index = 0
        while self.sim.clock.now_us < deadline:
            result.requests += 1
            try:
                latency = self.one_request(index % self.connections)
                result.successes += 1
                result.latencies_us.append(latency)
            except (ConnectionReset, ConnectionRefused):
                result.failures += 1
                self._sockets[index % self.connections] = None
            index += 1
            if between_requests_us:
                self.sim.clock.advance(between_requests_us)
        result.duration_us = self.sim.clock.now_us - start
        return result

    def run_requests(self, count: int) -> HttpLoadResult:
        """Issue exactly ``count`` GETs round-robin."""
        result = HttpLoadResult(requests=0, successes=0, failures=0,
                                duration_us=0.0)
        start = self.sim.clock.now_us
        for index in range(count):
            result.requests += 1
            try:
                latency = self.one_request(index % self.connections)
                result.successes += 1
                result.latencies_us.append(latency)
            except (ConnectionReset, ConnectionRefused):
                result.failures += 1
                self._sockets[index % self.connections] = None
        result.duration_us = self.sim.clock.now_us - start
        return result

    def close_all(self) -> None:
        for sock in self._sockets:
            if sock is not None and sock.is_open:
                sock.close()
        self._sockets = [None] * self.connections
