"""Host-side simulated TCP network.

Clients (the workload generators) connect through a :class:`HostNetwork`
to ports the unikernel's LWIP component listens on.  Connections carry
real sequence/acknowledgement numbers — the ground truth the network
verifies on every segment.  This matters for the reproduction because
the paper's one "runtime data" special case is LWIP (§V-B): packet
sequence and ACK numbers are granted at runtime by the peer, so log
replay alone cannot rebuild them.  If a rebooted LWIP comes back with
wrong numbers, the network resets the connection — exactly the failure
VampOS's runtime-data saving prevents.

Full reboots re-attach the whole stack (:meth:`HostNetwork.attach_stack`),
which resets every existing connection: that is the 25.1 % connection
loss of Table V's Unikraft bar.  A VampOS component reboot restores LWIP
without re-attaching, so connections survive.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.engine import Simulation


class NetError(Exception):
    """Base class for network errors."""


class ConnectionRefused(NetError):
    def __init__(self, port: int) -> None:
        super().__init__(f"connection refused on port {port}")
        self.port = port


class ConnectionReset(NetError):
    def __init__(self, conn_id: int, reason: str = "") -> None:
        super().__init__(
            f"connection {conn_id} reset" + (f": {reason}" if reason else ""))
        self.conn_id = conn_id
        self.reason = reason


class TcpState(enum.Enum):
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    CLOSE_WAIT = "close-wait"
    CLOSED = "closed"
    RESET = "reset"


@dataclass
class Connection:
    """One TCP connection between a client and the unikernel."""

    conn_id: int
    port: int
    client_isn: int
    server_isn: int
    state: TcpState = TcpState.SYN_RCVD
    #: bytes the client has sent / the server has sent (ground truth)
    client_sent: int = 0
    server_sent: int = 0
    #: bytes each side has consumed from its inbound buffer
    client_consumed: int = 0
    server_consumed: int = 0
    to_server: bytearray = field(default_factory=bytearray)
    to_client: bytearray = field(default_factory=bytearray)
    reset_reason: str = ""

    @property
    def server_seq(self) -> int:
        """Next sequence number the server must use."""
        return self.server_isn + self.server_sent

    @property
    def server_rcv_nxt(self) -> int:
        """Next client byte the server expects (its ACK number)."""
        return self.client_isn + self.server_consumed

    def is_open(self) -> bool:
        return self.state in (TcpState.SYN_RCVD, TcpState.ESTABLISHED,
                              TcpState.CLOSE_WAIT)


@dataclass
class Listener:
    port: int
    backlog: int
    pending: List[int] = field(default_factory=list)  # conn ids awaiting accept


class HostNetwork:
    """The network fabric between workload clients and one unikernel."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._conn_ids = itertools.count(1)
        self.connections: Dict[int, Connection] = {}
        self.listeners: Dict[int, Listener] = {}
        self._stack_generation = 0
        #: counters for the experiments
        self.resets = 0
        self.refused = 0

    # --- server (LWIP) side ----------------------------------------------------

    def attach_stack(self) -> int:
        """A (re)booted network stack attaches.

        Attaching models the whole NIC coming up from scratch: every
        existing connection is reset and all listeners vanish.  Called
        from LWIP's boot path — so a full reboot resets clients, while a
        checkpoint-restore (which skips boot) keeps them.
        Returns a generation token.
        """
        for conn in self.connections.values():
            if conn.is_open():
                self._reset(conn, "stack reattached (full reboot)")
        self.listeners.clear()
        self._stack_generation += 1
        self.sim.emit("net", "stack_attached",
                      generation=self._stack_generation)
        return self._stack_generation

    def listen(self, port: int, backlog: int = 128) -> Listener:
        """Register (or re-register) a listener.

        Idempotent on purpose: VampOS's log replay re-executes
        ``listen()`` after an LWIP reboot, and that must not clobber the
        pending-connection queue that survived on the host side.
        """
        existing = self.listeners.get(port)
        if existing is not None:
            existing.backlog = backlog
            return existing
        listener = Listener(port=port, backlog=backlog)
        self.listeners[port] = listener
        self.sim.emit("net", "listen", port=port)
        return listener

    def unlisten(self, port: int) -> None:
        self.listeners.pop(port, None)

    def accept(self, port: int) -> Optional[Dict[str, int]]:
        """Pop one pending connection.

        Returns the handshake info LWIP needs to build its pcb — the
        connection id plus both initial sequence numbers (a real stack
        learns these from the SYN/SYN-ACK exchange) — or ``None`` when
        nothing is pending.
        """
        listener = self.listeners.get(port)
        if listener is None or not listener.pending:
            return None
        conn_id = listener.pending.pop(0)
        conn = self.connections[conn_id]
        conn.state = TcpState.ESTABLISHED
        self.sim.emit("net", "accepted", conn=conn_id, port=port)
        return {"conn_id": conn_id, "client_isn": conn.client_isn,
                "server_isn": conn.server_isn}

    def server_send(self, conn_id: int, data: bytes, seq: int) -> int:
        """LWIP transmits ``data`` claiming sequence number ``seq``.

        The network verifies the claim against ground truth; a stale or
        futuristic sequence number (a rebooted stack that lost its pcb)
        resets the connection.
        """
        conn = self._open_conn(conn_id)
        if seq != conn.server_seq:
            self._reset(conn, f"bad server seq {seq}, "
                              f"expected {conn.server_seq}")
            raise ConnectionReset(conn_id, conn.reset_reason)
        conn.to_client.extend(data)
        conn.server_sent += len(data)
        self.sim.charge("net_tx", self.sim.costs.net_latency
                        + len(data) * self.sim.costs.net_per_byte)
        return len(data)

    def server_recv(self, conn_id: int, max_bytes: int, ack: int) -> bytes:
        """LWIP consumes inbound bytes, acknowledging up to ``ack``."""
        conn = self._open_conn(conn_id)
        if ack != conn.server_rcv_nxt:
            self._reset(conn, f"bad server ack {ack}, "
                              f"expected {conn.server_rcv_nxt}")
            raise ConnectionReset(conn_id, conn.reset_reason)
        chunk = bytes(conn.to_server[:max_bytes])
        del conn.to_server[:len(chunk)]
        conn.server_consumed += len(chunk)
        return chunk

    def server_pending_bytes(self, conn_id: int) -> int:
        """Inbound bytes waiting for the server; -1 means EOF/reset
        (the peer is gone and the buffer is drained)."""
        conn = self.connections.get(conn_id)
        if conn is None:
            return -1
        if conn.to_server:
            return len(conn.to_server)
        if not conn.is_open():
            return -1
        return 0

    def server_close(self, conn_id: int) -> None:
        conn = self.connections.get(conn_id)
        if conn is not None and conn.state is not TcpState.RESET:
            conn.state = TcpState.CLOSED
            self.sim.emit("net", "server_close", conn=conn_id)

    def reset_connection(self, conn_id: int, reason: str = "aborted") -> None:
        conn = self.connections.get(conn_id)
        if conn is not None and conn.is_open():
            self._reset(conn, reason)

    # --- client side ---------------------------------------------------------------

    def connect(self, port: int) -> "ClientSocket":
        """Three-way handshake from a client to a listening port."""
        self.sim.charge("net_rtt", 1.5 * self.sim.costs.net_latency * 2)
        listener = self.listeners.get(port)
        if listener is None or len(listener.pending) >= listener.backlog:
            self.refused += 1
            self.sim.emit("net", "refused", port=port)
            raise ConnectionRefused(port)
        rng = self.sim.rng.stream("tcp-isn")
        conn = Connection(
            conn_id=next(self._conn_ids),
            port=port,
            client_isn=rng.randint(1, 2**31),
            server_isn=rng.randint(1, 2**31),
        )
        self.connections[conn.conn_id] = conn
        listener.pending.append(conn.conn_id)
        self.sim.emit("net", "syn", conn=conn.conn_id, port=port)
        return ClientSocket(self, conn.conn_id)

    # --- internals ---------------------------------------------------------------------

    def _open_conn(self, conn_id: int) -> Connection:
        conn = self.connections.get(conn_id)
        if conn is None:
            raise ConnectionReset(conn_id, "unknown connection")
        if conn.state is TcpState.RESET:
            raise ConnectionReset(conn_id, conn.reset_reason)
        if conn.state is TcpState.CLOSED:
            raise ConnectionReset(conn_id, "connection closed")
        return conn

    def _reset(self, conn: Connection, reason: str) -> None:
        conn.state = TcpState.RESET
        conn.reset_reason = reason
        self.resets += 1
        self.sim.emit("net", "rst", conn=conn.conn_id, reason=reason)

    def open_connections(self) -> List[int]:
        return [cid for cid, c in self.connections.items() if c.is_open()]


class ClientSocket:
    """Client-side handle used by workload generators."""

    def __init__(self, network: HostNetwork, conn_id: int) -> None:
        self._net = network
        self.conn_id = conn_id

    @property
    def connection(self) -> Connection:
        return self._net.connections[self.conn_id]

    def _require_open(self) -> Connection:
        conn = self.connection
        if conn.state is TcpState.RESET:
            raise ConnectionReset(self.conn_id, conn.reset_reason)
        if conn.state is TcpState.CLOSED:
            raise ConnectionReset(self.conn_id, "closed by server")
        return conn

    def send(self, data: bytes) -> int:
        conn = self._require_open()
        conn.to_server.extend(data)
        conn.client_sent += len(data)
        self._net.sim.charge(
            "net_tx", self._net.sim.costs.net_latency
            + len(data) * self._net.sim.costs.net_per_byte)
        return len(data)

    def recv(self, max_bytes: int = 65536) -> bytes:
        conn = self.connection
        if conn.state is TcpState.RESET:
            raise ConnectionReset(self.conn_id, conn.reset_reason)
        # After a server-side close (FIN), buffered bytes remain
        # readable; an empty buffer then reads as EOF (b"").
        chunk = bytes(conn.to_client[:max_bytes])
        del conn.to_client[:len(chunk)]
        conn.client_consumed += len(chunk)
        return chunk

    def pending(self) -> int:
        return len(self.connection.to_client)

    def close(self) -> None:
        conn = self.connection
        if conn.is_open():
            conn.state = TcpState.CLOSED
            self._net.sim.emit("net", "client_close", conn=self.conn_id)

    @property
    def is_reset(self) -> bool:
        return self.connection.state is TcpState.RESET

    @property
    def is_open(self) -> bool:
        return self.connection.is_open()
