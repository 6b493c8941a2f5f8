"""The packet (single-flit message) flowing through the simulated network."""

from __future__ import annotations

from typing import Optional


class Packet:
    """A single-flit packet.

    The paper evaluates 128-byte single-flit packets so one packet is one
    flit; all flow-control accounting is therefore per packet.

    Only plain attributes, no methods with behaviour: routers and routing
    algorithms read and annotate packets as they travel.

    Attributes
    ----------
    pid:
        Unique packet id (monotonically increasing per network).
    src_node / dst_node:
        End-point compute nodes.
    src_router / dst_router / src_group / src_node_local:
        Cached topology lookups used on the routing hot path.
    create_time_ns:
        Generation time at the source node (latency is measured from here).
    inject_time_ns:
        Time the packet left the NIC towards its source router.
    deliver_time_ns:
        Time the packet was handed to the destination node.
    hops:
        Router-to-router hops taken so far.
    out_port / out_vc:
        Routing decision for the packet at the head of its current input
        buffer (set by the router, consumed when the packet is forwarded).
    router_arrival_ns:
        Arrival time at the router currently buffering the packet (used as
        the reward baseline for Q-learning feedback).
    nonminimal:
        True once an adaptive algorithm committed the packet to a
        non-minimal path.
    scratch:
        Algorithm-private routing state (``None`` until the owning routing
        algorithm writes it).  Each algorithm defines its own layout —
        Valiant variants keep their intermediate target here, Q-adaptive its
        one-shot re-route flag — so the packet itself carries no
        topology-specific fields.
    qfeedback:
        Pending Q-learning feedback record ``(router_id, row, column)`` left
        by the previous hop, consumed by the next router's decision.
    """

    __slots__ = (
        "pid",
        "src_node",
        "dst_node",
        "src_router",
        "dst_router",
        "src_group",
        "src_node_local",
        "size_bytes",
        "create_time_ns",
        "inject_time_ns",
        "deliver_time_ns",
        "hops",
        "out_port",
        "out_vc",
        "router_arrival_ns",
        "nonminimal",
        "scratch",
        "qfeedback",
    )

    def __init__(
        self,
        pid: int,
        src_node: int,
        dst_node: int,
        src_router: int,
        dst_router: int,
        src_group: int,
        src_node_local: int,
        size_bytes: int,
        create_time_ns: float,
    ) -> None:
        self.pid = pid
        self.src_node = src_node
        self.dst_node = dst_node
        self.src_router = src_router
        self.dst_router = dst_router
        self.src_group = src_group
        self.src_node_local = src_node_local
        self.size_bytes = size_bytes
        self.create_time_ns = create_time_ns
        self.inject_time_ns: Optional[float] = None
        self.deliver_time_ns: Optional[float] = None
        self.hops = 0
        self.out_port: int = -1
        self.out_vc: int = 0
        self.router_arrival_ns: float = create_time_ns
        self.nonminimal = False
        self.scratch = None
        self.qfeedback = None

    # ------------------------------------------------------------ convenience
    @property
    def latency_ns(self) -> Optional[float]:
        """End-to-end latency (generation to delivery), or ``None`` if in flight."""
        if self.deliver_time_ns is None:
            return None
        return self.deliver_time_ns - self.create_time_ns

    @property
    def delivered(self) -> bool:
        return self.deliver_time_ns is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.pid} {self.src_node}->{self.dst_node} "
            f"hops={self.hops} created={self.create_time_ns:.0f}ns"
            f"{' delivered' if self.delivered else ''}>"
        )
