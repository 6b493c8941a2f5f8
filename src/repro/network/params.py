"""Hardware parameters of the simulated network.

Defaults follow Section 5.1 of the paper: 128-byte single-flit packets,
4 GB/s links, 30 ns local and 300 ns global link latency (1:10 ratio), and
VC buffers of 20 packets.  The network models the paper's open-loop setup
only: unbounded source queues and NICs that always drain the network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.scenarios.serialize import NON_NEGATIVE, POSITIVE, Codec, Form, Number
from repro.topology.base import PortType, Topology
from repro.topology.paths import LinkTiming

@dataclass
class NetworkParams(Codec):
    """Tunable hardware parameters (all times in nanoseconds).

    Attributes
    ----------
    packet_bytes:
        Size of a single-flit packet.  The paper evaluates single-flit 128 B
        packets so that flow control does not interfere with routing.
    link_bandwidth_bytes_per_ns:
        Link bandwidth; 4 GB/s == 4 bytes/ns.
    local_link_latency_ns / global_link_latency_ns / host_link_latency_ns:
        Propagation latency per link type.
    vc_buffer_packets:
        Input-buffer depth per (port, VC) in packets; also the credit count
        granted to the upstream sender.
    num_vcs:
        Number of virtual channels per port.  ``None`` lets the routing
        algorithm choose the count it needs for deadlock freedom.
    """

    packet_bytes: int = 128
    link_bandwidth_bytes_per_ns: float = 4.0
    local_link_latency_ns: float = 30.0
    global_link_latency_ns: float = 300.0
    host_link_latency_ns: float = 10.0
    vc_buffer_packets: int = 20
    num_vcs: Optional[int] = None

    _NUMBERS = {"packet_bytes": Number(int, 1), "link_bandwidth_bytes_per_ns": POSITIVE,
                "local_link_latency_ns": NON_NEGATIVE, "global_link_latency_ns": NON_NEGATIVE,
                "host_link_latency_ns": NON_NEGATIVE, "vc_buffer_packets": Number(int, 1),
                "num_vcs": Number(int, 1).or_none()}
    #: a flat block; omitted keys keep their Section 5.1 defaults, so a
    #: hand-written scenario file only states what it changes.  Older files
    #: may still carry the removed knobs: the open-loop network has none.
    _FORM = Form(flat=True, removed=dict.fromkeys(
        ("injection_queue_packets", "ejection_credits", "record_paths"),
        "the network models the open-loop setup only"))

    # --------------------------------------------------------------- derived
    @property
    def serialization_ns(self) -> float:
        """Time to push one packet onto a link (packet size / bandwidth)."""
        return self.packet_bytes / self.link_bandwidth_bytes_per_ns

    @property
    def node_injection_rate_pkts_per_ns(self) -> float:
        """Packets per nanosecond a node can inject at offered load 1.0."""
        return 1.0 / self.serialization_ns

    def link_latency_ns(self, port_type: PortType) -> float:
        """Propagation latency of the link behind a port of ``port_type``."""
        if port_type is PortType.LOCAL:
            return self.local_link_latency_ns
        if port_type is PortType.GLOBAL:
            return self.global_link_latency_ns
        return self.host_link_latency_ns

    def timing(self) -> LinkTiming:
        """Per-hop timing constants for path-time estimation / Q-table init."""
        return LinkTiming(
            serialization_ns=self.serialization_ns,
            local_latency_ns=self.local_link_latency_ns,
            global_latency_ns=self.global_link_latency_ns,
            host_latency_ns=self.host_link_latency_ns,
        )

    def with_num_vcs(self, num_vcs: int) -> "NetworkParams":
        """Copy of these parameters with ``num_vcs`` resolved."""
        return replace(self, num_vcs=num_vcs)


def total_injection_bandwidth_bytes_per_ns(
    params: NetworkParams, topo: Topology
) -> float:
    """System-wide injection bandwidth (denominator of offered load / throughput)."""
    return params.link_bandwidth_bytes_per_ns * topo.num_nodes
