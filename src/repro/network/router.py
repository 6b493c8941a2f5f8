"""Input-queued router with virtual channels and credit flow control.

Model
-----
* One buffer (FIFO of packets) per *(input port, VC)* pair, ``vc_buffer_packets``
  deep; the upstream sender holds matching credits and never overruns it.
* The routing decision for a packet is made **once**, when the packet reaches
  the head of its input VC buffer — this matches hardware, where the route
  computation stage operates on the head flit.
* Each output port serializes one packet at a time
  (``packet_bytes / bandwidth`` nanoseconds per packet); propagation latency
  is added on top before the packet shows up at the neighbour's input buffer.
* A packet increments its VC index on every router-to-router hop, which makes
  the channel dependency graph acyclic and the network deadlock free as long
  as the routing algorithm's hop bound does not exceed the VC count.
* When a packet leaves an input buffer, a credit is returned to the upstream
  sender after the reverse-link latency.

The router delegates all path selection to the attached routing algorithm via
``routing.route(router, packet, in_port)`` and notifies it of forwards through
``routing.on_forward`` (used by the RL algorithms for reward feedback).

Hot-path layout: :meth:`connect` flattens each channel into parallel per-port
arrays (receive callback, latency, remote port, credit counters) so that the
per-flit code in :meth:`_forward` / :meth:`_serve_waiting` runs on plain list
indexing and direct ``Simulator.push`` calls instead of chasing ``Channel`` /
``OutputCredits`` attributes per packet.  Event-push order and timestamp
arithmetic exactly mirror the un-flattened code, keeping runs bit-for-bit
deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.network.credits import OutputCredits
from repro.network.link import Channel
from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.topology.base import Topology

if TYPE_CHECKING:  # typing only: routing attaches after construction
    from repro.engine.simulator import Simulator
    from repro.routing.base import RoutingAlgorithm


class Router:
    """One input-queued router (an independent agent in the MARL formulation)."""

    __slots__ = (
        "id",
        "group",
        "topo",
        "params",
        "sim",
        "routing",
        "num_vcs",
        "channels",
        "input_bufs",
        "credits",
        "out_busy_until",
        "waiting",
        "serialization_ns",
        "forwarded_packets",
        "ejected_packets",
        "_p",
        "_max_vc",
        "_buf_cap",
        "_push",
        "_recv_cb",
        "_ret_cb",
        "_lat",
        "_remote",
        "_cred_counts",
        "_cred_infinite",
        "_cred_cap",
        "_hop_delay",
        "_ev_link_busy",
        "_ev_credit_stall",
        "_ev_queue_depth",
    )

    def __init__(
        self,
        router_id: int,
        topo: Topology,
        params: NetworkParams,
        sim: Simulator,
        num_vcs: int,
    ) -> None:
        self.id = router_id
        self.group = topo.group_of_router(router_id)
        self.topo = topo
        self.params = params
        self.sim = sim
        self.routing = None  # attached by the network after construction
        self.num_vcs = num_vcs
        self.serialization_ns = params.serialization_ns

        k = topo.k
        self.channels: List[Optional[Channel]] = [None] * k
        self.input_bufs: List[List[Deque[Packet]]] = [
            [deque() for _ in range(num_vcs)] for _ in range(k)
        ]
        # credits towards the entity downstream of each output port; host
        # (ejection) ports are built with unlimited credits in connect().
        self.credits: List[Optional[OutputCredits]] = [None] * k
        self.out_busy_until: List[float] = [0.0] * k
        # per output port: waiters (in_port, vc, packet) blocked on that port
        self.waiting: List[Deque[Tuple[int, int, Packet]]] = [deque() for _ in range(k)]
        self.forwarded_packets = 0
        self.ejected_packets = 0

        # Flattened per-port hot-path state (filled by connect()).  ``_p`` is
        # this router's ejection threshold: ports below it eject to a NIC.
        self._p = topo.num_host_ports(router_id)
        self._max_vc = num_vcs - 1
        self._buf_cap = params.vc_buffer_packets
        self._push = sim.push
        self._recv_cb = [None] * k  # endpoint.receive_packet across the port
        self._ret_cb = [None] * k  # endpoint.credit_return across the port
        self._lat: List[float] = [0.0] * k  # channel propagation latency
        self._remote: List[int] = [0] * k  # endpoint input port fed by the port
        self._cred_counts: List[Optional[List[int]]] = [None] * k
        self._cred_infinite: List[bool] = [False] * k
        self._cred_cap: List[Optional[int]] = [None] * k
        # serialization + propagation for the link behind each port; the sum
        # is precomputed once so event timestamps keep the exact float
        # grouping ``now + (ser + latency)`` of the unflattened code.
        self._hop_delay: List[float] = [0.0] * k
        # Telemetry emitters (see repro.instrument.bus): resolved by the
        # network after every probe attach/detach; None means nobody listens
        # and the per-event cost is one attribute load + None check.
        self._ev_link_busy = None
        self._ev_credit_stall = None
        self._ev_queue_depth = None

    # ----------------------------------------------------------------- wiring
    def connect(self, port: int, channel: Channel, downstream_credits: OutputCredits) -> None:
        """Attach ``channel`` (and the matching credit counters) to ``port``."""
        self.channels[port] = channel
        self.credits[port] = downstream_credits
        endpoint = channel.endpoint
        self._recv_cb[port] = endpoint.receive_packet
        self._ret_cb[port] = endpoint.credit_return
        self._lat[port] = channel.latency_ns
        self._remote[port] = channel.remote_port
        self._cred_counts[port] = downstream_credits._credits
        self._cred_infinite[port] = downstream_credits._infinite
        self._cred_cap[port] = downstream_credits.capacity
        self._hop_delay[port] = self.serialization_ns + channel.latency_ns

    def attach_routing(self, routing: "RoutingAlgorithm") -> None:
        self.routing = routing

    # -------------------------------------------------------------- reception
    def receive_packet(self, packet: Packet, in_port: int, vc: int) -> None:
        """A packet finished traversing the link feeding ``in_port`` on ``vc``."""
        buf = self.input_bufs[in_port][vc]
        if self._buf_cap and len(buf) >= self._buf_cap:
            # The upstream credit check makes this impossible; a failure here
            # indicates a flow-control bug, so fail loudly instead of dropping.
            raise RuntimeError(
                f"router {self.id} input buffer overflow on port {in_port} vc {vc}"
            )
        packet.router_arrival_ns = self.sim._now
        if packet.path is not None:
            packet.path.append(self.id)
        buf.append(packet)
        if len(buf) == 1:
            self._route_head(in_port, vc)

    def credit_return(self, out_port: int, vc: int) -> None:
        """The downstream of ``out_port`` freed one buffer slot on ``vc``."""
        if not self._cred_infinite[out_port]:
            counts = self._cred_counts[out_port]
            if counts[vc] >= self._cred_cap[out_port]:
                raise RuntimeError(f"credit overflow on vc {vc}: more returns than takes")
            counts[vc] += 1
        self._serve_waiting(out_port)

    # ------------------------------------------------------------ forwarding
    def _route_head(self, in_port: int, vc: int) -> None:
        packet = self.input_bufs[in_port][vc][0]
        out_port = self.routing.route(self, packet, in_port)
        packet.out_port = out_port
        if out_port < self._p:
            out_vc = 0
        else:
            out_vc = packet.hops
            max_vc = self._max_vc
            if out_vc > max_vc:
                out_vc = max_vc
        packet.out_vc = out_vc
        # Forward immediately when the port is idle and credits are there;
        # otherwise the packet queues as a waiter of its output port.
        if self.out_busy_until[out_port] > self.sim._now or not (
            self._cred_infinite[out_port] or self._cred_counts[out_port][out_vc] > 0
        ):
            waiters = self.waiting[out_port]
            waiters.append((in_port, vc, packet))
            if self._ev_queue_depth is not None:
                self._ev_queue_depth(self.id, out_port, len(waiters), self.sim._now)
            if self._ev_credit_stall is not None and not (
                self._cred_infinite[out_port]
                or self._cred_counts[out_port][out_vc] > 0
            ):
                self._ev_credit_stall(self.id, out_port, out_vc, self.sim._now)
            return
        self._forward(in_port, vc, packet)

    def _forward(self, in_port: int, vc: int, packet: Packet) -> None:
        """Move the head packet of ``(in_port, vc)`` onto its output link."""
        now = self.sim._now
        out_port = packet.out_port
        out_vc = packet.out_vc
        buf = self.input_bufs[in_port][vc]
        assert buf and buf[0] is packet, "forwarding a packet that is not at its buffer head"
        buf.popleft()

        ser = self.serialization_ns
        self.out_busy_until[out_port] = now + ser
        if self._ev_link_busy is not None:
            self._ev_link_busy(self.id, out_port, now, ser)
        if not self._cred_infinite[out_port]:
            self._cred_counts[out_port][out_vc] -= 1

        push = self._push
        hop_delay = self._hop_delay
        # Return a credit for the freed input slot to the upstream sender.
        push(now + hop_delay[in_port], self._ret_cb[in_port], (self._remote[in_port], vc))

        # Notify the routing algorithm (RL algorithms register reward feedback here).
        self.routing.on_forward(self, packet, in_port, out_port, now)

        if out_port < self._p:  # ejection to the attached node
            self.ejected_packets += 1
        else:
            packet.hops += 1
            self.forwarded_packets += 1

        push(now + hop_delay[out_port], self._recv_cb[out_port],
             (packet, self._remote[out_port], out_vc))

        # The output port frees after serialization; wake any waiters then.
        push(now + ser, self._serve_waiting, (out_port,))

        # The next packet in this input VC becomes head: route it now.
        if buf:
            self._route_head(in_port, vc)

    def _serve_waiting(self, out_port: int) -> None:
        """Try to forward one eligible waiter of ``out_port`` (FIFO order).

        A waiter whose VC lacks credits is skipped (rotated to the back) so
        that waiters of other VCs can pass, but the rotation is undone before
        returning — the scan must not permanently reorder the queue, or early
        waiters would starve under sustained credit pressure.
        """
        waiters = self.waiting[out_port]
        if not waiters:
            return
        if self.out_busy_until[out_port] > self.sim._now:
            return
        infinite = self._cred_infinite[out_port]
        counts = self._cred_counts[out_port]
        input_bufs = self.input_bufs
        scanned = 0
        skipped = 0
        total = len(waiters)
        while scanned < total and waiters:
            in_port, vc, packet = waiters[0]
            buf = input_bufs[in_port][vc]
            if not buf or buf[0] is not packet:
                # Stale entry (the packet was already forwarded): drop it.
                waiters.popleft()
                scanned += 1
                continue
            if infinite or counts[packet.out_vc] > 0:
                waiters.popleft()
                # Restore the skipped waiters to the front, in original order,
                # before _forward runs (it can append new waiters at the back).
                if skipped:
                    waiters.rotate(skipped)
                self._forward(in_port, vc, packet)
                return
            # Head waiter lacks credits on its VC; let waiters of other VCs pass.
            waiters.rotate(-1)
            skipped += 1
            scanned += 1
        if skipped:
            waiters.rotate(skipped)

    # ------------------------------------------------------------ congestion
    def output_queue_length(self, out_port: int) -> int:
        """Packets in this router currently waiting to use ``out_port``."""
        return len(self.waiting[out_port])

    def used_credits(self, out_port: int) -> int:
        """Downstream buffer occupancy estimate (credits in use) of ``out_port``."""
        return self.credits[out_port].total_used()

    def port_congestion(self, out_port: int) -> int:
        """Congestion estimate used by the adaptive baselines (Section 5.1).

        "local output queue occupancy plus the used credit count": the number
        of packets queued in this router for ``out_port`` plus the credits
        already consumed (i.e. the estimated occupancy of the downstream
        input buffer).
        """
        return self.output_queue_length(out_port) + self.used_credits(out_port)

    def buffered_packets(self) -> int:
        """Total packets currently buffered in this router (diagnostics)."""
        return sum(len(buf) for port_bufs in self.input_bufs for buf in port_bufs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Router {self.id} group={self.group}>"
