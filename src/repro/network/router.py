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

Hot-path layout, as on the flat kernel: an input buffer
``input_bufs[port][vc]`` is ``None`` until its first packet, then a plain
list at most ``vc_buffer_packets`` deep (pop the head with ``del buf[0]``),
and a waiter queue ``waiting[port]`` is ``None`` until its first waiter,
then a plain list of ``(in_port, vc, packet)``.  Other per-port state is
parallel plain lists indexed by port — receive / credit-return callbacks of
the far end, its input port, the hop delay and link latency (the router's
row of the network's port table, handed over by :meth:`wire`), and the
credit counters ``_cred_counts[port][vc]`` towards the far end's input buffer.
``_cred_infinite[port]`` marks a port whose counters are not kept: an
ejection port (the NIC always drains the network), or a port the fault
controller took down.  The per-flit code in :meth:`_forward` /
:meth:`_serve_waiting` runs on list indexing and direct ``Simulator.push``
calls only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.topology.base import Topology

if TYPE_CHECKING:  # typing only: routing attaches after construction
    from repro.engine.simulator import Simulator
    from repro.instrument.logs import ForwardLog, JoinLog
    from repro.network.nic import Nic
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
        "input_bufs",
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
        "_forward_log",
        "_join_log",
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
        # Queues are made on first use (see the module docstring).
        self.input_bufs: List[List[Optional[List[Packet]]]] = [
            [None] * num_vcs for _ in range(k)
        ]
        self.out_busy_until: List[float] = [0.0] * k
        self.waiting: List[Optional[List[Tuple[int, int, Packet]]]] = [None] * k
        self.forwarded_packets = 0
        self.ejected_packets = 0

        # ``_p`` is this router's ejection threshold: ports below it eject
        # to a NIC.  The per-port lists are filled by wire().
        self._p = topo.num_host_ports(router_id)
        self._max_vc = num_vcs - 1
        self._buf_cap = params.vc_buffer_packets
        self._push = sim.push
        # Telemetry logs (see repro.instrument.logs), set by the network when
        # a probe reads them; None costs one attribute load + None check.
        self._forward_log: Optional[ForwardLog] = None
        self._join_log: Optional[JoinLog] = None

    # ----------------------------------------------------------------- wiring
    def wire(
        self,
        ends: List[Union["Router", "Nic", None]],
        remote: List[int],
        hop_delay: List[float],
        lat: List[float],
        cred_cap: List[Optional[int]],
    ) -> None:
        """Take this router's row of the network's port table.

        ``ends[port]`` is the router or NIC across ``port`` (``None`` when
        dark) and ``remote[port]`` the input port of it the link feeds.
        """
        self._recv_cb = [None if end is None else end.receive_packet for end in ends]
        self._ret_cb = [None if end is None else end.credit_return for end in ends]
        self._remote = remote
        self._hop_delay = hop_delay
        self._lat = lat
        self._cred_cap = cred_cap
        self._cred_infinite = [cap is None for cap in cred_cap]
        self._cred_counts = [[0 if cap is None else cap] * self.num_vcs for cap in cred_cap]

    def attach_routing(self, routing: "RoutingAlgorithm") -> None:
        self.routing = routing

    # -------------------------------------------------------------- reception
    def receive_packet(self, packet: Packet, in_port: int, vc: int) -> None:
        """A packet finished traversing the link feeding ``in_port`` on ``vc``."""
        buf = self.input_bufs[in_port][vc]
        if buf is None:  # the first packet of this (port, vc)
            buf = self.input_bufs[in_port][vc] = []
        elif self._buf_cap and len(buf) >= self._buf_cap:
            # The upstream credit check makes this impossible; a failure here
            # indicates a flow-control bug, so fail loudly instead of dropping.
            raise RuntimeError(
                f"router {self.id} input buffer overflow on port {in_port} vc {vc}"
            )
        packet.router_arrival_ns = self.sim._now
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
            if waiters is None:  # the first waiter of this port
                waiters = self.waiting[out_port] = []
            waiters.append((in_port, vc, packet))
            if self._join_log is not None:
                self._join_log.add(
                    self.id * self.topo.k + out_port, len(waiters),
                    not (self._cred_infinite[out_port]
                         or self._cred_counts[out_port][out_vc] > 0),
                    self.sim._now)
            return
        self._forward(in_port, vc, packet)

    def _forward(self, in_port: int, vc: int, packet: Packet) -> None:
        """Move the head packet of ``(in_port, vc)`` onto its output link."""
        now = self.sim._now
        out_port = packet.out_port
        out_vc = packet.out_vc
        buf = self.input_bufs[in_port][vc]
        assert buf and buf[0] is packet, "forwarding a packet that is not at its buffer head"
        del buf[0]

        ser = self.serialization_ns
        self.out_busy_until[out_port] = now + ser
        if self._forward_log is not None:
            self._forward_log.add(self.id * self.topo.k + out_port, now)
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
        """Forward the first eligible waiter of ``out_port`` (FIFO order).

        One walk from the oldest waiter deletes stale entries (their packet
        left already) and forwards the first waiter with credits; waiters
        without credits stay in place, so the queue is never reordered and
        early waiters cannot starve under sustained credit pressure.
        """
        waiters = self.waiting[out_port]
        if not waiters or self.out_busy_until[out_port] > self.sim._now:
            return
        infinite = self._cred_infinite[out_port]
        counts = self._cred_counts[out_port]
        input_bufs = self.input_bufs
        j = 0
        total = len(waiters)
        while j < total:
            in_port, vc, packet = waiters[j]
            buf = input_bufs[in_port][vc]
            if not buf or buf[0] is not packet:
                del waiters[j]
                total -= 1
            elif infinite or counts[packet.out_vc] > 0:
                del waiters[j]
                self._forward(in_port, vc, packet)
                return
            else:
                j += 1

    # ------------------------------------------------------------ congestion
    def output_queue_length(self, out_port: int) -> int:
        """Packets in this router currently waiting to use ``out_port``."""
        return len(self.waiting[out_port] or ())

    def used_credits(self, out_port: int) -> int:
        """Downstream buffer occupancy estimate (credits in use) of ``out_port``.

        A port without counters (an ejection port, or one taken down by a
        fault) has none in use.
        """
        if self._cred_infinite[out_port]:
            return 0
        return self._cred_cap[out_port] * self.num_vcs - sum(self._cred_counts[out_port])

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
        return sum(len(buf) for port_bufs in self.input_bufs for buf in port_bufs if buf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Router {self.id} group={self.group}>"
