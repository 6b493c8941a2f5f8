"""Network interface of a compute node: injection and ejection.

The NIC holds the source queue of generated packets and injects them into the
host port of its router, subject to the host-link serialization rate and the
credits of the router's host input buffer.  The source queue is unbounded:
a generated packet waits there and shows up as latency, never as a drop.  On
the receive side it simply records the delivery (the ejection queue is
modelled as always-consuming, so the network itself is the only bottleneck —
the standard open-loop evaluation setup used by the paper).

:meth:`Nic.wire` takes the host link from the network's port table; the
credits ``_cred_counts[vc]`` towards the router's host input are always finite.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.network.packet import Packet
from repro.network.params import NetworkParams

if TYPE_CHECKING:  # typing only: the network wires NICs to the simulator
    from repro.engine.simulator import Simulator
    from repro.network.router import Router


class Nic:
    """Injection/ejection engine of one compute node."""

    __slots__ = (
        "node",
        "params",
        "sim",
        "busy_until",
        "inject_queue",
        "injected_packets",
        "delivered_packets",
        "_retry_pending",
        "serialization_ns",
        "_push",
        "_recv_cb",
        "_hop_delay",
        "_remote",
        "_cred_counts",
        "_cred_cap",
        "_ev_injected",
        "_ev_delivery",
    )

    def __init__(self, node: int, params: NetworkParams, sim: Simulator) -> None:
        self.node = node
        self.params = params
        self.sim = sim
        self.busy_until = 0.0
        self.inject_queue: Deque[Packet] = deque()
        self.injected_packets = 0
        self.delivered_packets = 0
        self._retry_pending = False
        self.serialization_ns = params.serialization_ns
        self._push = sim.push  # the host-link state is filled by wire()
        # Telemetry emitters (see repro.instrument.bus): resolved by the
        # network after every probe attach/detach; None = nobody listens.
        self._ev_injected: Optional[Callable] = None
        self._ev_delivery: Optional[Callable] = None

    # ----------------------------------------------------------------- wiring
    def wire(self, router: "Router", host_port: int, hop_delay: float, cred_cap: int) -> None:
        """Attach the host link feeding ``host_port`` of ``router``."""
        self._recv_cb: Callable = router.receive_packet
        self._remote = host_port
        self._hop_delay = hop_delay
        self._cred_cap = cred_cap
        self._cred_counts: List[int] = [cred_cap] * self.params.num_vcs

    # -------------------------------------------------------------- injection
    @property
    def queue_length(self) -> int:
        """Packets waiting in the source queue (not yet on the wire)."""
        return len(self.inject_queue)

    def inject(self, packet: Packet) -> None:
        """Queue a freshly generated packet and send what the link allows."""
        self.inject_queue.append(packet)
        self._try_inject()

    def _try_inject(self) -> None:
        now = self.sim._now
        queue = self.inject_queue
        while queue:
            if self.busy_until > now:
                self._schedule_retry(self.busy_until)
                return
            if self._cred_counts[0] <= 0:
                # Wait for the router to return a credit; credit_return() retries.
                return
            packet = queue.popleft()
            ser = self.serialization_ns
            self.busy_until = now + ser
            self._cred_counts[0] -= 1
            packet.inject_time_ns = now
            self.injected_packets += 1
            self._push(now + self._hop_delay, self._recv_cb, (packet, self._remote, 0))
            if self._ev_injected is not None:
                self._ev_injected(packet, now)
            # the clock is unchanged, so the loop exits through the busy check

    def _schedule_retry(self, at_time: float) -> None:
        if self._retry_pending:
            return
        self._retry_pending = True
        self.sim.at(at_time, self._retry)

    def _retry(self) -> None:
        self._retry_pending = False
        self._try_inject()

    def credit_return(self, port: int, vc: int) -> None:
        """The router freed a slot of its host input buffer."""
        counts = self._cred_counts
        if counts[vc] >= self._cred_cap:
            raise RuntimeError(f"credit overflow on vc {vc}: more returns than takes")
        counts[vc] += 1
        self._try_inject()

    # --------------------------------------------------------------- ejection
    def receive_packet(self, packet: Packet, port: int, vc: int) -> None:
        """Final delivery of a packet to this node.

        Delivery listeners go through the network's probe bus
        (``_ev_delivery``, the ``packet_delivered`` hook), so any number of
        listeners can observe deliveries.
        """
        now = self.sim.now
        packet.deliver_time_ns = now
        self.delivered_packets += 1
        ev = self._ev_delivery
        if ev is not None:
            ev(packet, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic node={self.node} queued={len(self.inject_queue)}>"
