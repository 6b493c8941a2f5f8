"""Apply a :class:`~repro.faults.schedule.FaultSchedule` to a live network.

Teardown model
--------------
A dead link direction ``(router, out_port)`` is modelled as a port whose far
end absorbs flits into the void:

* the port's receive callback is swapped for a counting sink, so anything
  still forwarded through it is *dropped* (and accounted) instead of
  delivered;
* the port's ``_cred_infinite`` flag is set, so the sender never waits for
  returns that will never come, stale in-flight credit returns from the
  dying downstream are ignored by the router's existing infinite-credit
  short-circuit (no leak, no overflow), and ``Router.used_credits`` reads
  no credits in use on the port;
* the waiter queue of the port is kicked once and drains through the normal
  ``_serve_waiting``/``_forward`` machinery — every event already in the pool
  completes unchanged, so the event pool is never corrupted.

Packets whose route decision predates the failure drain into the sink; every
packet routed *after* the failure sees the degraded routing state below.
Both directions of a physical link die and recover together; a router outage
takes down all its network links plus its ejection ports.

Recovery restores the saved callback and flag and refills the credit
counters ``_cred_counts[port]`` of a counted (network) port to ``capacity
minus the downstream router's buffer occupancy`` (found through the network's
port table), so credits returned later by packets that survived the outage
inside the downstream buffer top the counter out at exactly its capacity.

Degraded routing
----------------
After every structural change the controller rebuilds per-destination
next-port tables over the *live* graph (one BFS per destination, ascending
port order — deterministic) and swaps the routing algorithm's memoized
``_min_next`` for a lookup into them; destinations that became unreachable
fall back to the healthy minimal port, which sends the packet into a sink
(the physical outcome).  Exploration-based algorithms are additionally
notified through :meth:`~repro.routing.base.RoutingAlgorithm.on_fault_update`
so dead ports leave their candidate sets; their learning stays on, so the
re-route is *learned* — the paper-relevant measurement.  When the last fault
recovers, the pristine attach-time state is restored.

Faults-off runs never construct this class; the hot path is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.faults.schedule import FaultSchedule

if TYPE_CHECKING:  # typing only: the harness hands us the built network
    from repro.network.network import Network
    from repro.network.packet import Packet
    from repro.network.router import Router

__all__ = ["FaultController"]

#: saved per-port state: (receive callback, infinite-credit flag).
_SavedPort = Tuple[object, bool]


class FaultController:
    """Schedules and applies one fault timeline on one built network."""

    def __init__(self, network: "Network", schedule: FaultSchedule) -> None:
        self.network = network
        self.schedule = schedule
        #: packets absorbed by dead ports (in-flight drops).
        self.packets_dropped = 0
        #: fault events applied so far, as ``(time_ns, kind, router, port)``.
        self.applied: List[Tuple[float, str, int, int]] = []
        self._down_ports: Dict[Tuple[int, int], _SavedPort] = {}
        self._down_routers: set = set()
        self._installed = False
        self._orig_min_next = None
        self._live_next: Optional[List[List[int]]] = None
        self._validate()

    # ------------------------------------------------------------- validation
    def _validate(self) -> None:
        """Reject schedules that name routers/ports the topology lacks."""
        topo = self.network.topo
        for event in self.schedule.events:
            if event.router >= topo.num_routers:
                raise ValueError(
                    f"fault schedule names router {event.router}; the "
                    f"{topo.family} topology has {topo.num_routers} routers"
                )
            if event.is_link_event:
                try:
                    neighbor = topo.neighbor_of(event.router, event.port)
                except IndexError:  # port number beyond the radix
                    neighbor = None
                if neighbor is None:
                    raise ValueError(
                        f"fault schedule names link ({event.router}, "
                        f"{event.port}), which is not a connected network "
                        f"port on this {topo.family} topology"
                    )

    # ------------------------------------------------------------ installation
    def install(self) -> "FaultController":
        """Schedule every fault event on the network's simulator."""
        if self._installed:
            raise RuntimeError("fault schedule is already installed")
        self._installed = True
        routing = self.network.routing
        self._orig_min_next = routing._min_next
        for index in range(len(self.schedule.events)):
            self.network.sim.at(self.schedule.events[index].time_ns,
                                self._apply, index)
        self.network.fault_controller = self
        return self

    # ------------------------------------------------------------ event entry
    def _apply(self, index: int) -> None:
        event = self.schedule.events[index]
        kicks: List[Tuple["Router", int]] = []
        if event.kind == "link_down":
            self._link_down(event.router, event.port, kicks)
        elif event.kind == "link_up":
            self._link_up(event.router, event.port)
        elif event.kind == "router_down":
            self._router_down(event.router, kicks)
        else:  # router_up
            self._router_up(event.router)
        self.applied.append((self.network.sim._now, event.kind,
                             event.router, event.port))
        self._refresh_routing()
        # Kick the waiter queues of freshly dead ports *after* the routing
        # swap: the waiters' pre-computed routes drain into the sink, while
        # every head routed behind them already sees the degraded tables.
        for router, port in kicks:
            router._serve_waiting(port)  # a no-op unless idle with waiters

    # --------------------------------------------------------------- teardown
    def _sink(self, packet: "Packet", port: int, vc: int) -> None:
        """Far end of a dead link: absorbs (and counts) whatever arrives."""
        self.packets_dropped += 1

    def _take_down_port(self, router: "Router", port: int,
                        kicks: List[Tuple["Router", int]]) -> None:
        key = (router.id, port)
        if key in self._down_ports:
            return
        self._down_ports[key] = (router._recv_cb[port], router._cred_infinite[port])
        router._recv_cb[port] = self._sink
        router._cred_infinite[port] = True
        kicks.append((router, port))

    def _restore_port(self, router: "Router", port: int) -> None:
        saved = self._down_ports.pop((router.id, port), None)
        if saved is None:
            return
        recv_cb, was_infinite = saved
        router._recv_cb[port] = recv_cb
        router._cred_infinite[port] = was_infinite
        if not was_infinite:
            # Refill to capacity minus the packets that sat out the outage
            # downstream: each of them still returns its credit when it
            # leaves the buffer.  A counted port always feeds a router.
            network = self.network
            k = network.topo.k
            far = network.remote_idx[router.id * k + port]
            bufs = network.routers[far // k].input_bufs[far % k]
            counts = router._cred_counts[port]
            capacity = router._cred_cap[port]
            for vc in range(len(counts)):
                counts[vc] = capacity - len(bufs[vc] or ())

    def _link_down(self, router_id: int, port: int,
                   kicks: List[Tuple["Router", int]]) -> None:
        routers = self.network.routers
        router = routers[router_id]
        neighbor = self.network.topo.neighbor_of(router_id, port)
        self._take_down_port(router, port, kicks)
        if neighbor is not None:  # both directions of the physical link die
            self._take_down_port(routers[neighbor[0]], neighbor[1], kicks)

    def _link_up(self, router_id: int, port: int) -> None:
        routers = self.network.routers
        self._restore_port(routers[router_id], port)
        neighbor = self.network.topo.neighbor_of(router_id, port)
        if neighbor is not None:
            self._restore_port(routers[neighbor[0]], neighbor[1])

    def _router_down(self, router_id: int,
                     kicks: List[Tuple["Router", int]]) -> None:
        topo = self.network.topo
        router = self.network.routers[router_id]
        self._down_routers.add(router_id)
        for port in topo.network_ports_of(router_id):
            self._link_down(router_id, port, kicks)
        # Ejection ports die too: packets already heading to this router's
        # nodes are absorbed.  The NIC->router direction stays wired — the
        # router's dead output side drops everything its nodes inject, which
        # keeps the NIC flow control untouched.
        for port in range(topo.num_host_ports(router_id)):
            self._take_down_port(router, port, kicks)

    def _router_up(self, router_id: int) -> None:
        topo = self.network.topo
        router = self.network.routers[router_id]
        self._down_routers.discard(router_id)
        for port in topo.network_ports_of(router_id):
            self._link_up(router_id, port)
        for port in range(topo.num_host_ports(router_id)):
            self._restore_port(router, port)

    # ------------------------------------------------------- degraded routing
    def _refresh_routing(self) -> None:
        routing = self.network.routing
        if not self._down_ports:
            # Fully recovered: back to the pristine attach-time fast path.
            self._live_next = None
            routing._min_next = self._orig_min_next
            routing.on_fault_update(None, frozenset())
            return
        topo = self.network.topo
        live_ports = [
            [p for p in topo.network_ports_of(r) if (r, p) not in self._down_ports]
            for r in topo.all_routers()
        ]
        self._rebuild_tables(live_ports)
        routing._min_next = self._min_next
        routing.on_fault_update(live_ports, frozenset(self._down_routers))

    def _rebuild_tables(self, live_ports: List[List[int]]) -> None:
        """Per-destination next-port tables over the live graph.

        One BFS per destination (ports scanned in ascending order, so ties
        break deterministically); ``-1`` marks ``r == dst`` and unreachable
        pairs, which :meth:`_min_next` resolves via the healthy tables.
        """
        topo = self.network.topo
        num = topo.num_routers
        adjacency: List[List[Tuple[int, int]]] = []
        for router in range(num):
            adjacency.append([
                (port, topo.neighbor_of(router, port)[0])
                for port in live_ports[router]
            ])
        table = [[-1] * num for _ in range(num)]
        for dst in range(num):
            dist = [-1] * num
            dist[dst] = 0
            frontier = [dst]
            while frontier:
                nxt = []
                for u in frontier:
                    for _, v in adjacency[u]:
                        if dist[v] < 0:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            for router in range(num):
                if router == dst or dist[router] <= 0:
                    continue
                want = dist[router] - 1
                for port, v in adjacency[router]:
                    if dist[v] == want:
                        table[router][dst] = port
                        break
        self._live_next = table

    def _min_next(self, router: int, dest_router: int) -> int:
        """Degraded replacement for ``Topology.minimal_next_port``."""
        port = self._live_next[router][dest_router]
        if port >= 0:
            return port
        # Unreachable under the current faults: keep the healthy minimal
        # port — the packet heads into the dead region and is absorbed.
        return self._orig_min_next(router, dest_router)

    # ------------------------------------------------------------- inspection
    def dead_ports(self) -> List[Tuple[int, int]]:
        """Currently dead ``(router, out_port)`` directions, sorted."""
        return sorted(self._down_ports)

    def dead_routers(self) -> List[int]:
        return sorted(self._down_routers)

    def diagnostics(self) -> Dict[str, object]:
        """Summary counters for the harness's diagnostics block."""
        return {
            "fault_events_applied": len(self.applied),
            "fault_events_scheduled": len(self.schedule.events),
            "fault_packets_dropped": self.packets_dropped,
            "fault_dead_ports": len(self._down_ports),
            "fault_dead_routers": len(self._down_routers),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultController events={len(self.schedule.events)} "
                f"applied={len(self.applied)} dropped={self.packets_dropped}>")
