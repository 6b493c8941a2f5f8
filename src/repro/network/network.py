"""Wiring of a complete simulated system: routers, NICs, links, routing, stats.

:class:`Network` is the main entry point of the simulation layer.  It builds
every router and NIC for a topology config (Dragonfly, fat-tree, mesh/torus —
any family registered in :data:`repro.topology.registry.TOPOLOGIES`), wires
them from one flat per-port table (link delays, far ends, credit capacities;
see :func:`port_table`) that the batched kernel's model reads too,
attaches a routing algorithm and a statistics collector, and exposes packet
creation/injection plus ``run``.

Typical use (see ``examples/quickstart.py``)::

    from repro import DragonflyConfig, Network, NetworkParams
    from repro.routing import MinimalRouting
    from repro.traffic import UniformRandomTraffic, TrafficGenerator

    net = Network(DragonflyConfig.small_72(), MinimalRouting(), seed=1)
    gen = TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.5)
    gen.start()
    net.run(until=20_000.0)          # 20 µs
    print(net.finalize().to_dict())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional

if TYPE_CHECKING:  # typing only: repro.routing imports the network layer
    from repro.routing.base import RoutingAlgorithm

from repro.engine.rng import RngFactory
from repro.engine.simulator import Simulator
from repro.instrument.bus import Probe, ProbeBus
from repro.network.nic import Nic
from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.network.router import Router
from repro.stats.collectors import RunStats, StatsCollector
from repro.topology.base import Topology
from repro.topology.registry import topology_for


def resolve_params(
    params: Optional[NetworkParams], routing: "RoutingAlgorithm", topo: Topology
) -> NetworkParams:
    """``params`` (the paper's defaults when ``None``) with ``num_vcs``
    resolved: the routing's :meth:`~repro.routing.base.RoutingAlgorithm.required_vcs`
    on ``topo`` when unset."""
    base = params if params is not None else NetworkParams()
    num_vcs = base.num_vcs
    if num_vcs is None:
        num_vcs = routing.required_vcs(topo)
    return base.with_num_vcs(num_vcs)


class PortTable(NamedTuple):
    """Per-port link and credit state of a whole system (see :func:`port_table`)."""

    hop_delay: List[float]  # [f] serialization + link latency
    lat: List[float]  # [f] link latency only
    node_at: List[int]  # [f] node behind a host port, -1
    remote_idx: List[int]  # [f] far end ``router * k + port`` of a network port, -1
    cred_cap: List[Optional[int]]  # [f] credits per VC, None = unlimited (host, dark)
    nic_fidx: List[int]  # [node] ``router * k + host port`` the NIC feeds
    nic_hop_delay: float
    nic_cred_cap: int  # credits of a NIC towards its router's host input


def port_table(topo: Topology, params: NetworkParams) -> PortTable:
    """The flat per-port table both engines are wired from.

    Indexed ``f = router * k + port`` as the batched kernel indexes it:
    ``hop_delay`` (serialization + latency, summed once so event times group
    as ``now + (ser + latency)``) and ``lat``; the far end, ``node_at``
    behind a host port or ``remote_idx`` behind a network port, ``-1``
    otherwise (a dark port has neither); ``cred_cap``, the credits per VC,
    ``None`` for unlimited (every host port: the NIC always drains the
    network).  ``nic_fidx[node]``, ``nic_hop_delay`` and ``nic_cred_cap``
    wire the NICs.  A pure function of ``(topo, params)``:
    :class:`Network` wires its routers and NICs from it, and the kernel's
    model (:func:`repro.engine.batch.build_model`) takes the lists whole
    without building a network.
    """
    k = topo.k
    ser = params.serialization_ns
    size = topo.num_routers * k
    hop_delay: List[float] = [0.0] * size
    lat: List[float] = [0.0] * size
    node_at: List[int] = [-1] * size
    remote_idx: List[int] = [-1] * size
    cred_cap: List[Optional[int]] = [None] * size
    for router_id in topo.all_routers():
        num_host = topo.num_host_ports(router_id)
        for port in range(k):
            f = router_id * k + port
            if port < num_host:
                latency = params.host_link_latency_ns
                node_at[f] = topo.node_at(router_id, port)
            else:
                neighbor = topo.neighbor_of(router_id, port)
                if neighbor is None:
                    continue
                latency = params.link_latency_ns(topo.link_kind(router_id, port))
                remote_idx[f] = neighbor[0] * k + neighbor[1]
                cred_cap[f] = params.vc_buffer_packets
            lat[f] = latency
            hop_delay[f] = ser + latency
    nic_fidx = [
        topo.router_of_node(n) * k + topo.host_port_of_node(n) for n in topo.all_nodes()
    ]
    return PortTable(hop_delay, lat, node_at, remote_idx, cred_cap, nic_fidx,
                     ser + params.host_link_latency_ns, params.vc_buffer_packets)


class Network:
    """A simulated system bound to one topology and one routing algorithm.

    Parameters
    ----------
    config:
        A registered topology config (:class:`~repro.topology.config.DragonflyConfig`,
        :class:`~repro.topology.fattree.FatTreeConfig`,
        :class:`~repro.topology.mesh.MeshConfig`, ...) or a ready-built
        :class:`~repro.topology.base.Topology` instance.
    routing:
        A routing algorithm instance (see :mod:`repro.routing` and
        :mod:`repro.core`).  The algorithm is attached to this network and
        must not be shared with another live network.
    params:
        Hardware parameters; defaults to the paper's Section 5.1 values.
    seed:
        Root seed for every random stream of the run.
    warmup_ns:
        Packets generated before this time are excluded from the measurement
        window (they still flow through the network and appear in the time
        series).
    stats_bin_ns:
        Width of the time-series bins used for convergence / dynamic-load plots.
    """

    def __init__(
        self,
        config: object,
        routing: "RoutingAlgorithm",
        params: Optional[NetworkParams] = None,
        seed: int = 0,
        warmup_ns: float = 0.0,
        stats_bin_ns: float = 1_000.0,
    ) -> None:
        if isinstance(config, Topology):
            self.topo = config
            self.config = config.config
        else:
            self.topo = topology_for(config)
            self.config = config
        self.params = resolve_params(params, routing, self.topo)
        self.routing = routing
        self.sim = Simulator()
        self.rng = RngFactory(seed)
        self.seed = seed
        #: telemetry bus every probe attaches to (see :mod:`repro.instrument`).
        self.bus = ProbeBus()
        self.collector = StatsCollector(
            warmup_ns=warmup_ns,
            bin_ns=stats_bin_ns,
            num_nodes=self.topo.num_nodes,
            node_bandwidth_bytes_per_ns=self.params.link_bandwidth_bytes_per_ns,
            packet_bytes=self.params.packet_bytes,
        )
        self._packet_counter = 0
        self._ev_generated = None
        # Per-packet hot-path caches: plain int / list lookups in create_packet.
        self._hosts_per_router = self.topo.hosts_per_router
        self._router_group = self.topo.router_groups()
        self.routers: List[Router] = []
        self.nics: List[Nic] = []
        self._build()
        routing.attach(self)
        # The collector is the default probe: generation/delivery flow over
        # the bus, so user probes and the collector observe the same events.
        self.attach_probe(self.collector)

    # ------------------------------------------------------------------ build
    def _build(self) -> None:
        """Fill the port table, then wire every router and NIC from it.

        The table (:func:`port_table`) stays on the network under its field
        names — ``network.remote_idx`` and friends, which the fault
        controller reads.
        """
        topo, params, sim = self.topo, self.params, self.sim
        k = topo.k
        (self.hop_delay, self.lat, self.node_at, self.remote_idx, self.cred_cap,
         self.nic_fidx, self.nic_hop_delay, self.nic_cred_cap) = port_table(topo, params)

        num_vcs = params.num_vcs
        routers = [Router(r, topo, params, sim, num_vcs) for r in topo.all_routers()]
        nics = [Nic(n, params, sim) for n in topo.all_nodes()]
        for router in routers:
            row = slice(router.id * k, router.id * k + k)
            remote_idx = self.remote_idx[row]
            ends = [
                routers[f // k] if f >= 0 else nics[node] if node >= 0 else None
                for f, node in zip(remote_idx, self.node_at[row], strict=True)
            ]
            remote = [f % k if f >= 0 else 0 for f in remote_idx]
            router.wire(ends, remote, self.hop_delay[row], self.lat[row], self.cred_cap[row])
            router.attach_routing(self.routing)
        for nic in nics:
            f = self.nic_fidx[nic.node]
            nic.wire(routers[f // k], f % k, self.nic_hop_delay, self.nic_cred_cap)
        self.routers = routers
        self.nics = nics

    # ------------------------------------------------------------- telemetry
    def attach_probe(self, probe: Probe) -> Probe:
        """Attach a telemetry probe (see :mod:`repro.instrument.probes`).

        Subscribes every hook of ``probe.subscriptions()`` on the bus and
        re-resolves the flat emitter slots of every publishing component, so
        the hot path stays monomorphic: with no listener a hook costs one
        ``None`` check, with one listener the slot *is* the listener's bound
        method.  Returns the probe for chaining.
        """
        if hasattr(probe, "bind"):
            probe.bind(self)
        self.bus.attach(probe)
        self._sync_probe_slots()
        return probe

    def detach_probe(self, probe: Probe) -> None:
        """Detach a previously attached probe (its hooks stop firing)."""
        self.bus.detach(probe)
        self._sync_probe_slots()

    def _sync_probe_slots(self) -> None:
        """Re-resolve every publisher's emitter slot from the bus.

        Called after each attach/detach; never on the per-event path.
        """
        bus = self.bus
        self._ev_generated = bus.emitter("packet_generated")
        ev_injected = bus.emitter("packet_injected")
        ev_delivery = bus.emitter("packet_delivered")
        for nic in self.nics:
            nic._ev_injected = ev_injected
            nic._ev_delivery = ev_delivery
        ev_link_busy = bus.emitter("link_busy")
        ev_credit_stall = bus.emitter("credit_stall")
        ev_queue_depth = bus.emitter("queue_depth")
        for router in self.routers:
            router._ev_link_busy = ev_link_busy
            router._ev_credit_stall = ev_credit_stall
            router._ev_queue_depth = ev_queue_depth
        # Only the tabular MARL algorithms publish q_update; the slot is a
        # class attribute defaulting to None on those classes.
        if hasattr(self.routing, "_ev_q_update"):
            self.routing._ev_q_update = bus.emitter("q_update")

    # --------------------------------------------------------------- accessors
    @property
    def num_nodes(self) -> int:
        return self.topo.num_nodes

    @property
    def num_routers(self) -> int:
        return self.topo.num_routers

    def router(self, router_id: int) -> Router:
        return self.routers[router_id]

    def nic(self, node: int) -> Nic:
        return self.nics[node]

    # ------------------------------------------------------------ packet flow
    def create_packet(self, src_node: int, dst_node: int, now: Optional[float] = None) -> Packet:
        """Build (and account) a new packet; the caller injects it via the NIC."""
        if src_node == dst_node:
            raise ValueError("source and destination node must differ")
        topo = self.topo
        num_nodes = topo.num_nodes
        if not (0 <= src_node < num_nodes and 0 <= dst_node < num_nodes):
            raise ValueError(f"node out of range [0, {num_nodes}): {src_node}, {dst_node}")
        if now is None:
            now = self.sim._now
        # Inlined id mapping (node // hosts_per_router is the router, the
        # remainder its local index — a protocol guarantee on every family):
        # one packet is created per generated message, so the helper calls
        # would dominate this constructor.
        p = self._hosts_per_router
        src_router = src_node // p
        dst_router = dst_node // p
        packet = Packet(
            pid=self._packet_counter,
            src_node=src_node,
            dst_node=dst_node,
            src_router=src_router,
            dst_router=dst_router,
            src_group=self._router_group[src_router],
            src_node_local=src_node % p,
            size_bytes=self.params.packet_bytes,
            create_time_ns=now,
        )
        self._packet_counter += 1
        ev = self._ev_generated
        if ev is not None:
            ev(packet)
        return packet

    def send(self, src_node: int, dst_node: int) -> Packet:
        """Convenience: create a packet now and queue it at the source NIC."""
        packet = self.create_packet(src_node, dst_node)
        self.nics[src_node].inject(packet)
        return packet

    # ---------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (time in nanoseconds)."""
        return self.sim.run(until=until)

    def drain(self, extra_ns: float = 1_000_000.0) -> float:
        """Run until every in-flight packet is delivered (bounded by ``extra_ns``)."""
        return self.sim.run(until=self.sim.now + extra_ns)

    def finalize(self) -> RunStats:
        """Aggregate statistics of the run so far."""
        return self.collector.finalize(self.sim.now)

    # ------------------------------------------------------------- diagnostics
    def packets_in_flight(self) -> int:
        """Packets generated but not yet delivered (network + source queues)."""
        return self.collector.generated - self.collector.delivered

    def buffered_packets(self) -> int:
        """Packets currently held in router buffers (excludes source queues)."""
        return sum(router.buffered_packets() for router in self.routers)

    def source_queued_packets(self) -> int:
        """Packets still waiting in NIC source queues."""
        return sum(nic.queue_length for nic in self.nics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network {self.topo.family} nodes={self.num_nodes} "
            f"routers={self.num_routers} "
            f"routing={getattr(self.routing, 'name', self.routing.__class__.__name__)}>"
        )

