"""Routing algorithm interface.

A routing algorithm is a single object attached to a
:class:`~repro.network.network.Network`.  Routers call
:meth:`RoutingAlgorithm.route` whenever a packet reaches the head of an input
VC buffer, and :meth:`RoutingAlgorithm.on_forward` when a packet actually
leaves on an output port.  Algorithms that learn (Q-routing, Q-adaptive) keep
per-router state internally and use these two hooks to exchange reward
feedback between neighbour routers.

All algorithms must bound the number of router-to-router hops they produce;
``required_vcs`` returns that bound, which the network uses as the VC count so
that the per-hop VC increment discipline stays deadlock free.

Algorithms type against the generic :class:`~repro.topology.base.Topology`
protocol.  Those whose path shapes only make sense on one family (Q-adaptive,
UGAL, PAR, the Valiant group variants) declare ``supported_topologies``; the
attach step rejects any other family with a clear error instead of producing
nonsense routes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Tuple

from repro.network.packet import Packet
from repro.network.router import Router
from repro.topology.base import Topology

if TYPE_CHECKING:  # typing only: the network constructs and attaches us
    import random

    from repro.network.network import Network


class RoutingAlgorithm(abc.ABC):
    """Base class of every routing algorithm (adaptive, oblivious, or learned)."""

    #: short name used in result tables (e.g. "MIN", "UGALg", "Q-adp")
    name: str = "base"

    #: topology families this algorithm can route on; ``None`` means any
    #: registered family (the algorithm only uses the generic protocol).
    supported_topologies: Optional[Tuple[str, ...]] = None

    def __init__(self) -> None:
        self.network: Optional["Network"] = None
        self.topo: Optional[Topology] = None
        self.rng: Optional["random.Random"] = None

    # ----------------------------------------------------------------- wiring
    def attach(self, network: "Network") -> None:
        """Bind the algorithm to a network (called by ``Network``)."""
        if self.network is not None and self.network is not network:
            raise RuntimeError(
                f"routing algorithm {self.name!r} is already attached to a network; "
                "create a fresh instance per network"
            )
        topo = network.topo
        self.check_topology(topo)
        self.network = network
        self.topo = topo
        self.rng = network.rng.py(f"routing:{self.name}")
        # Ejection fast path: every family guarantees the host port of a node
        # is ``node % hosts_per_router`` (see Topology.hosts_per_router).
        self._host_ports = topo.hosts_per_router
        self._min_next = topo.minimal_next_port  # bound, memoized
        self._setup()

    def check_topology(self, topo: Topology) -> None:
        """Refuse a topology family outside :attr:`supported_topologies`."""
        supported = self.supported_topologies
        if supported is not None and topo.family not in supported:
            raise ValueError(
                f"routing algorithm {self.name!r} supports topology families "
                f"{list(supported)}, not {topo.family!r}; pick a topology-generic "
                "algorithm (MIN, VAL, Q-routing) for this network"
            )

    def _setup(self) -> None:
        """Hook for subclasses needing per-network state (tables, caches)."""

    # ------------------------------------------------------------ degradation
    def on_fault_update(self, live_ports: Optional[list],
                        dead_routers: frozenset) -> None:
        """Structural change notification from :mod:`repro.faults`.

        Called by the :class:`~repro.faults.controller.FaultController` after
        every applied fault event.  ``live_ports`` lists the surviving
        network ports per router (indexed by router id); ``None`` means the
        last fault recovered and the algorithm must restore its pristine
        attach-time candidate state.  ``dead_routers`` names routers whose
        links are all down (router outages).

        The controller separately swaps ``self._min_next`` for a
        live-graph lookup, so minimal algorithms need no override; algorithms
        with their own candidate sets (exploration ports, Valiant
        intermediates) override this to mask dead candidates.  Never called
        on faults-off runs.
        """

    # ------------------------------------------------------------- VC budget
    def max_hops(self, topo: Topology) -> int:
        """Upper bound on router-to-router hops of any path this algorithm builds.

        Minimal algorithms are bounded by the topology diameter; algorithms
        taking non-minimal detours must override with their own bound.
        """
        return topo.diameter

    def required_vcs(self, topo: Topology) -> int:
        """Virtual channels needed for deadlock freedom (one per possible hop)."""
        return self.max_hops(topo)

    # ----------------------------------------------------------------- routing
    def route(self, router: Router, packet: Packet, in_port: int) -> int:
        """Select the output port for ``packet`` at ``router``.

        The default implementation calls :meth:`observe` (learning hook),
        ejects packets that reached their destination router, and otherwise
        delegates to :meth:`decide`.
        """
        self.observe(router, packet, in_port)
        if packet.dst_router == router.id:
            return packet.dst_node % self._host_ports  # the ejection host port
        return self.decide(router, packet, in_port)

    def observe(self, router: Router, packet: Packet, in_port: int) -> None:
        """Called before every routing decision; learning algorithms send feedback here."""

    @abc.abstractmethod
    def decide(self, router: Router, packet: Packet, in_port: int) -> int:
        """Select the output port for a packet that has not reached its destination router."""

    def on_forward(self, router: Router, packet: Packet, in_port: int, out_port: int,
                   now: float) -> None:
        """Called when ``router`` actually puts ``packet`` on ``out_port``."""

    # -------------------------------------------------------------- utilities
    def minimal_port(self, router: Router, packet: Packet) -> int:
        """Next port of the minimal path towards the packet's destination router.

        Hot decide() implementations may call the cached ``self._min_next``
        bound method directly to skip this wrapper frame.
        """
        return self._min_next(router.id, packet.dst_router)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} name={self.name!r}>"
