"""Topology protocol: the contract every interconnect implementation fulfils.

The simulator's network layer (:mod:`repro.network`) and the routing
algorithms (:mod:`repro.routing`, :mod:`repro.core`) never ask *how* a
topology is wired — they ask the questions below: which router owns a node,
what sits on the far side of a port, what the next minimal hop is, how many
hops a minimal path takes.  :class:`Topology` names those questions once so
that Dragonfly, fat-tree and mesh/torus (and user-registered families) can
answer them each in their own way.

Implementations are registered in :data:`repro.topology.registry.TOPOLOGIES`
keyed by their ``family`` string; configs carry the same string in their
serialized form so specs, studies and checkpoints can round-trip any family.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Sequence, Tuple

__all__ = ["PortType", "Topology"]


class PortType(Enum):
    """Classification of a router port by the link it drives.

    ``LOCAL`` and ``GLOBAL`` originate from Dragonfly's two link classes but
    are reused by every family to select link latency
    (:meth:`repro.network.params.NetworkParams.link_latency_ns`): fat-tree
    and mesh links are uniformly ``LOCAL``; only Dragonfly inter-group links
    are ``GLOBAL``.
    """

    HOST = "host"
    LOCAL = "local"
    GLOBAL = "global"


class Topology:
    """Abstract connectivity of an interconnect.

    Concrete subclasses (one per topology family) set the attributes below in
    their constructor and implement every method that raises
    ``NotImplementedError``.  All queries are pure functions of the wiring;
    implementations are expected to memoize anything a per-packet hot path
    asks repeatedly.

    Attributes
    ----------
    family:
        Registry key of the topology family (``"dragonfly"``, ``"fattree"``,
        ``"mesh"``); matches the ``"family"`` field of the config's
        serialized form.
    config:
        The immutable config dataclass this topology was built from.
    num_routers, num_nodes:
        System size.
    k:
        Router radix — every router exposes ports ``[0, k)``, although some
        may be unconnected (``neighbor_of`` → ``None``) on irregular
        families (mesh edges, fat-tree core host columns).
    g:
        Number of routing groups (Dragonfly groups; fat-tree pods + one
        synthetic core group; mesh rows).  Probes and traffic patterns key
        per-group statistics on this.
    diameter:
        Maximum router-to-router minimal hop count; the default
        ``RoutingAlgorithm.max_hops`` and therefore the default VC count.
    """

    family: str = "base"

    config = None
    num_routers: int = 0
    num_nodes: int = 0
    k: int = 0
    g: int = 0
    diameter: int = 0

    # ------------------------------------------------------------- id mapping
    def router_of_node(self, node: int) -> int:
        """Router to which compute node ``node`` attaches."""
        raise NotImplementedError

    def node_local_index(self, node: int) -> int:
        """Index of ``node`` among its router's attached nodes."""
        raise NotImplementedError

    def host_port_of_node(self, node: int) -> int:
        """Router port that ejects to ``node``."""
        raise NotImplementedError

    def node_at(self, router: int, host_port: int) -> int:
        """Compute node attached to ``router`` via host port ``host_port``."""
        raise NotImplementedError

    def nodes_of_router(self, router: int) -> Sequence[int]:
        """All compute nodes attached to ``router`` (may be empty)."""
        raise NotImplementedError

    def group_of_router(self, router: int) -> int:
        """Routing group that ``router`` belongs to."""
        raise NotImplementedError

    def group_of_node(self, node: int) -> int:
        """Routing group that compute node ``node`` belongs to."""
        return self.group_of_router(self.router_of_node(node))

    def nodes_in_group(self, group: int) -> Sequence[int]:
        """All compute nodes of routing group ``group``."""
        raise NotImplementedError

    def router_groups(self) -> List[int]:
        """Plain list mapping router id → group id (shared, do not mutate).

        Packet creation and several routing algorithms index this per packet;
        a plain list keeps that lookup free of method-call overhead.
        """
        groups = getattr(self, "_router_groups_cache", None)
        if groups is None:
            groups = [self.group_of_router(r) for r in range(self.num_routers)]
            self._router_groups_cache = groups
        return groups

    # ------------------------------------------------------------------ ports
    def num_host_ports(self, router: int) -> int:
        """Number of host (ejection) ports of ``router``.

        Uniform on Dragonfly and mesh; zero on fat-tree aggregation/core
        switches.  The router hardware uses this as its ejection threshold
        (ports ``[0, num_host_ports)`` eject, the rest forward).
        """
        raise NotImplementedError

    @property
    def hosts_per_router(self) -> int:
        """Host ports per *host-bearing* router (a uniform divisor: node ids
        are ``router_of_node(n) * hosts_per_router + node_local_index(n)``
        on every family, which keeps packet creation arithmetic-only)."""
        raise NotImplementedError

    def host_routers(self) -> Sequence[int]:
        """Routers with at least one attached compute node."""
        raise NotImplementedError

    def network_ports_of(self, router: int) -> List[int]:
        """Connected non-host ports of ``router``, ascending.

        This is the exploration candidate set of learned routing algorithms;
        implementations return a shared cached list, so callers must not
        mutate it.
        """
        raise NotImplementedError

    def link_kind(self, router: int, port: int) -> PortType:
        """Link class of ``(router, port)``; selects the link latency."""
        raise NotImplementedError

    def neighbor_of(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        """``(neighbor_router, neighbor_input_port)`` across ``(router, port)``.

        ``None`` for host ports and for unconnected ports (mesh edges,
        fat-tree core switches' unused columns).
        """
        raise NotImplementedError

    # -------------------------------------------------------- minimal routing
    def minimal_next_port(self, router: int, dest_router: int) -> int:
        """Next output port on a minimal path from ``router`` to ``dest_router``.

        Deterministic (one canonical minimal path per pair) and cheap to
        repeat (a table or memo lookup); raises when ``router == dest_router``
        (ejection is the caller's decision, it needs the destination *node*).
        """
        raise NotImplementedError

    def minimal_next_table(self) -> List[List[int]]:
        """Dense ``[router][dest_router]`` form of :meth:`minimal_next_port`.

        ``-1`` on the diagonal.  Shared, do not mutate.  The default asks
        pair by pair; families that hold the table return it directly.
        """
        routers = range(self.num_routers)
        return [[self.minimal_next_port(r, d) if d != r else -1 for d in routers]
                for r in routers]

    def minimal_hops(self, src_router: int, dest_router: int) -> int:
        """Router-to-router hops on the canonical minimal path (0..diameter)."""
        raise NotImplementedError

    def minimal_router_path(self, src_router: int, dest_router: int) -> List[int]:
        """Router sequence (both ends inclusive) of the canonical minimal path."""
        self._check_router(src_router)
        self._check_router(dest_router)
        path = [src_router]
        current = src_router
        while current != dest_router:
            port = self.minimal_next_port(current, dest_router)
            nxt = self.neighbor_of(current, port)
            assert nxt is not None
            current = nxt[0]
            path.append(current)
            if len(path) > self.diameter + 1:
                raise RuntimeError(
                    f"minimal path exceeded the {self.family} diameter; wiring bug"
                )
        return path

    # ----------------------------------------------------------- table layout
    def table_port_span(self) -> Tuple[int, int]:
        """``(first_port, num_ports)`` of learned per-port value tables.

        One uniform span per topology (even when routers differ in connected
        ports), so every router's table is one slice of a dense
        ``[routers, rows, cols]`` block; unconnected columns are simply never
        chosen.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ enumeration
    def all_routers(self) -> range:
        return range(self.num_routers)

    def all_nodes(self) -> range:
        return range(self.num_nodes)

    def all_groups(self) -> range:
        return range(self.g)

    # ------------------------------------------------------------- validation
    def _check_router(self, router: int) -> None:
        if not 0 <= router < self.num_routers:
            raise ValueError(f"router {router} out of range [0, {self.num_routers})")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.g:
            raise ValueError(f"group {group} out of range [0, {self.g})")
