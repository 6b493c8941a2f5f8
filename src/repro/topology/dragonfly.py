"""Dragonfly wiring: routers, groups, ports and the global-link arrangement.

Port numbering convention (for a router of radix ``k = p + (a-1) + h``):

* ports ``[0, p)``           — **host** ports, port ``i`` attaches node-local index ``i``;
* ports ``[p, p + a - 1)``   — **local** ports, all-to-all within the group;
* ports ``[p + a - 1, k)``   — **global** ports, ``h`` per router.

Local wiring inside a group of ``a`` routers is all-to-all: router with local
index ``r`` reaches local index ``t`` (``t != r``) through local port
``p + (t if t < r else t - 1)``.

Global wiring uses the *absolute* arrangement (the one used by SST/Merlin and
Booksim for canonical Dragonflies): every group owns ``a*h`` global endpoints
numbered ``0 .. a*h-1``; endpoint ``e`` sits on router-local-index ``e // h``,
global port ``e % h``.  Group ``i`` connects to group ``j`` (``j != i``)
through its endpoint ``j if j < i else j - 1`` — and symmetrically on the
other side — giving exactly one global link between every pair of groups.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.base import PortType, Topology
from repro.topology.config import DragonflyConfig

__all__ = ["DragonflyTopology", "PortType"]


class DragonflyTopology(Topology):
    """Connectivity of a Dragonfly system described by a :class:`DragonflyConfig`.

    The constructor precomputes the neighbour, group and dense minimal-route
    tables, so that all queries used on the simulator hot path
    (``neighbor_of``, ``minimal_next_port``, ``global_port_to_group``) are
    O(1) table lookups and set-up code can take whole tables at once.
    """

    family = "dragonfly"

    #: process-wide cache for :meth:`for_config`; topologies are immutable
    #: after construction (the lazy memo tables are value-transparent), so
    #: every network of the same size can share one instance.
    _instances: dict = {}

    @classmethod
    def for_config(cls, config: DragonflyConfig) -> "DragonflyTopology":
        """Shared topology instance for ``config``.

        Building the wiring tables is O(k·m) and a parameter sweep builds
        hundreds of identical networks; sharing the topology also shares its
        minimal-route table and memoized path queries across runs of one process.
        """
        topo = cls._instances.get(config)
        if topo is None:
            topo = cls(config)
            cls._instances[config] = topo
        return topo

    def __init__(self, config: DragonflyConfig) -> None:
        self.config = config
        self.p = config.p
        self.a = config.a
        self.h = config.h
        self.k = config.radix
        self.g = config.num_groups
        self.num_routers = config.num_routers
        self.num_nodes = config.num_nodes
        self.diameter = 3

        # Port ranges.
        self.host_ports: range = range(0, self.p)
        self.local_ports: range = range(self.p, self.p + self.a - 1)
        self.global_ports: range = range(self.p + self.a - 1, self.k)
        self.non_host_ports: range = range(self.p, self.k)
        #: shared exploration list (every router's connected non-host ports
        #: are identical on a Dragonfly); callers must not mutate it.
        self._network_ports: List[int] = list(self.non_host_ports)

        self._build_tables()

    # ------------------------------------------------------------------ build
    def _build_tables(self) -> None:
        m, k, p, a, h, g = self.num_routers, self.k, self.p, self.a, self.h, self.g

        # neighbor_router[r, port] / neighbor_port[r, port]: the router and its
        # input port on the other side of (r, port); -1 for host ports.
        neighbor_router = np.full((m, k), -1, dtype=np.int64)
        neighbor_port = np.full((m, k), -1, dtype=np.int64)
        # global_port_to_group[r, dest_group]: global port of r that reaches
        # dest_group directly, or -1.
        global_port_to_group = np.full((m, g), -1, dtype=np.int64)
        # gateway_router[src_group, dest_group]: router id inside src_group
        # owning the global link towards dest_group; -1 on the diagonal.
        gateway_router = np.full((g, g), -1, dtype=np.int64)

        # Local all-to-all wiring.
        for grp in range(g):
            base = grp * a
            for r_local in range(a):
                r = base + r_local
                for t_local in range(a):
                    if t_local == r_local:
                        continue
                    port = p + (t_local if t_local < r_local else t_local - 1)
                    back = p + (r_local if r_local < t_local else r_local - 1)
                    neighbor_router[r, port] = base + t_local
                    neighbor_port[r, port] = back

        # Global absolute arrangement.
        for grp_i in range(g):
            for grp_j in range(g):
                if grp_i == grp_j:
                    continue
                endpoint = grp_j if grp_j < grp_i else grp_j - 1
                r_local, g_port = divmod(endpoint, h)
                router = grp_i * a + r_local
                port = p + (a - 1) + g_port

                other_endpoint = grp_i if grp_i < grp_j else grp_i - 1
                o_local, o_gport = divmod(other_endpoint, h)
                other_router = grp_j * a + o_local
                other_port = p + (a - 1) + o_gport

                neighbor_router[router, port] = other_router
                neighbor_port[router, port] = other_port
                global_port_to_group[router, grp_j] = port
                gateway_router[grp_i, grp_j] = router

        self._neighbor_router = neighbor_router
        self._neighbor_port = neighbor_port
        self._global_port_to_group = global_port_to_group
        self._gateway_router = gateway_router

        # Plain-Python mirrors of the hot lookup tables: indexing a nested
        # list returns an ``int`` directly, where indexing the NumPy arrays
        # above returns a numpy scalar that every caller would convert.
        self._router_group: List[int] = [r // a for r in range(m)]
        self._neighbor_pairs: List[List[Optional[Tuple[int, int]]]] = [
            [
                (int(neighbor_router[r, port]), int(neighbor_port[r, port]))
                if neighbor_router[r, port] >= 0
                else None
                for port in range(k)
            ]
            for r in range(m)
        ]
        self._global_port_lists: List[List[Optional[int]]] = [
            [int(port) if port >= 0 else None for port in row]
            for row in global_port_to_group
        ]
        self._gateway_lists: List[List[int]] = [
            [int(router) for router in row] for row in gateway_router
        ]

        # Dense minimal-route table ``[router][dest_router]`` (-1 on the
        # diagonal).  In the absolute arrangement a router's port towards
        # another group depends only on its local index and on the group's
        # endpoint number ``e`` (above), not on its own group: its own global
        # port if it owns endpoint ``e``, else the local port to the owner
        # ``e // h``.  A row is that per-endpoint list, every entry repeated
        # over the ``a`` routers of the group, with the router's own group —
        # its local all-to-all ports — spliced in at the group's position.
        self._min_next: List[List[int]] = []
        segments = []
        for r_local in range(a):
            local = [p + (t if t < r_local else t - 1) for t in range(a)]
            local[r_local] = -1
            remote = [
                p + (a - 1) + e % h if e // h == r_local else local[e // h]
                for e in range(a * h)
                for _ in range(a)
            ]
            segments.append((local, remote))
        for grp in range(g):
            for local, remote in segments:
                row = remote[: grp * a]
                row += local
                row += remote[grp * a :]
                self._min_next.append(row)

        # Memo tables for the remaining per-pair queries; filled lazily.  Keys
        # are flat ``router * m + dest`` ints (cheaper to hash than tuples).
        self._min_hops_cache: dict = {}
        self._min_path_cache: dict = {}

    # ------------------------------------------------------------- id mapping
    def router_of_node(self, node: int) -> int:
        """Router to which compute node ``node`` attaches."""
        self._check_node(node)
        return node // self.p

    def node_local_index(self, node: int) -> int:
        """Index of ``node`` among its router's ``p`` nodes (== its host port)."""
        self._check_node(node)
        return node % self.p

    def host_port_of_node(self, node: int) -> int:
        """Router port that ejects to ``node`` (identical to the node-local index)."""
        return self.node_local_index(node)

    def node_at(self, router: int, host_port: int) -> int:
        """Compute node attached to ``router`` via host port ``host_port``."""
        self._check_router(router)
        if host_port not in self.host_ports:
            raise ValueError(f"port {host_port} is not a host port")
        return router * self.p + host_port

    def nodes_of_router(self, router: int) -> range:
        """All compute nodes attached to ``router``."""
        self._check_router(router)
        return range(router * self.p, (router + 1) * self.p)

    def group_of_router(self, router: int) -> int:
        """Group that ``router`` belongs to."""
        if 0 <= router < self.num_routers:
            return self._router_group[router]
        raise ValueError(f"router {router} out of range [0, {self.num_routers})")

    def group_of_node(self, node: int) -> int:
        """Group that compute node ``node`` belongs to."""
        return self.group_of_router(self.router_of_node(node))

    def router_local_index(self, router: int) -> int:
        """Index of ``router`` within its group (``0 .. a-1``)."""
        self._check_router(router)
        return router % self.a

    def routers_in_group(self, group: int) -> range:
        """All routers of ``group``."""
        self._check_group(group)
        return range(group * self.a, (group + 1) * self.a)

    def nodes_in_group(self, group: int) -> range:
        """All compute nodes of ``group``."""
        self._check_group(group)
        return range(group * self.a * self.p, (group + 1) * self.a * self.p)

    # ------------------------------------------------------------------ ports
    def port_type(self, port: int) -> PortType:
        """Classify ``port`` as host, local or global."""
        if port < 0 or port >= self.k:
            raise ValueError(f"port {port} out of range for radix {self.k}")
        if port < self.p:
            return PortType.HOST
        if port < self.p + self.a - 1:
            return PortType.LOCAL
        return PortType.GLOBAL

    def num_host_ports(self, router: int) -> int:
        self._check_router(router)
        return self.p

    @property
    def hosts_per_router(self) -> int:
        return self.p

    def host_routers(self) -> range:
        return range(self.num_routers)

    def network_ports_of(self, router: int) -> List[int]:
        self._check_router(router)
        return self._network_ports

    def link_kind(self, router: int, port: int) -> PortType:
        """Link class of ``(router, port)``: uniform per port on a Dragonfly."""
        self._check_router(router)
        return self.port_type(port)

    def table_port_span(self) -> Tuple[int, int]:
        return self.p, self.k - self.p

    def is_global_port(self, port: int) -> bool:
        return self.p + self.a - 1 <= port < self.k

    def is_local_port(self, port: int) -> bool:
        return self.p <= port < self.p + self.a - 1

    def is_host_port(self, port: int) -> bool:
        return 0 <= port < self.p

    def neighbor_of(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        """Return ``(neighbor_router, neighbor_input_port)`` across ``(router, port)``.

        Returns ``None`` for host ports (the other side is a compute node).
        """
        self._check_router(router)
        return self._neighbor_pairs[router][port]

    def local_port_to(self, router: int, other: int) -> int:
        """Local port of ``router`` that reaches ``other`` (same group, one hop)."""
        if self.group_of_router(router) != self.group_of_router(other):
            raise ValueError(f"routers {router} and {other} are not in the same group")
        if router == other:
            raise ValueError("a router has no local port to itself")
        r_local = self.router_local_index(router)
        t_local = self.router_local_index(other)
        return self.p + (t_local if t_local < r_local else t_local - 1)

    def global_port_to_group(self, router: int, dest_group: int) -> Optional[int]:
        """Global port of ``router`` directly reaching ``dest_group``, or ``None``."""
        self._check_router(router)
        self._check_group(dest_group)
        return self._global_port_lists[router][dest_group]

    def gateway_router(self, src_group: int, dest_group: int) -> int:
        """Router of ``src_group`` owning the global link towards ``dest_group``."""
        self._check_group(src_group)
        self._check_group(dest_group)
        if src_group == dest_group:
            raise ValueError("no gateway between a group and itself")
        return self._gateway_lists[src_group][dest_group]

    def connected_group(self, router: int, global_port: int) -> int:
        """Group reached through ``global_port`` of ``router``."""
        nbr = self.neighbor_of(router, global_port)
        if nbr is None or not self.is_global_port(global_port):
            raise ValueError(f"port {global_port} of router {router} is not a global port")
        return self.group_of_router(nbr[0])

    # --------------------------------------------------------- minimal routing
    def minimal_next_port(self, router: int, dest_router: int) -> int:
        """Next output port on a minimal path from ``router`` towards ``dest_router``.

        Raises if ``router == dest_router`` (ejection is the caller's decision,
        since it needs the destination *node*).  One lookup in the dense table
        built at construction (same group: the local port; otherwise the
        direct global port, else the local port to the group's gateway).
        """
        self._check_router(router)
        self._check_router(dest_router)
        port = self._min_next[router][dest_router]
        if port < 0:
            raise ValueError("already at the destination router; eject instead")
        return port

    def minimal_next_table(self) -> List[List[int]]:
        return self._min_next

    def minimal_router_path(self, src_router: int, dest_router: int) -> List[int]:
        """Sequence of routers (inclusive of both ends) along the minimal path.

        Memoized; callers receive a fresh copy and may mutate it freely.
        """
        self._check_router(src_router)
        self._check_router(dest_router)
        key = src_router * self.num_routers + dest_router
        path = self._min_path_cache.get(key)
        if path is not None:
            return list(path)
        path = [src_router]
        current = src_router
        while current != dest_router:
            port = self.minimal_next_port(current, dest_router)
            nxt = self.neighbor_of(current, port)
            assert nxt is not None
            current = nxt[0]
            path.append(current)
            if len(path) > 4:  # diameter-3 topology: at most 4 routers on a minimal path
                raise RuntimeError("minimal path exceeded the Dragonfly diameter; wiring bug")
        self._min_path_cache[key] = path
        return list(path)

    def minimal_hops(self, src_router: int, dest_router: int) -> int:
        """Number of router-to-router hops on the minimal path (0 to 3). Memoized."""
        self._check_router(src_router)
        self._check_router(dest_router)
        key = src_router * self.num_routers + dest_router
        hops = self._min_hops_cache.get(key)
        if hops is not None:
            return hops
        if src_router == dest_router:
            hops = 0
        else:
            src_group = self.group_of_router(src_router)
            dst_group = self.group_of_router(dest_router)
            if src_group == dst_group:
                hops = 1
            else:
                hops = 1  # the global hop
                if self._gateway_lists[src_group][dst_group] != src_router:
                    hops += 1
                if self._gateway_lists[dst_group][src_group] != dest_router:
                    hops += 1
        self._min_hops_cache[key] = hops
        return hops

    # ----------------------------------------------------------- enumerations
    def all_routers(self) -> range:
        return range(self.num_routers)

    def all_nodes(self) -> range:
        return range(self.num_nodes)

    def all_groups(self) -> range:
        return range(self.g)

    def local_neighbors(self, router: int) -> Sequence[int]:
        """All routers sharing a group with ``router`` (excluding itself)."""
        group = self.group_of_router(router)
        return [r for r in self.routers_in_group(group) if r != router]

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        return (f"DragonflyTopology(p={c.p}, a={c.a}, h={c.h}, g={self.g}, "
                f"routers={self.num_routers}, nodes={self.num_nodes})")
