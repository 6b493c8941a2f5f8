"""k-ary fat-tree (folded Clos) wiring: edge, aggregation and core layers.

A ``k``-ary fat-tree (Al-Fares et al., SIGCOMM'08) has ``k`` pods, each with
``k/2`` edge and ``k/2`` aggregation switches, plus ``(k/2)²`` core switches;
every switch has radix ``k`` and the system attaches ``k³/4`` compute nodes
(``k/2`` per edge switch).

Router id layout (``E = k²/2`` switches per layer):

* edge ids ``[0, E)``, pod-major: edge ``pod * k/2 + i``;
* aggregation ids ``[E, 2E)``, pod-major: ``E + pod * k/2 + i``;
* core ids ``[2E, 2E + (k/2)²)``: core ``2E + i * k/2 + j`` belongs to *core
  group* ``i`` and connects to aggregation switch ``i`` of every pod.

Port layout (radix ``k`` everywhere):

* edge: ports ``[0, k/2)`` are host ports, ``[k/2, k)`` go up — up port
  ``k/2 + i`` reaches the pod's aggregation switch ``i``;
* aggregation: ports ``[0, k/2)`` go down — down port ``e`` reaches the
  pod's edge switch ``e``; up port ``k/2 + j`` reaches core ``i*k/2 + j``;
* core: port ``pod`` reaches that pod's aggregation switch ``i``.

Minimal routing is the canonical deterministic up*/down* scheme: climb
towards the layer that covers the destination (spreading by destination
index), then descend.  Groups are pods; the core layer forms one extra
synthetic group (id ``k``), so per-group statistics stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.scenarios.serialize import Codec, Number, _check_fields
from repro.topology.base import PortType, Topology

__all__ = ["FatTreeConfig", "FatTreeTopology"]


@dataclass(frozen=True)
class FatTreeConfig(Codec):
    """Immutable k-ary fat-tree size description (``k`` even, >= 2)."""

    k: int

    _NUMBERS = {"k": Number(int, 2)}

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.k % 2:
            raise ValueError(f"FatTreeConfig: k must be even, got {self.k}")

    # ------------------------------------------------------------ derived sizes
    @property
    def radix(self) -> int:
        return self.k

    @property
    def half(self) -> int:
        """``k/2``: switches per layer per pod, hosts per edge switch."""
        return self.k // 2

    @property
    def num_pods(self) -> int:
        return self.k

    @property
    def num_edge(self) -> int:
        return self.k * self.half

    @property
    def num_agg(self) -> int:
        return self.k * self.half

    @property
    def num_core(self) -> int:
        return self.half * self.half

    @property
    def num_routers(self) -> int:
        return self.num_edge + self.num_agg + self.num_core

    @property
    def num_nodes(self) -> int:
        return self.num_edge * self.half

    def describe(self) -> dict:
        return {
            "N": self.num_nodes,
            "k": self.k,
            "pods": self.num_pods,
            "edge": self.num_edge,
            "agg": self.num_agg,
            "core": self.num_core,
        }

    # ------------------------------------------------------------------ presets
    @classmethod
    def tiny(cls) -> "FatTreeConfig":
        """k=4: 16 nodes, 20 switches — the default test scale."""
        return cls(k=4)

    @classmethod
    def small_54(cls) -> "FatTreeConfig":
        """k=6: 54 nodes, 45 switches — comparable to the Dragonfly small_72."""
        return cls(k=6)


class FatTreeTopology(Topology):
    """Connectivity of a k-ary fat-tree described by a :class:`FatTreeConfig`."""

    family = "fattree"

    _instances: dict = {}

    @classmethod
    def for_config(cls, config: FatTreeConfig) -> "FatTreeTopology":
        """Shared topology instance for ``config`` (see
        :meth:`DragonflyTopology.for_config` for the rationale)."""
        topo = cls._instances.get(config)
        if topo is None:
            topo = cls(config)
            cls._instances[config] = topo
        return topo

    def __init__(self, config: FatTreeConfig) -> None:
        self.config = config
        self.k = config.radix
        self.half = config.half
        self.num_edge = config.num_edge
        self.num_agg = config.num_agg
        self.num_core = config.num_core
        self.num_routers = config.num_routers
        self.num_nodes = config.num_nodes
        #: pods plus one synthetic group for the core layer.
        self.g = config.num_pods + 1
        self.diameter = 4

        self._agg_base = self.num_edge
        self._core_base = self.num_edge + self.num_agg
        self._edge_network_ports: List[int] = list(range(self.half, self.k))
        self._full_network_ports: List[int] = list(range(self.k))
        self._build_tables()

    # ------------------------------------------------------------------ build
    def _build_tables(self) -> None:
        k, half = self.k, self.half
        agg_base, core_base = self._agg_base, self._core_base
        pairs: List[List[Optional[Tuple[int, int]]]] = [
            [None] * k for _ in range(self.num_routers)
        ]
        for pod in range(k):
            for i in range(half):
                edge = pod * half + i
                agg = agg_base + pod * half + i
                for j in range(half):
                    # edge i <-> aggregation j inside the pod
                    other_agg = agg_base + pod * half + j
                    pairs[edge][half + j] = (other_agg, i)
                    pairs[other_agg][i] = (edge, half + j)
                    # aggregation i <-> core (i, j)
                    core = core_base + i * half + j
                    pairs[agg][half + j] = (core, pod)
                    pairs[core][pod] = (agg, half + j)
        self._neighbor_pairs = pairs
        self._min_port_cache: dict = {}
        self._min_hops_cache: dict = {}

    # ------------------------------------------------------------- id mapping
    def router_of_node(self, node: int) -> int:
        self._check_node(node)
        return node // self.half

    def node_local_index(self, node: int) -> int:
        self._check_node(node)
        return node % self.half

    def host_port_of_node(self, node: int) -> int:
        return self.node_local_index(node)

    def node_at(self, router: int, host_port: int) -> int:
        self._check_router(router)
        if router >= self.num_edge or not 0 <= host_port < self.half:
            raise ValueError(
                f"(router {router}, port {host_port}) is not a host attachment point"
            )
        return router * self.half + host_port

    def nodes_of_router(self, router: int) -> range:
        self._check_router(router)
        if router >= self.num_edge:
            return range(0)
        return range(router * self.half, (router + 1) * self.half)

    def group_of_router(self, router: int) -> int:
        self._check_router(router)
        if router >= self._core_base:
            return self.g - 1
        if router >= self._agg_base:
            return (router - self._agg_base) // self.half
        return router // self.half

    def nodes_in_group(self, group: int) -> range:
        self._check_group(group)
        if group == self.g - 1:  # the synthetic core group attaches no nodes
            return range(0)
        per_pod = self.half * self.half
        return range(group * per_pod, (group + 1) * per_pod)

    # ------------------------------------------------------------------ ports
    def num_host_ports(self, router: int) -> int:
        self._check_router(router)
        return self.half if router < self.num_edge else 0

    @property
    def hosts_per_router(self) -> int:
        return self.half

    def host_routers(self) -> range:
        return range(self.num_edge)

    def network_ports_of(self, router: int) -> List[int]:
        self._check_router(router)
        if router < self.num_edge:
            return self._edge_network_ports
        return self._full_network_ports

    def link_kind(self, router: int, port: int) -> PortType:
        if port < 0 or port >= self.k:
            raise ValueError(f"port {port} out of range for radix {self.k}")
        if router < self.num_edge and port < self.half:
            return PortType.HOST
        return PortType.LOCAL

    def neighbor_of(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        self._check_router(router)
        return self._neighbor_pairs[router][port]

    # -------------------------------------------------------- minimal routing
    def minimal_next_port(self, router: int, dest_router: int) -> int:
        self._check_router(router)
        self._check_router(dest_router)
        key = router * self.num_routers + dest_router
        port = self._min_port_cache.get(key)
        if port is not None:
            return port
        if router == dest_router:
            raise ValueError("already at the destination router; eject instead")
        half, agg_base, core_base = self.half, self._agg_base, self._core_base
        if router < agg_base:  # edge switch: always climb
            pod = router // half
            if agg_base <= dest_router < core_base \
                    and (dest_router - agg_base) // half == pod:
                port = half + (dest_router - agg_base) % half
            elif dest_router >= core_base:
                port = half + (dest_router - core_base) // half
            else:
                # any aggregation switch reaches; spread by destination index
                port = half + dest_router % half
        elif router < core_base:  # aggregation switch
            pod, i = divmod(router - agg_base, half)
            if dest_router < agg_base:  # edge destination
                if dest_router // half == pod:
                    port = dest_router % half
                else:
                    port = half + dest_router % half
            elif dest_router >= core_base:  # core destination
                ci, cj = divmod(dest_router - core_base, half)
                port = half + cj if ci == i else (dest_router - core_base) % half
            else:  # another aggregation switch
                dpod, di = divmod(dest_router - agg_base, half)
                if dpod == pod or di != i:
                    port = di  # descend; the edge below climbs straight back up
                else:
                    port = half + dpod % half
        else:  # core switch: descend into the destination's pod
            if dest_router >= core_base:
                port = 0  # re-climb from pod 0 (core switches are not adjacent)
            elif dest_router < agg_base:
                port = dest_router // half
            else:
                port = (dest_router - agg_base) // half
        self._min_port_cache[key] = port
        return port

    def minimal_hops(self, src_router: int, dest_router: int) -> int:
        key = src_router * self.num_routers + dest_router
        hops = self._min_hops_cache.get(key)
        if hops is None:
            hops = len(self.minimal_router_path(src_router, dest_router)) - 1
            self._min_hops_cache[key] = hops
        return hops

    # ----------------------------------------------------------- table layout
    def table_port_span(self) -> Tuple[int, int]:
        # One uniform span covering every port: edge host columns and the
        # layers' differing up/down splits share one dense table shape.
        return 0, self.k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FatTreeTopology(k={self.k}, pods={self.config.num_pods}, "
                f"routers={self.num_routers}, nodes={self.num_nodes})")
