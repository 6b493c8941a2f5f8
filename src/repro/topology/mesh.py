"""2D mesh / torus wiring with dimension-order (X-then-Y) minimal routing.

Routers form a ``rows x cols`` grid; router ``y * cols + x`` sits at grid
position ``(x, y)`` and attaches ``p`` compute nodes.  Radix is ``p + 4``:

* ports ``[0, p)`` are host ports;
* port ``p`` goes +X (east), ``p+1`` goes -X (west), ``p+2`` goes +Y
  (south, increasing row), ``p+3`` goes -Y (north).

On a mesh, boundary routers leave the outward-facing ports unconnected
(``neighbor_of`` -> ``None``); on a torus (``wrap=True``) the edges wrap
around.  Minimal routing is deterministic dimension-order routing: resolve X
first, then Y; the torus walks the shorter wrap direction and breaks ties
towards +X/+Y.  Dimension-order routing is deadlock-free on a mesh; on a
torus the simulator's hop-indexed VC escalation (a packet's VC index grows
with its hop count, see ``Router._route_head``) breaks wrap-around cycles
the same way dateline VC schemes do, because ``required_vcs`` covers the
diameter.

Groups are grid rows, which gives link-utilization probes and adversarial
traffic a natural per-row aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.scenarios.serialize import Codec, Number, _check_fields
from repro.topology.base import PortType, Topology

__all__ = ["MeshConfig", "MeshTopology"]


@dataclass(frozen=True)
class MeshConfig(Codec):
    """Immutable 2D mesh/torus size description.

    ``rows`` x ``cols`` routers with ``p`` hosts each; ``wrap=True`` turns
    the mesh into a torus.
    """

    rows: int
    cols: int
    p: int
    wrap: bool = False

    _NUMBERS = {"rows": Number(int, 1), "cols": Number(int, 1), "p": Number(int, 1)}

    def __post_init__(self) -> None:
        _check_fields(self)
        if not isinstance(self.wrap, bool):
            raise ValueError(f"mesh parameter 'wrap' must be a bool, got {self.wrap!r}")
        if self.rows * self.cols < 2:
            raise ValueError("a mesh needs at least two routers")

    # ------------------------------------------------------------ derived sizes
    @property
    def num_routers(self) -> int:
        return self.rows * self.cols

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self.p

    @property
    def radix(self) -> int:
        return self.p + 4

    @property
    def diameter(self) -> int:
        if self.wrap:
            return max(1, self.rows // 2 + self.cols // 2)
        return (self.rows - 1) + (self.cols - 1)

    def describe(self) -> dict:
        return {
            "N": self.num_nodes,
            "rows": self.rows,
            "cols": self.cols,
            "p": self.p,
            "wrap": self.wrap,
        }

    # ------------------------------------------------------------------ presets
    @classmethod
    def tiny(cls) -> "MeshConfig":
        """4x4 mesh with 1 host per router: 16 nodes."""
        return cls(rows=4, cols=4, p=1)

    @classmethod
    def small_72(cls) -> "MeshConfig":
        """6x6 mesh with 2 hosts per router: 72 nodes, like Dragonfly small_72."""
        return cls(rows=6, cols=6, p=2)

    @classmethod
    def small_72_torus(cls) -> "MeshConfig":
        """6x6 torus with 2 hosts per router: 72 nodes."""
        return cls(rows=6, cols=6, p=2, wrap=True)


class MeshTopology(Topology):
    """Connectivity of a 2D mesh/torus described by a :class:`MeshConfig`."""

    family = "mesh"

    _instances: dict = {}

    @classmethod
    def for_config(cls, config: MeshConfig) -> "MeshTopology":
        """Shared topology instance for ``config`` (see
        :meth:`DragonflyTopology.for_config` for the rationale)."""
        topo = cls._instances.get(config)
        if topo is None:
            topo = cls(config)
            cls._instances[config] = topo
        return topo

    def __init__(self, config: MeshConfig) -> None:
        self.config = config
        self.rows = config.rows
        self.cols = config.cols
        self.p = config.p
        self.wrap = config.wrap
        self.k = config.radix
        self.num_routers = config.num_routers
        self.num_nodes = config.num_nodes
        self.g = config.rows  # groups are grid rows
        self.diameter = config.diameter
        self._build_tables()

    # ------------------------------------------------------------------ build
    def _build_tables(self) -> None:
        p, rows, cols, wrap = self.p, self.rows, self.cols, self.wrap
        pairs: List[List[Optional[Tuple[int, int]]]] = []
        network_ports: List[List[int]] = []
        for router in range(self.num_routers):
            y, x = divmod(router, cols)
            row: List[Optional[Tuple[int, int]]] = [None] * self.k
            # +X / -X; wrap links only exist with >= 2 columns (a
            # single-column torus would connect a router to itself).
            if x + 1 < cols:
                row[p] = (router + 1, p + 1)
            elif wrap and cols > 1:
                row[p] = (y * cols, p + 1)
            if x > 0:
                row[p + 1] = (router - 1, p)
            elif wrap and cols > 1:
                row[p + 1] = (y * cols + cols - 1, p)
            # +Y / -Y
            if y + 1 < rows:
                row[p + 2] = (router + cols, p + 3)
            elif wrap and rows > 1:
                row[p + 2] = (x, p + 3)
            if y > 0:
                row[p + 3] = (router - cols, p + 2)
            elif wrap and rows > 1:
                row[p + 3] = ((rows - 1) * cols + x, p + 2)
            pairs.append(row)
            network_ports.append(
                [port for port in range(p, p + 4) if row[port] is not None]
            )
        self._neighbor_pairs = pairs
        self._network_ports = network_ports

    # ------------------------------------------------------------- id mapping
    def router_of_node(self, node: int) -> int:
        self._check_node(node)
        return node // self.p

    def node_local_index(self, node: int) -> int:
        self._check_node(node)
        return node % self.p

    def host_port_of_node(self, node: int) -> int:
        return self.node_local_index(node)

    def node_at(self, router: int, host_port: int) -> int:
        self._check_router(router)
        if not 0 <= host_port < self.p:
            raise ValueError(
                f"(router {router}, port {host_port}) is not a host attachment point"
            )
        return router * self.p + host_port

    def nodes_of_router(self, router: int) -> range:
        self._check_router(router)
        return range(router * self.p, (router + 1) * self.p)

    def group_of_router(self, router: int) -> int:
        self._check_router(router)
        return router // self.cols

    def nodes_in_group(self, group: int) -> range:
        self._check_group(group)
        per_row = self.cols * self.p
        return range(group * per_row, (group + 1) * per_row)

    # ------------------------------------------------------------------ ports
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
        return self._network_ports[router]

    def link_kind(self, router: int, port: int) -> PortType:
        self._check_router(router)
        if port < 0 or port >= self.k:
            raise ValueError(f"port {port} out of range for radix {self.k}")
        return PortType.HOST if port < self.p else PortType.LOCAL

    def neighbor_of(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        self._check_router(router)
        return self._neighbor_pairs[router][port]

    # -------------------------------------------------------- minimal routing
    def _axis_step(self, frm: int, to: int, length: int) -> int:
        """-1, 0 or +1: direction of the minimal move along one axis."""
        if frm == to:
            return 0
        if not self.wrap:
            return 1 if to > frm else -1
        forward = (to - frm) % length
        backward = (frm - to) % length
        return 1 if forward <= backward else -1  # tie breaks towards +

    def minimal_next_port(self, router: int, dest_router: int) -> int:
        self._check_router(router)
        self._check_router(dest_router)
        if router == dest_router:
            raise ValueError("already at the destination router; eject instead")
        y, x = divmod(router, self.cols)
        dy, dx = divmod(dest_router, self.cols)
        step = self._axis_step(x, dx, self.cols)
        if step:  # dimension order: resolve X first
            return self.p if step > 0 else self.p + 1
        step = self._axis_step(y, dy, self.rows)
        return self.p + 2 if step > 0 else self.p + 3

    def _axis_hops(self, frm: int, to: int, length: int) -> int:
        delta = abs(to - frm)
        if self.wrap:
            return min(delta, length - delta)
        return delta

    def minimal_hops(self, src_router: int, dest_router: int) -> int:
        self._check_router(src_router)
        self._check_router(dest_router)
        sy, sx = divmod(src_router, self.cols)
        dy, dx = divmod(dest_router, self.cols)
        return self._axis_hops(sx, dx, self.cols) + self._axis_hops(sy, dy, self.rows)

    # ----------------------------------------------------------- table layout
    def table_port_span(self) -> Tuple[int, int]:
        return self.p, 4

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "torus" if self.wrap else "mesh"
        return (f"MeshTopology({self.rows}x{self.cols} {kind}, p={self.p}, "
                f"routers={self.num_routers}, nodes={self.num_nodes})")
