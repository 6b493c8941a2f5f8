"""Q-tables: the original Q-routing table and the paper's two-level Q-table.

Both tables map a *row* (what the packet is) and a *column* (a candidate
output port) to an estimated delivery time in nanoseconds.  Columns cover the
topology's learned-table port span (``Topology.table_port_span``): on a
Dragonfly the ``k - p`` network ports of a router (local + global); host
ports never appear because a router only consults the table for packets that
still have to travel.

* The **original Q-routing table** (Table 2) has one row per destination
  *router*: ``m × (k - p)`` entries.
* The **two-level Q-table** (Table 3) has one row per *(destination group,
  source node index)* pair: ``(g · p) × (k - p)`` entries.  For a balanced
  Dragonfly (``a = 2p``) this is exactly half the rows — the 50 % memory
  saving claimed by the paper — and rows are shared by all destinations in a
  group, which keeps them fresh even for rarely used destinations.

Initial values (the uncongested minimal delivery time, Section 5.1) are
computed for the whole system at once — :func:`two_level_initial_values` and
:func:`qrouting_initial_values` return one ``[routers, rows, cols]`` block
straight from the topology's wiring arrays — and the routing algorithm makes
each router's table a view of its slice (see
:meth:`repro.core.marl.TabularMarlRouting._setup`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.topology.base import PortType, Topology
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import LinkTiming

#: initial value of table columns behind unconnected ports (mesh edges):
#: large enough never to win a minimum, finite so telemetry aggregates stay
#: well-defined.
UNREACHABLE_NS = 1e12


#: version of the ``state_dict`` payload of one table.  Bump when the layout
#: of the serialized state changes incompatibly.
TABLE_STATE_VERSION = 1


class _PortQTable:
    """Shared implementation: a dense (rows × network-ports) value table."""

    def __init__(self, num_rows: int, topo: Topology, value_bytes: int = 8) -> None:
        self.topo = topo
        self.first_port, self.num_ports = topo.table_port_span()
        self.num_rows = num_rows
        self.value_bytes = value_bytes
        self.values = np.zeros((num_rows, self.num_ports), dtype=np.float64)
        self.updates = 0

    # ------------------------------------------------------------ port <-> col
    def column_of_port(self, port: int) -> int:
        col = port - self.first_port
        if col < 0 or col >= self.num_ports:
            raise ValueError(f"port {port} has no Q-table column (host port?)")
        return col

    def port_of_column(self, col: int) -> int:
        if col < 0 or col >= self.num_ports:
            raise ValueError(f"column {col} out of range")
        return col + self.first_port

    # ------------------------------------------------------------------ access
    def value(self, row: int, port: int) -> float:
        # Per-hop hot path: ndarray.item() hands back a Python float directly,
        # skipping both the bounds helper and a numpy-scalar round trip.
        col = port - self.first_port
        if col < 0 or col >= self.num_ports:
            raise ValueError(f"port {port} has no Q-table column (host port?)")
        return self.values.item(row, col)

    def set_value(self, row: int, port: int, value: float) -> None:
        self.values[row, self.column_of_port(port)] = value

    def min_value(self, row: int) -> float:
        """Smallest estimated delivery time of the row (the row's Q_y)."""
        return self.values[row].min().item()

    def best_port(self, row: int, candidate_ports: Optional[Sequence[int]] = None
                  ) -> Tuple[int, float]:
        """Port with the smallest Q-value of ``row`` (restricted to ``candidate_ports``)."""
        row_values = self.values[row]
        if candidate_ports is None:
            col = int(row_values.argmin())
            return col + self.first_port, row_values.item(col)
        if len(candidate_ports) == 0:
            raise ValueError(
                "best_port needs at least one candidate port; an empty sequence "
                "would yield the bogus port -1 (pass None for all network ports)"
            )
        best_port = -1
        best_value = float("inf")
        first_port = self.first_port
        for port in candidate_ports:
            value = row_values.item(port - first_port)
            if value < best_value:
                best_value = value
                best_port = port
        return best_port, best_value

    def apply_delta(self, row: int, port: int, delta: float) -> None:
        """Add ``delta`` to one entry (used by the hysteretic update)."""
        self.values[row, self.column_of_port(port)] += delta
        self.updates += 1

    # ------------------------------------------------------------------ memory
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_ports)

    def memory_bytes(self) -> int:
        """Router memory needed to hold this table at ``value_bytes`` per entry."""
        return self.num_rows * self.num_ports * self.value_bytes

    def snapshot(self) -> np.ndarray:
        """Copy of the value matrix (for convergence diagnostics / tests)."""
        return self.values.copy()

    # ------------------------------------------------------------- persistence
    def state_dict(self) -> Dict:
        """Versioned, copy-safe serialization of the learned table state.

        The payload carries the table design (``kind``), its geometry, the
        full value matrix, and the update counter — everything needed to
        restore the table bit-for-bit with :meth:`load_state`.
        """
        return {
            "version": TABLE_STATE_VERSION,
            "kind": type(self).__name__,
            "num_rows": self.num_rows,
            "num_ports": self.num_ports,
            "first_port": self.first_port,
            "values": self.values.copy(),
            "updates": int(self.updates),
        }

    def load_state(self, state: Mapping) -> None:
        """Restore a :meth:`state_dict` payload, validating version and shape.

        Raises :class:`ValueError` with a descriptive message when the state
        was produced by an incompatible build, a different table design, or a
        different topology (shape mismatch) — a checkpoint must never be
        silently coerced into the wrong table.
        """
        version = state.get("version")
        if version != TABLE_STATE_VERSION:
            raise ValueError(
                f"Q-table state version {version!r} is not supported "
                f"(this build reads version {TABLE_STATE_VERSION})"
            )
        kind = state.get("kind")
        if kind != type(self).__name__:
            raise ValueError(
                f"cannot load {kind!r} state into a {type(self).__name__} "
                "(different table design)"
            )
        values = np.asarray(state["values"], dtype=np.float64)
        if values.shape != self.values.shape:
            raise ValueError(
                f"Q-table shape mismatch: state has {values.shape}, this table "
                f"expects {self.values.shape} — the checkpoint was trained on a "
                "different topology or table configuration"
            )
        first_port = int(state.get("first_port", self.first_port))
        if first_port != self.first_port:
            raise ValueError(
                f"Q-table port-offset mismatch: state maps columns from port "
                f"{first_port}, this table from port {self.first_port}"
            )
        self.values[:, :] = values
        self.updates = int(state.get("updates", 0))


class QRoutingTable(_PortQTable):
    """Original Q-routing table: one row per destination router (Table 2)."""

    def __init__(self, router_id: int, topo: Topology, value_bytes: int = 8) -> None:
        super().__init__(topo.num_routers, topo, value_bytes)
        self.router_id = router_id

    def row_for(self, dst_router: int) -> int:
        return dst_router

    def initialize_uncongested(self, timing: LinkTiming) -> None:
        """Fill this table with its slice of :func:`qrouting_initial_values`."""
        self.values[:, :] = qrouting_initial_values(self.topo, timing)[self.router_id]


class TwoLevelQTable(_PortQTable):
    """The paper's two-level Q-table: rows indexed by (destination group, source node)."""

    def __init__(self, router_id: int, topo: DragonflyTopology, value_bytes: int = 8) -> None:
        super().__init__(topo.g * topo.p, topo, value_bytes)
        self.router_id = router_id

    def row_for(self, dst_group: int, src_node_local: int) -> int:
        """Row of a packet generated on node-local index ``src_node_local`` heading
        to ``dst_group`` (``row = dst_group * p + src_node_local``)."""
        return dst_group * self.topo.p + src_node_local

    def initialize_uncongested(self, timing: LinkTiming) -> None:
        """Fill this table with its slice of :func:`two_level_initial_values`."""
        self.values[:, :] = two_level_initial_values(self.topo, timing)[self.router_id]


def two_level_initial_values(topo: DragonflyTopology, timing: LinkTiming) -> np.ndarray:
    """Initial two-level tables of every router: ``[routers, g·p, cols]`` float64.

    Section 5.1: "Q-values are initialized to the theoretical packet
    delivery time without any congestion through a minimal routing path" —
    entry by entry :func:`~repro.topology.paths.uncongested_delivery_time`,
    computed here for the whole system from the topology's wiring arrays.
    All ``p`` source-node rows of a destination group start identical; they
    diverge as learning differentiates per-source congestion.
    """
    first_port, _ = topo.table_port_span()
    eject = timing.hop_time(PortType.HOST)
    local = timing.hop_time(PortType.LOCAL)
    glob = timing.hop_time(PortType.GLOBAL)
    # min_time[router, group]: min_time_router_to_group for every pair.
    min_time = np.where(topo._global_port_to_group >= 0, glob + eject, local + glob + eject)
    min_time[np.arange(topo.num_routers), topo.router_groups()] = eject
    first = np.where(np.arange(first_port, topo.k) < topo.global_ports.start, local, glob)
    via = first[:, None] + min_time[topo._neighbor_router[:, first_port:]]  # [r, col, group]
    return np.repeat(via.transpose(0, 2, 1), topo.p, axis=1)


def qrouting_initial_values(topo: Topology, timing: LinkTiming) -> np.ndarray:
    """Initial Q-routing tables of every router: ``[routers, routers, cols]`` float64.

    Entry ``[r, dest, col]`` is the first hop through that port, plus the
    congestion-free minimal time from the neighbour to ``dest``, plus
    ejection.  The Dragonfly closed form accounts for the local/global link
    split; every other family uses the minimal-hop estimate (all
    router-to-router links share one latency class there).  Columns of
    unconnected ports start at :data:`UNREACHABLE_NS` so they never win.
    """
    first_port, num_ports = topo.table_port_span()
    m = topo.num_routers
    eject = timing.hop_time(PortType.HOST)
    local = timing.hop_time(PortType.LOCAL)
    neighbor = np.full((m, num_ports), -1, dtype=np.int64)
    first = np.zeros((m, num_ports))
    for router in range(m):
        for col in range(num_ports):
            pair = topo.neighbor_of(router, first_port + col)
            if pair is not None:
                neighbor[router, col] = pair[0]
                first[router, col] = timing.hop_time(topo.link_kind(router, first_port + col))
    # remaining[n, dest]: time from neighbour n until the packet reaches dest.
    if isinstance(topo, DragonflyTopology):
        glob = timing.hop_time(PortType.GLOBAL)
        groups = np.asarray(topo.router_groups())
        direct = topo._global_port_to_group[:, groups] >= 0
        at_gateway = topo._gateway_router[groups, groups[:, None]] == np.arange(m)
        remaining = (np.where(direct, 0.0, local) + glob) + np.where(at_gateway, 0.0, local)
        remaining[groups[:, None] == groups] = local
        np.fill_diagonal(remaining, 0.0)
    else:
        remaining = local * np.array(
            [[topo.minimal_hops(n, dest) for dest in range(m)] for n in range(m)]
        )
    values = first[:, :, None] + remaining[neighbor] + eject  # [r, col, dest]
    values[neighbor < 0] = UNREACHABLE_NS
    return np.ascontiguousarray(values.transpose(0, 2, 1))


def qtable_memory_comparison(config: DragonflyConfig, value_bytes: int = 8) -> Dict[str, float]:
    """Memory footprint of the two table designs for one router (Tables 2 vs 3).

    Returns per-router sizes in bytes plus the relative saving of the
    two-level design (0.5 for a balanced Dragonfly).
    """
    cols = config.radix - config.p
    original_rows = config.num_routers
    two_level_rows = config.num_groups * config.p
    original = original_rows * cols * value_bytes
    two_level = two_level_rows * cols * value_bytes
    return {
        "columns": cols,
        "original_rows": original_rows,
        "two_level_rows": two_level_rows,
        "original_bytes": original,
        "two_level_bytes": two_level,
        "saving_fraction": 1.0 - two_level / original,
        "system_original_bytes": original * config.num_routers,
        "system_two_level_bytes": two_level * config.num_routers,
    }


__all__ = [
    "QRoutingTable",
    "TABLE_STATE_VERSION",
    "TwoLevelQTable",
    "qrouting_initial_values",
    "qtable_memory_comparison",
    "two_level_initial_values",
]
