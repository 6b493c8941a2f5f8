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

Both designs are held the same way: one ``values[router, row, col]`` float64
block for the whole system, column ``col`` being network port
``first_port + col``.  :func:`two_level_initial_values` and
:func:`qrouting_initial_values` build that block's initial values (the
uncongested minimal delivery time, Section 5.1) straight from the topology's
wiring arrays; the object graph learns in it
(:class:`repro.core.marl.TabularMarlRouting` owns it as ``routing.values``)
and the flat kernel copies it per run.  The row of a packet is
``dst_group * p + src_node_local`` for the two-level table and
``dst_router`` for Q-routing.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.topology.base import PortType, Topology
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import LinkTiming

#: initial value of table columns behind unconnected ports (mesh edges):
#: large enough never to win a minimum, finite so telemetry aggregates stay
#: well-defined.
UNREACHABLE_NS = 1e12

#: version of the table layout inside an ``export_state`` payload (recorded
#: as ``table_version``).  Bump when the layout of the value block changes
#: incompatibly.
TABLE_STATE_VERSION = 1


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
    "TABLE_STATE_VERSION",
    "qrouting_initial_values",
    "qtable_memory_comparison",
    "two_level_initial_values",
]
