"""Path construction and congestion-free timing estimates.

These helpers are pure functions of the topology: they build the router
sequences of minimal, Valiant-global (VALg) and Valiant-node (VALn) paths and
estimate the delivery time of an uncongested packet along them.  The timing
estimates define what Q-adaptive initialises its Q-tables to (Section 5.1 of
the paper: "Q-values are initialized to the theoretical packet delivery time
without any congestion through a minimal routing path");
:mod:`repro.core.qtable` computes the same values for whole tables at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.topology.dragonfly import DragonflyTopology, PortType


def _memo(topo: DragonflyTopology) -> Dict:
    """Per-topology memo table shared by every helper in this module.

    Stored on the topology instance so it lives exactly as long as the wiring
    it caches, and so sharing a topology across networks (see
    :meth:`DragonflyTopology.for_config`) shares the memoized answers too.
    The route and path-time helpers are pure functions of (topology,
    arguments), which makes the memoization value-transparent.
    """
    memo = getattr(topo, "_paths_memo", None)
    if memo is None:
        memo = {}
        topo._paths_memo = memo
    return memo


@dataclass(frozen=True)
class LinkTiming:
    """Per-hop timing constants (nanoseconds) used by path-time estimates.

    Attributes
    ----------
    serialization_ns:
        Time to push one packet onto any link (packet size / bandwidth).
    local_latency_ns, global_latency_ns, host_latency_ns:
        Propagation latency of local, global and host links.
    """

    serialization_ns: float = 32.0
    local_latency_ns: float = 30.0
    global_latency_ns: float = 300.0
    host_latency_ns: float = 10.0

    def hop_time(self, port_type: PortType) -> float:
        """Serialization plus propagation time for one hop over ``port_type``."""
        if port_type is PortType.LOCAL:
            return self.serialization_ns + self.local_latency_ns
        if port_type is PortType.GLOBAL:
            return self.serialization_ns + self.global_latency_ns
        return self.serialization_ns + self.host_latency_ns


# --------------------------------------------------------------------- routes
def minimal_route(topo: DragonflyTopology, src_router: int, dest_router: int) -> List[int]:
    """Router sequence (both ends included) of the minimal path."""
    return topo.minimal_router_path(src_router, dest_router)


def minimal_router_hops(topo: DragonflyTopology, src_router: int, dest_router: int) -> int:
    """Number of router-to-router hops on the minimal path (0 to 3)."""
    return topo.minimal_hops(src_router, dest_router)


def valiant_global_route(
    topo: DragonflyTopology, src_router: int, dest_router: int, intermediate_group: int
) -> List[int]:
    """Router sequence of a VALg path through ``intermediate_group``.

    The packet travels minimally from the source router to the router of the
    intermediate group that terminates the incoming global link, then
    minimally onwards to the destination.  If the intermediate group equals
    the source or destination group the path degenerates to the minimal path.
    """
    key = ("valg", src_router, dest_router, intermediate_group)
    memo = _memo(topo)
    route = memo.get(key)
    if route is None:
        src_group = topo.group_of_router(src_router)
        dst_group = topo.group_of_router(dest_router)
        if intermediate_group in (src_group, dst_group):
            route = minimal_route(topo, src_router, dest_router)
        else:
            entry_router = topo.gateway_router(intermediate_group, src_group)
            first_leg = topo.minimal_router_path(src_router, entry_router)
            second_leg = topo.minimal_router_path(entry_router, dest_router)
            route = first_leg + second_leg[1:]
        memo[key] = route
    return list(route)


def valiant_node_route(
    topo: DragonflyTopology, src_router: int, dest_router: int, intermediate_router: int
) -> List[int]:
    """Router sequence of a VALn path through a specific ``intermediate_router``.

    VALn forwards minimally to the *chosen router* of the intermediate group
    (one extra local hop inside that group compared with VALg), which removes
    the intermediate-group local-link bottleneck of adversarial patterns.
    """
    key = ("valn", src_router, dest_router, intermediate_router)
    memo = _memo(topo)
    route = memo.get(key)
    if route is None:
        src_group = topo.group_of_router(src_router)
        dst_group = topo.group_of_router(dest_router)
        imd_group = topo.group_of_router(intermediate_router)
        if imd_group in (src_group, dst_group):
            route = minimal_route(topo, src_router, dest_router)
        else:
            first_leg = topo.minimal_router_path(src_router, intermediate_router)
            second_leg = topo.minimal_router_path(intermediate_router, dest_router)
            route = first_leg + second_leg[1:]
        memo[key] = route
    return list(route)


def route_ports(topo: DragonflyTopology, router_path: List[int]) -> List[Tuple[int, int]]:
    """Convert a router sequence into ``(router, output_port)`` pairs.

    The final router is omitted (its output port is the ejection host port,
    which depends on the destination node rather than the router path).
    """
    pairs: List[Tuple[int, int]] = []
    for current, nxt in zip(router_path[:-1], router_path[1:], strict=False):
        src_group = topo.group_of_router(current)
        dst_group = topo.group_of_router(nxt)
        if src_group == dst_group:
            port = topo.local_port_to(current, nxt)
        else:
            port = topo.global_port_to_group(current, dst_group)
            if port is None or topo.neighbor_of(current, port)[0] != nxt:
                raise ValueError(f"routers {current} and {nxt} are not directly connected")
        pairs.append((current, port))
    return pairs


# --------------------------------------------------------------------- timing
def path_time(topo: DragonflyTopology, router_path: List[int], timing: LinkTiming) -> float:
    """Congestion-free traversal time of ``router_path`` plus final ejection."""
    key = ("ptime", tuple(router_path), timing)
    memo = _memo(topo)
    total = memo.get(key)
    if total is None:
        total = 0.0
        for _current, out_port in route_ports(topo, router_path):
            total += timing.hop_time(topo.port_type(out_port))
        total += timing.hop_time(PortType.HOST)  # ejection to the destination node
        memo[key] = total
    return total


def min_time_router_to_group(
    topo: DragonflyTopology, router: int, dest_group: int, timing: LinkTiming
) -> float:
    """Congestion-free time from ``router`` until delivery inside ``dest_group``.

    The packet is assumed to eject at the first router it reaches inside the
    destination group; this is the optimistic estimate used for Q-value
    initialisation (per-destination-router detail is below the granularity of
    the two-level Q-table).
    """
    eject = timing.hop_time(PortType.HOST)
    if topo.group_of_router(router) == dest_group:
        return eject
    if topo.global_port_to_group(router, dest_group) is not None:
        return timing.hop_time(PortType.GLOBAL) + eject
    return timing.hop_time(PortType.LOCAL) + timing.hop_time(PortType.GLOBAL) + eject


def uncongested_delivery_time(
    topo: DragonflyTopology, router: int, out_port: int, dest_group: int, timing: LinkTiming
) -> float:
    """Congestion-free delivery time from ``router`` via ``out_port`` to ``dest_group``.

    This is the initial Q-value of entry ``(dest_group, out_port)``: traverse
    the link behind ``out_port`` and continue minimally from the neighbour.
    Host ports are invalid here (Q-tables only cover network ports).  It is
    the per-entry reference of :func:`repro.core.qtable.two_level_initial_values`,
    which fills whole tables without calling it.
    """
    port_type = topo.port_type(out_port)
    if port_type is PortType.HOST:
        raise ValueError("uncongested_delivery_time is undefined for host ports")
    neighbor = topo.neighbor_of(router, out_port)
    assert neighbor is not None
    return timing.hop_time(port_type) + min_time_router_to_group(
        topo, neighbor[0], dest_group, timing
    )


def minimal_delivery_time(
    topo: DragonflyTopology, src_router: int, dest_router: int, timing: LinkTiming
) -> float:
    """Congestion-free delivery time along the exact minimal path (incl. ejection)."""
    key = ("mindeliv", src_router, dest_router, timing)
    memo = _memo(topo)
    total = memo.get(key)
    if total is None:
        total = path_time(topo, minimal_route(topo, src_router, dest_router), timing)
        memo[key] = total
    return total
