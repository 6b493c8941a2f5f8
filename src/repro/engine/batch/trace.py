"""Per-replicate traffic traces: the wake-up stream, materialised.

The batched kernel replays traffic instead of re-deriving it: generation is
open-loop (the source queue absorbs congestion), so the traffic of a run is
a pure function of ``(spec, seed)``, defined once by
:func:`repro.traffic.generator.traffic_wakeups`.  :func:`record_traffic_trace`
collects that stream up to the run's horizon into per-node
``(time, destination)`` lists, which the kernel replays while allocating
event sequence numbers at exactly the points the object graph would.

Entries with ``destination == -1`` are generator wake-ups that produce no
packet (phase-boundary resamples, idle phases) but still allocate a
sequence number in the scalar event queue; the replay must preserve them or
same-time events would tie-break differently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.engine.rng import RngFactory
from repro.traffic.generator import LoadSchedule, traffic_wakeups

if TYPE_CHECKING:  # typing only
    from repro.network.params import NetworkParams
    from repro.topology.base import Topology
    from repro.traffic.base import TrafficPattern

#: one generator wake-up of one node: (time_ns, destination node or -1).
TraceEntry = Tuple[float, int]


def record_traffic_trace(
    topo: "Topology",
    params: "NetworkParams",
    pattern: "TrafficPattern",
    seed: int,
    offered_load: Optional[float],
    schedule: Optional[LoadSchedule],
    arrival: str,
    until: float,
) -> List[List[TraceEntry]]:
    """Record every generator wake-up of one replicate as per-node entry lists.

    Takes the wake-ups ``Simulator.run(until)`` would execute (events at
    ``until`` included); each node's wake-up still pending after ``until`` is
    appended as a trailing ``(time, -1)`` entry because the scalar run pushes
    it (allocating a sequence number) even though it never executes.
    """
    stream = traffic_wakeups(topo, params, pattern, RngFactory(seed), offered_load,
                             schedule, arrival)
    pending: List[Optional[float]] = [None] * topo.num_nodes
    for time_ns, node in next(stream):
        pending[node] = time_ns
    entries: List[List[TraceEntry]] = [[] for _ in range(topo.num_nodes)]
    for time_ns, node, dst, next_ns in stream:
        if time_ns > until:
            break
        entries[node].append((time_ns, dst))
        pending[node] = next_ns
    for node, time_ns in enumerate(pending):
        if time_ns is not None:
            entries[node].append((time_ns, -1))
    return entries
