"""Per-replicate traffic traces: the generator's decisions, precomputed.

The batched kernel replays traffic instead of re-deriving it: every traffic
pattern's ``destination()`` and the generator's arrival draws are pure
functions of ``(spec, seed)`` and independent of network backpressure
(generation is open-loop — the source queue absorbs congestion).  So
:func:`record_traffic_trace` runs the generator's schedule once per replicate
as one loop over a private heap, mirroring
:class:`~repro.traffic.generator.TrafficGenerator` draw for draw:
``start`` (one staggered first wake-up per node), ``_generate`` (one
destination and one interval per packet), ``_schedule_next`` (clamp at the
next phase boundary) and ``_resample`` (redraw at the boundary), with the
inter-arrival mean of ``_interval``.  The kernel replays the resulting
per-node ``(time, destination)`` schedule while allocating event sequence
numbers at exactly the points the scalar run would.
``tests/test_traffic_generator.py`` pins the loop against a recorder that
drives the real generator, entry for entry.

Entries with ``destination == -1`` are generator wake-ups that produce no
packet (phase-boundary resamples, zero-load phases) but still allocate a
sequence number in the scalar event queue; the replay must preserve them or
same-time events would tie-break differently.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.engine.rng import RngFactory
from repro.traffic.generator import LoadSchedule

if TYPE_CHECKING:  # typing only
    from repro.network.params import NetworkParams
    from repro.topology.base import Topology
    from repro.traffic.base import TrafficPattern

#: one generator wake-up of one node: (time_ns, destination node or -1).
TraceEntry = Tuple[float, int]

_INF = float("inf")


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

    Executes the generator's events exactly like ``Simulator.run(until)``
    would (events at ``until`` included); wake-ups scheduled past ``until``
    are appended as trailing ``(time, -1)`` entries because the scalar run
    pushes them (allocating a sequence number) even though they never execute.
    """
    if (offered_load is None) == (schedule is None):
        raise ValueError("specify exactly one of offered_load or schedule")
    if arrival not in ("exponential", "deterministic"):
        raise ValueError("arrival must be 'exponential' or 'deterministic'")
    deterministic = arrival == "deterministic"
    rng = RngFactory(seed)
    pattern.setup(topo, rng.py(f"traffic:{pattern.name}"))
    destination = pattern.destination
    arrivals = rng.py("traffic:arrivals")
    random = arrivals.random
    expovariate = arrivals.expovariate
    if schedule is None:
        schedule = LoadSchedule.constant(offered_load)
    # Phase cursor k = number of phases started by now: the load is
    # loads[k] (the first phase's load before it starts, as in
    # LoadSchedule.load_at) and the next boundary starts[k] (inf: none).
    phases = schedule.phases
    starts = [phase.start_ns for phase in phases] + [_INF]
    loads = [phases[0].load] + [phase.load for phase in phases]
    packet_ns = params.serialization_ns
    means = [packet_ns / load if load > 0.0 else _INF for load in loads]
    rates = [1.0 / mean for mean in means]
    k = 0
    while starts[k] <= 0.0:
        k += 1
    change, load, mean, rate = starts[k], loads[k], means[k], rates[k]

    # start(): one first wake-up per node, staggered by a fraction of one
    # interval; heap entries are (time, seq, node, is_resample).
    heap = []
    seq = 0
    for node in range(topo.num_nodes):
        if load <= 0.0:
            delay = _INF
        elif deterministic:
            delay = mean
        else:
            delay = expovariate(rate)
        if delay == _INF:
            if change == _INF:
                continue
            heap.append((change, seq, node, True))
        else:
            first = 0.0 + delay * random()
            if first > change:
                heap.append((change, seq, node, True))
            else:
                heap.append((first, seq, node, False))
        seq += 1
    heapify(heap)

    entries: List[List[TraceEntry]] = [[] for _ in range(topo.num_nodes)]
    while heap:
        time_ns, _, node, resample = heap[0]
        if time_ns > until:
            break
        if time_ns >= change:
            while starts[k] <= time_ns:
                k += 1
            change, load, mean, rate = starts[k], loads[k], means[k], rates[k]
        if resample:  # _resample(): discard the stale interval and redraw
            entries[node].append((time_ns, -1))
            if load <= 0.0:
                delay = _INF
            elif deterministic:
                delay = mean
                if delay != _INF:
                    delay *= random()
            else:
                delay = expovariate(rate)
        elif load > 0.0:  # _generate()
            entries[node].append((time_ns, destination(node)))
            delay = mean if deterministic else expovariate(rate)
        else:
            entries[node].append((time_ns, -1))
            delay = _INF
        # _schedule_next(): clamp at the next phase boundary.
        if delay == _INF:
            if change == _INF:
                heappop(heap)
                continue
            heapreplace(heap, (change, seq, node, True))
        elif time_ns + delay > change:
            heapreplace(heap, (change, seq, node, True))
        else:
            heapreplace(heap, (time_ns + delay, seq, node, False))
        seq += 1
    # Push-only leftovers: scheduled (seq allocated) but never executed.
    while heap:
        time_ns, _, node, _ = heappop(heap)
        entries[node].append((time_ns, -1))
    return entries
