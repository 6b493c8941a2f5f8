"""Per-replicate traffic traces: the wake-up stream, materialised.

The batched kernel replays traffic instead of re-deriving it: generation is
open-loop (the source queue absorbs congestion), so the traffic of a run is
a pure function of ``(spec, seed)``, and its draw order is spelled once, in
the chunked :class:`repro.traffic.generator.WakeupRecorder` that the object
graph replays as well.  :func:`record_traffic_trace` runs that recorder to
the run's horizon and keeps two flat arrays per node, wake-up times
(``array('d')``) and destinations (``array('i')``), which the kernel replays
while allocating event sequence numbers at exactly the points the object
graph would.  Twelve bytes per wake-up, against about a hundred for a list
of boxed ``(time, destination)`` tuples; each chunk is packed as soon as it
is recorded, so about one chunk is ever boxed.

Entries with ``destination == -1`` are generator wake-ups that produce no
packet (phase-boundary resamples, idle phases) but still allocate a
sequence number in the scalar event queue; the replay must preserve them or
same-time events would tie-break differently.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.engine.rng import RngFactory
from repro.traffic.generator import LoadSchedule, WakeupRecorder

if TYPE_CHECKING:  # typing only
    from repro.network.params import NetworkParams
    from repro.topology.base import Topology
    from repro.traffic.base import TrafficPattern


def record_traffic_trace(
    topo: "Topology",
    params: "NetworkParams",
    pattern: "TrafficPattern",
    seed: int,
    offered_load: Optional[float],
    schedule: Optional[LoadSchedule],
    arrival: str,
    until: float,
) -> Tuple[List[array[float]], List[array[int]]]:
    """Record every generator wake-up of one replicate as per-node arrays.

    Returns ``(times, dsts)``: ``times[node][j]`` is the node's ``j``-th
    wake-up time and ``dsts[node][j]`` its destination, or -1.  Takes the
    wake-ups ``Simulator.run(until)`` would execute (events at ``until``
    included); each node's wake-up still pending after ``until`` is appended
    as a trailing ``(time, -1)`` entry because the scalar run pushes it
    (allocating a sequence number) even though it never executes.
    """
    recorder = WakeupRecorder(topo, params, pattern, RngFactory(seed), offered_load,
                              schedule, arrival)
    recorder.start()
    num_nodes = topo.num_nodes
    # One flat stream in wake-up order, split per node below.
    flat_t: array[float] = array("d")
    flat_n: array[int] = array("i")
    flat_d: array[int] = array("i")
    while True:
        times, nodes, dsts, _ = recorder.record(until)
        if not times:
            break
        flat_t.fromlist(times)
        flat_n.frombytes(nodes.tobytes())
        flat_d.frombytes(dsts.tobytes())
    for time_ns, node in recorder.pending():
        flat_t.append(time_ns)
        flat_n.append(node)
        flat_d.append(-1)
    nodes = np.frombuffer(flat_n, dtype=np.intc)
    # A stable sort keeps each node's entries in order; numpy sorts 16-bit
    # keys by radix, eight times faster than 32-bit ones.
    key = nodes.astype(np.uint16) if num_nodes <= 1 << 16 else nodes
    order = np.argsort(key, kind="stable")
    all_t: array[float] = array("d", np.frombuffer(flat_t)[order].tobytes())
    all_d: array[int] = array("i", np.frombuffer(flat_d, dtype=np.intc)[order].tobytes())
    ends = np.cumsum(np.bincount(nodes, minlength=num_nodes)).tolist()
    starts = [0] + ends[:-1]
    return ([all_t[start:end] for start, end in zip(starts, ends)],
            [all_d[start:end] for start, end in zip(starts, ends)])
