"""Per-replicate traffic traces: the wake-up stream, materialised.

The batched kernel replays traffic instead of re-deriving it: generation is
open-loop (the source queue absorbs congestion), so the traffic of a run is
a pure function of ``(spec, seed)``, defined once by
:func:`repro.traffic.generator.traffic_wakeups`.  :func:`record_traffic_trace`
collects that stream up to the run's horizon into two flat arrays per node,
wake-up times (``array('d')``) and destinations (``array('i')``), which the
kernel replays while allocating event sequence numbers at exactly the points
the object graph would.  Twelve bytes per wake-up, against about a hundred
for a list of boxed ``(time, destination)`` tuples.

Entries with ``destination == -1`` are generator wake-ups that produce no
packet (phase-boundary resamples, idle phases) but still allocate a
sequence number in the scalar event queue; the replay must preserve them or
same-time events would tie-break differently.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.engine.rng import RngFactory
from repro.traffic.generator import LoadSchedule, traffic_wakeups

if TYPE_CHECKING:  # typing only
    from repro.network.params import NetworkParams
    from repro.topology.base import Topology
    from repro.traffic.base import TrafficPattern

#: wake-ups recorded between two packings into the trace arrays
_CHUNK = 4096


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
    stream = traffic_wakeups(topo, params, pattern, RngFactory(seed), offered_load,
                             schedule, arrival)
    num_nodes = topo.num_nodes
    pending: List[Optional[float]] = [None] * num_nodes
    for time_ns, node in next(stream):
        pending[node] = time_ns
    # One flat stream in wake-up order, split per node below.  Wake-ups are
    # gathered in plain lists (an append costs a third of an array append)
    # and packed into the arrays one chunk at a time, so no more than
    # _CHUNK of them are ever boxed at once.
    flat_t: array[float] = array("d")
    flat_n: array[int] = array("i")
    flat_d: array[int] = array("i")
    chunk_t: List[float] = []
    chunk_n: List[int] = []
    chunk_d: List[int] = []
    t_append = chunk_t.append
    n_append = chunk_n.append
    d_append = chunk_d.append
    more = True
    while more:
        for time_ns, node, dst, next_ns in islice(stream, _CHUNK):
            if time_ns > until:
                more = False
                break
            t_append(time_ns)
            n_append(node)
            d_append(dst)
            pending[node] = next_ns
        else:
            more = len(chunk_t) == _CHUNK  # a short chunk: the stream ended
        flat_t.fromlist(chunk_t)
        flat_n.fromlist(chunk_n)
        flat_d.fromlist(chunk_d)
        del chunk_t[:], chunk_n[:], chunk_d[:]
    for node, time_ns in enumerate(pending):
        if time_ns is not None:
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
