"""Open-loop workload driver: converts *offered load* into message injections.

Offered load is defined as in the paper: the ratio between the per-node
message generation rate and the node injection bandwidth, so a load of 1.0
means every node generates one packet per packet-serialization time
(``packet_bytes / bandwidth`` — 32 ns for the default parameters).  Messages
are single packets; generation is open-loop (the source queue absorbs
backpressure), which is the standard throughput/latency evaluation
methodology the paper uses.  A piecewise-constant :class:`LoadSchedule`
reproduces the dynamic-load experiment of Figure 8.

Being open-loop, the traffic of a run is a pure function of ``(spec, seed)``,
and its draw order is spelled once, in the chunked :class:`WakeupRecorder`.
The flat kernel runs it to the horizon
(:func:`repro.engine.batch.trace.record_traffic_trace`); the object graph
replays it on its event queue (:class:`TrafficGenerator`), recording each
chunk only when the run reaches it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # typing only: the harness hands us the built network
    from repro.engine.rng import RngFactory
    from repro.network.network import Network
    from repro.network.params import NetworkParams
    from repro.topology.base import Topology

from repro.engine.rng import bulk_random, complement_logs
from repro.scenarios.serialize import FRACTION, NON_NEGATIVE, Codec, Form, tuple_of
from repro.traffic.base import TrafficPattern

_INF = float("inf")


@dataclass(frozen=True)
class LoadPhase(Codec):
    """One piece of a piecewise-constant load schedule, written as the row
    ``[start_ns, load]``."""

    start_ns: float
    load: float

    _NUMBERS = {"start_ns": NON_NEGATIVE, "load": FRACTION}  # a load of 0 idles the phase
    _FORM = Form(row=True)


@dataclass(frozen=True)
class LoadSchedule(Codec):
    """Piecewise-constant offered load over time: phases sorted by start,
    each given as a :class:`LoadPhase` or a ``(start_ns, load)`` pair.  No
    phase starts before 0 and no two at the same time, so every start time
    has one load."""

    phases: Tuple[LoadPhase, ...]

    def __post_init__(self) -> None:
        phases = tuple_of(LoadPhase, self.phases, "LoadSchedule.phases")
        if not phases:
            raise ValueError("a load schedule needs at least one phase")
        order = sorted(range(len(phases)), key=lambda index: phases[index].start_ns)
        for first, second in zip(order, order[1:]):  # a stable sort: first < second
            if phases[first].start_ns == phases[second].start_ns:
                raise ValueError(
                    f"LoadSchedule.phases[{second}]: start_ns must differ from "
                    f"phases[{first}]'s (one load per start time), "
                    f"got {phases[second].start_ns!r}")
        object.__setattr__(self, "phases", tuple(phases[index] for index in order))

    @classmethod
    def constant(cls, load: float) -> "LoadSchedule":
        return cls([(0.0, load)])

    @classmethod
    def step(cls, initial_load: float, step_time_ns: float, new_load: float) -> "LoadSchedule":
        """Figure 8 style schedule: one load change at ``step_time_ns``."""
        return cls([(0.0, initial_load), (step_time_ns, new_load)])

    def __repr__(self) -> str:
        steps = ", ".join(f"{p.load}@{p.start_ns}ns" for p in self.phases)
        return f"<LoadSchedule {steps}>"


def check_arrival(arrival: str) -> None:
    """Refuse an inter-arrival law other than ``exponential`` (Poisson
    arrivals) or ``deterministic`` (fixed gaps)."""
    if arrival not in ("exponential", "deterministic"):
        raise ValueError(
            f"arrival must be 'exponential' or 'deterministic', got {arrival!r}")


#: wake-ups per chunk once a run is under way; the first chunk holds
#: _FIRST_CHUNK and each later one twice the last, so a short run draws few
#: values past its end and about one chunk of them is ever boxed at a time
_CHUNK = 4096
_FIRST_CHUNK = 256
_NO_NODES = np.empty(0, dtype=np.intc)
_MAX_FLOAT = sys.float_info.max


class WakeupRecorder:
    """Every generator wake-up of one run, in event-queue order, one chunk at
    a time: the one definition of a run's traffic.

    :meth:`start` draws each node's first wake-up (two uniforms per node when
    arrivals are exponential, one when deterministic, none in an idle phase)
    and returns the initial ``(time_ns, node)`` pushes in node order; each
    :meth:`record` call then merges the next chunk of executed wake-ups.  The
    merge keeps one heap entry ``(time, push order, code)`` per live node,
    ``code`` being the node for a packet wake-up and ``~node`` for a resample,
    and pushes each wake-up's successor as it executes, which reproduces the
    event queue's ``(time, push order)`` sequence.  Arguments are checked and
    the pattern set up on construction.

    After the start-up draws, draws are taken in bulk
    (:mod:`repro.engine.rng`): the interval draws of ``traffic:arrivals`` up
    to one chunk ahead, one per wake-up that is not idle (exponential) or one
    per resample (deterministic), and the destinations after each chunk's
    merge, through :meth:`TrafficPattern.destinations` on the pattern's own
    stream, in wake-up order.  Both are exactly the draws of one scalar call
    per event.
    """

    def __init__(self, topo: "Topology", params: "NetworkParams", pattern: TrafficPattern,
                 rng: "RngFactory", offered_load: Optional[float],
                 schedule: Optional[LoadSchedule], arrival: str) -> None:
        if (offered_load is None) == (schedule is None):
            raise ValueError("specify exactly one of offered_load or schedule")
        check_arrival(arrival)  # TrafficGenerator is public: not every caller has a spec
        phases = (LoadPhase(0.0, offered_load),) if schedule is None else schedule.phases
        pattern.setup(topo, rng.py(f"traffic:{pattern.name}"))
        self._pattern = pattern
        self._arrivals = rng.py("traffic:arrivals")
        self._num_nodes = topo.num_nodes
        self._deterministic = arrival == "deterministic"
        # Phase cursor k = number of phases started by now: the mean interval
        # is means[k] (the first phase's before it starts) and the next
        # boundary starts[k] (inf: none).  A mean of inf — a zero load, or one
        # so small that the division overflows — is an idle phase.
        self._starts = [phase.start_ns for phase in phases] + [_INF]
        loads = [phases[0].load] + [phase.load for phase in phases]
        self._means = [params.serialization_ns / load if load > 0.0 else _INF
                       for load in loads]
        self._rates = [1.0 / mean for mean in self._means]
        self._k = 0
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0
        #: interval draws not consumed yet: log(1 - u) (exponential) or u
        self._draws: List[float] = []
        self._size = _FIRST_CHUNK

    def start(self) -> List[Tuple[float, int]]:
        """Draw every node's first wake-up; the ``(time_ns, node)`` pushes in
        node order.

        One first wake-up per node, staggered by a fraction of one interval
        so sources start de-synchronised; an idle node first wakes at the next
        boundary.
        """
        starts, arrivals = self._starts, self._arrivals
        k = 0
        while starts[k] <= 0.0:
            k += 1
        self._k = k
        change, mean, rate = starts[k], self._means[k], self._rates[k]
        # Scalar draws: for a few per node they cost less than the first use
        # of numpy's ufuncs in a fresh process.
        deterministic = self._deterministic
        heap = self._heap
        seq = 0
        for node in range(self._num_nodes):
            delay = mean if mean == _INF or deterministic else arrivals.expovariate(rate)
            first = _INF if delay == _INF else delay * arrivals.random()
            if first > change:
                heap.append((change, seq, ~node))
            elif first != _INF:
                heap.append((first, seq, node))
            else:
                continue  # idle for good
            seq += 1
        self._seq = seq
        pushes = self.pending()
        heapify(heap)
        return pushes

    def pending(self) -> List[Tuple[float, int]]:
        """Each live node's next wake-up, ``(time_ns, node)``."""
        return [(time_ns, code if code >= 0 else ~code) for time_ns, _, code in self._heap]

    def record(self, until: float = _INF) -> Tuple[List[float], np.ndarray, np.ndarray,
                                                   List[Optional[float]]]:
        """Merge the next chunk of wake-ups, those at or before ``until``.

        Returns ``(times, nodes, dsts, nexts)``: per wake-up its time, node,
        destination (-1: no packet — a phase-boundary resample or an idle
        phase) and the node's next wake-up time (None: idle for good).  An
        empty chunk means no wake-up is left up to ``until``.
        """
        heap = self._heap
        times: List[float] = []
        codes: List[int] = []
        nexts: List[Optional[float]] = []
        stop_after = math.nextafter(until, _INF)
        if not heap or heap[0][0] >= stop_after:
            return times, _NO_NODES, _NO_NODES, nexts
        size = self._size
        self._size = min(2 * size, _CHUNK)
        # At most one draw per wake-up: draw enough for the whole chunk.
        draws = self._draws
        if len(draws) < size:
            fresh = bulk_random(self._arrivals, size - len(draws))
            draws += fresh.tolist() if self._deterministic else complement_logs(fresh)
        t_append, c_append, n_append = times.append, codes.append, nexts.append
        starts, means, rates = self._starts, self._means, self._rates
        k, seq, used = self._k, self._seq, 0
        count = 0
        while count < size and heap:
            time_ns = heap[0][0]
            if time_ns >= stop_after:
                break
            while starts[k] <= time_ns:
                k += 1
            change, mean, rate = starts[k], means[k], rates[k]
            stop = min(change, stop_after)
            # An interval is only valid while its load lasts: one reaching
            # past the next boundary wakes the node at the boundary instead
            # (a resample), so a load step takes effect at once (Figure 8
            # depends on it).  At a resample the stale interval is discarded
            # and redrawn; deterministic sources re-stagger there, or every
            # node clamped at the boundary would inject in lockstep.
            if mean == _INF:
                for _ in range(size - count):
                    if not heap:
                        break
                    time_ns, _, code = heap[0]
                    if time_ns >= stop:
                        break
                    node = code if code >= 0 else ~code
                    t_append(time_ns)
                    c_append(~node)
                    if change == _INF:
                        heappop(heap)
                        n_append(None)
                    else:
                        heapreplace(heap, (change, seq, ~node))
                        seq += 1
                        n_append(change)
            elif self._deterministic:
                for _ in range(size - count):
                    time_ns, _, code = heap[0]
                    if time_ns >= stop:
                        break
                    t_append(time_ns)
                    c_append(code)
                    if code >= 0:
                        next_ns = time_ns + mean
                    else:
                        code = ~code
                        next_ns = time_ns + mean * draws[used]
                        used += 1
                    if next_ns > change:
                        next_ns, code = change, ~code
                    heapreplace(heap, (next_ns, seq, code))
                    seq += 1
                    n_append(next_ns)
            else:
                # Only an overflowing interval (a sub-normal rate) passes
                # `clamp` when no boundary is left: the node is idle for good.
                ends = change == _INF
                clamp = _MAX_FLOAT if ends else change
                for _ in range(size - count):
                    time_ns, _, code = heap[0]
                    if time_ns >= stop:
                        break
                    t_append(time_ns)
                    c_append(code)
                    if code < 0:
                        code = ~code
                    next_ns = time_ns - draws[used] / rate
                    used += 1
                    if next_ns > clamp:
                        if ends:
                            heappop(heap)
                            n_append(None)
                            continue
                        next_ns, code = change, ~code
                    heapreplace(heap, (next_ns, seq, code))
                    seq += 1
                    n_append(next_ns)
            count = len(times)
        self._k, self._seq = k, seq
        del draws[:used]
        wake = np.array(codes, dtype=np.intc)
        packet = wake >= 0
        dsts = np.full(count, -1, dtype=np.intc)
        if packet.any():
            dsts[packet] = self._pattern.destinations(wake[packet])
        return times, np.where(packet, wake, ~wake), dsts, nexts


class TrafficGenerator:
    """Replays a :class:`WakeupRecorder` on a network's event queue.

    Each wake-up is one event: it takes the next wake-up of the recorded
    chunk, injects a packet when it has a destination and schedules the
    node's next wake-up.  A chunk is recorded only when the run reaches it.
    """

    def __init__(self, network: "Network", pattern: TrafficPattern,
                 offered_load: Optional[float] = None,
                 schedule: Optional[LoadSchedule] = None,
                 arrival: str = "exponential") -> None:
        self._recorder = WakeupRecorder(network.topo, network.params, pattern, network.rng,
                                        offered_load, schedule, arrival)
        self._push = network.sim.push
        self.network = network
        self.generated = 0
        # The recorded chunk being replayed, and the cursor into it.
        self._times: List[float] = []
        self._dsts: List[int] = []
        self._nexts: List[Optional[float]] = []
        self._i = 0
        network.collector.offered_load = (
            float(offered_load) if schedule is None else schedule.phases[0].load
        )

    def start(self) -> None:
        """Schedule the first wake-up of every node."""
        at = self.network.sim.at
        for time_ns, node in self._recorder.start():
            at(time_ns, self._wake, node)

    def _record(self) -> None:
        times, _, dsts, self._nexts = self._recorder.record()
        self._times, self._dsts = times, dsts.tolist()

    def _wake(self, node: int) -> None:
        i = self._i
        if i == len(self._dsts):
            self._record()
            i = 0
        self._i = i + 1
        dst = self._dsts[i]
        if dst >= 0:
            network = self.network
            network.nics[node].inject(network.create_packet(node, dst, self._times[i]))
            self.generated += 1
        next_ns = self._nexts[i]
        if next_ns is not None:
            self._push(next_ns, self._wake, (node,))
