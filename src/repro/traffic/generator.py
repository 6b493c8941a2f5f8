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
defined once by :func:`traffic_wakeups`.  The flat kernel records that
stream (:func:`repro.engine.batch.trace.record_traffic_trace`); the object
graph replays it lazily on its event queue (:class:`TrafficGenerator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # typing only: the harness hands us the built network
    from repro.engine.rng import RngFactory
    from repro.network.network import Network
    from repro.network.params import NetworkParams
    from repro.topology.base import Topology

from repro.scenarios.serialize import FRACTION, FieldError, Number, _check_fields, check_keys
from repro.traffic.base import TrafficPattern

_INF = float("inf")


@dataclass(frozen=True)
class LoadPhase:
    """One piece of a piecewise-constant load schedule."""

    start_ns: float
    load: float

    _NUMBERS = {"start_ns": Number(float), "load": FRACTION}  # a load of 0 idles the phase

    def __post_init__(self) -> None:
        _check_fields(self)


def _phase(index: int, pair: Any) -> LoadPhase:
    """The caller's ``index``-th ``(start_ns, load)`` phase, named if refused."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"LoadSchedule phase must be a [start_ns, load] pair, got {pair!r}")
    try:
        return LoadPhase(*pair)
    except FieldError as exc:
        raise FieldError("LoadSchedule", f"phase {index} {exc.name}", exc.what,
                         exc.value) from None


class LoadSchedule:
    """Piecewise-constant offered load over time."""

    def __init__(self, phases: Sequence[Tuple[float, float]]) -> None:
        if not phases:
            raise ValueError("a load schedule needs at least one phase")
        self.phases: List[LoadPhase] = sorted(
            (_phase(index, pair) for index, pair in enumerate(phases)),
            key=lambda phase: phase.start_ns)

    @classmethod
    def constant(cls, load: float) -> "LoadSchedule":
        return cls([(0.0, load)])

    @classmethod
    def step(cls, initial_load: float, step_time_ns: float, new_load: float) -> "LoadSchedule":
        """Figure 8 style schedule: one load change at ``step_time_ns``."""
        return cls([(0.0, initial_load), (step_time_ns, new_load)])

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-ready form: ``{"phases": [[start_ns, load], ...]}``."""
        return {"phases": [[phase.start_ns, phase.load] for phase in self.phases]}

    @classmethod
    def from_dict(cls, data: dict) -> "LoadSchedule":
        """Strict inverse of :meth:`to_dict`."""
        check_keys(data, required=("phases",), context="LoadSchedule")
        phases = data["phases"]
        if not isinstance(phases, (list, tuple)):
            raise ValueError(f"LoadSchedule phases must be a list, got {phases!r}")
        return cls(phases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoadSchedule):
            return NotImplemented
        return self.phases == other.phases

    def __repr__(self) -> str:
        steps = ", ".join(f"{p.load}@{p.start_ns}ns" for p in self.phases)
        return f"<LoadSchedule {steps}>"


def traffic_wakeups(topo: "Topology", params: "NetworkParams", pattern: TrafficPattern,
                    rng: "RngFactory", offered_load: Optional[float],
                    schedule: Optional[LoadSchedule], arrival: str) -> Iterator[Any]:
    """Every generator wake-up of one run, in event-queue order.

    The first item is the list of initial ``(time_ns, node)`` pushes in node
    order; each later item is one executed wake-up ``(time_ns, node,
    destination or -1, next wake-up time or None)``.  A ``-1`` wake-up makes
    no packet (a phase-boundary resample, an idle phase) but is still an
    event.  Pushing each wake-up's successor as it executes reproduces the
    stream's ``(time, push order)`` sequence.  Arguments are checked and the
    pattern set up on the call; draws happen as the stream is consumed.
    """
    if (offered_load is None) == (schedule is None):
        raise ValueError("specify exactly one of offered_load or schedule")
    if arrival not in ("exponential", "deterministic"):
        raise ValueError("arrival must be 'exponential' or 'deterministic'")
    if schedule is None:
        schedule = LoadSchedule.constant(offered_load)
    pattern.setup(topo, rng.py(f"traffic:{pattern.name}"))
    return _wakeups(topo.num_nodes, params.serialization_ns, pattern.destination, rng,
                    schedule.phases, arrival == "deterministic")


def _wakeups(num_nodes: int, packet_ns: float, destination: Callable[[int], int],
             rng: "RngFactory", phases: List[LoadPhase], deterministic: bool) -> Iterator[Any]:
    arrivals = rng.py("traffic:arrivals")
    random = arrivals.random
    expovariate = arrivals.expovariate
    # Phase cursor k = number of phases started by now: the mean interval is
    # means[k] (the first phase's before it starts) and the next boundary
    # starts[k] (inf: none).  A mean of inf — a zero load, or one so small
    # that the division overflows — is an idle phase.
    starts = [phase.start_ns for phase in phases] + [_INF]
    loads = [phases[0].load] + [phase.load for phase in phases]
    means = [packet_ns / load if load > 0.0 else _INF for load in loads]
    rates = [1.0 / mean for mean in means]
    k = 0
    while starts[k] <= 0.0:
        k += 1
    change, mean, rate = starts[k], means[k], rates[k]

    # One first wake-up per node, staggered by a fraction of one interval so
    # sources start de-synchronised; an idle node first wakes at the next
    # boundary.  Heap entries are (time, push order, node, is_resample).
    heap = []
    seq = 0
    for node in range(num_nodes):
        delay = mean if mean == _INF or deterministic else expovariate(rate)
        first = _INF if delay == _INF else delay * random()
        if first > change:
            heap.append((change, seq, node, True))
        elif first != _INF:
            heap.append((first, seq, node, False))
        else:
            continue  # idle for good
        seq += 1
    yield [(time_ns, node) for time_ns, _, node, _ in heap]
    heapify(heap)

    while heap:
        time_ns, _, node, resample = heap[0]
        if time_ns >= change:
            while starts[k] <= time_ns:
                k += 1
            change, mean, rate = starts[k], means[k], rates[k]
        dst = -1
        if mean == _INF:
            delay = _INF
        elif resample:
            # At a boundary the stale interval is discarded and redrawn.
            # Deterministic sources re-stagger, or every node clamped at the
            # boundary would inject in lockstep; exponential redraws are
            # memoryless and need none.
            delay = mean * random() if deterministic else expovariate(rate)
        else:
            dst = destination(node)
            delay = mean if deterministic else expovariate(rate)
        # An interval is only valid while its load lasts: one reaching past
        # the next boundary wakes the node at the boundary instead, so a load
        # step takes effect at once (Figure 8 depends on it).
        if delay == _INF and change == _INF:
            heappop(heap)
            yield time_ns, node, dst, None
            continue
        if time_ns + delay > change:
            next_ns, resample = change, True
        else:
            next_ns, resample = time_ns + delay, False
        heapreplace(heap, (next_ns, seq, node, resample))
        seq += 1
        yield time_ns, node, dst, next_ns


class TrafficGenerator:
    """Replays :func:`traffic_wakeups` on a network's event queue.

    Each wake-up is one event: it takes the next item of the stream, injects
    a packet when the item has a destination and schedules the node's next
    wake-up.  Draws happen only as the simulation reaches them.
    """

    def __init__(self, network: "Network", pattern: TrafficPattern,
                 offered_load: Optional[float] = None,
                 schedule: Optional[LoadSchedule] = None,
                 arrival: str = "exponential") -> None:
        self._next = traffic_wakeups(network.topo, network.params, pattern, network.rng,
                                     offered_load, schedule, arrival).__next__
        self._push = network.sim.push
        self.network = network
        self.generated = 0
        network.collector.offered_load = (
            float(offered_load) if schedule is None else schedule.phases[0].load
        )

    def start(self) -> None:
        """Schedule the first wake-up of every node."""
        at = self.network.sim.at
        for time_ns, node in self._next():
            at(time_ns, self._wake, node)

    def _wake(self, node: int) -> None:
        time_ns, _, dst, next_ns = self._next()
        if dst >= 0:
            network = self.network
            network.nics[node].inject(network.create_packet(node, dst, time_ns))
            self.generated += 1
        if next_ns is not None:
            self._push(next_ns, self._wake, (node,))
