"""Open-loop workload driver: converts *offered load* into message injections.

Offered load is defined as in the paper: the ratio between the per-node
message generation rate and the node injection bandwidth, so a load of 1.0
means every node generates one packet per packet-serialization time
(``packet_bytes / bandwidth`` — 32 ns for the default parameters).  Messages
are single packets; generation is open-loop (the source queue absorbs
backpressure), which is the standard throughput/latency evaluation
methodology the paper uses.

The generator also supports a piecewise-constant :class:`LoadSchedule` to
reproduce the dynamic-load experiment of Figure 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # typing only: the harness hands us the built network
    from repro.network.network import Network

from repro.traffic.base import TrafficPattern


@dataclass(frozen=True)
class LoadPhase:
    """One piece of a piecewise-constant load schedule."""

    start_ns: float
    load: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.load <= 1.0:
            raise ValueError(
                f"phase load must be a number in [0, 1]: it cannot be negative "
                f"or exceed 1.0 (the injection bandwidth), got {self.load}"
            )
        if not math.isfinite(self.start_ns):
            raise ValueError(f"phase start_ns must be finite, got {self.start_ns}")


class LoadSchedule:
    """Piecewise-constant offered load over time."""

    def __init__(self, phases: Sequence[Tuple[float, float]]) -> None:
        if not phases:
            raise ValueError("a load schedule needs at least one phase")
        ordered = sorted(phases, key=lambda item: item[0])
        self.phases: List[LoadPhase] = [LoadPhase(float(t), float(l)) for t, l in ordered]

    @classmethod
    def constant(cls, load: float) -> "LoadSchedule":
        return cls([(0.0, load)])

    @classmethod
    def step(cls, initial_load: float, step_time_ns: float, new_load: float) -> "LoadSchedule":
        """Figure 8 style schedule: one load change at ``step_time_ns``."""
        return cls([(0.0, initial_load), (step_time_ns, new_load)])

    def load_at(self, time_ns: float) -> float:
        current = self.phases[0].load
        for phase in self.phases:
            if time_ns >= phase.start_ns:
                current = phase.load
            else:
                break
        return current

    def next_change_after(self, time_ns: float) -> Optional[float]:
        for phase in self.phases:
            if phase.start_ns > time_ns:
                return phase.start_ns
        return None

    def max_load(self) -> float:
        return max(phase.load for phase in self.phases)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-ready form: ``{"phases": [[start_ns, load], ...]}``."""
        return {"phases": [[phase.start_ns, phase.load] for phase in self.phases]}

    @classmethod
    def from_dict(cls, data: dict) -> "LoadSchedule":
        """Strict inverse of :meth:`to_dict`."""
        from repro.scenarios.serialize import check_keys

        check_keys(data, required=("phases",), context="LoadSchedule")
        phases = data["phases"]
        if not isinstance(phases, (list, tuple)):
            raise ValueError(f"LoadSchedule phases must be a list, got {phases!r}")
        pairs = []
        for item in phases:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(
                    f"LoadSchedule phase must be a [start_ns, load] pair, got {item!r}"
                )
            pairs.append((float(item[0]), float(item[1])))
        return cls(pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoadSchedule):
            return NotImplemented
        return self.phases == other.phases

    def __repr__(self) -> str:
        steps = ", ".join(f"{p.load}@{p.start_ns}ns" for p in self.phases)
        return f"<LoadSchedule {steps}>"


class TrafficGenerator:
    """Drives one traffic pattern on one network at a given offered load.

    A change to its draw order must be mirrored in :mod:`repro.engine.batch.trace`.
    """

    def __init__(
        self,
        network: "Network",
        pattern: TrafficPattern,
        offered_load: Optional[float] = None,
        schedule: Optional[LoadSchedule] = None,
        arrival: str = "exponential",
        start_ns: float = 0.0,
        stop_ns: Optional[float] = None,
        nodes: Optional[Sequence[int]] = None,
    ) -> None:
        if (offered_load is None) == (schedule is None):
            raise ValueError("specify exactly one of offered_load or schedule")
        if arrival not in ("exponential", "deterministic"):
            raise ValueError("arrival must be 'exponential' or 'deterministic'")
        self.network = network
        self.pattern = pattern
        self.schedule = schedule if schedule is not None else LoadSchedule.constant(offered_load)
        self.arrival = arrival
        self.start_ns = start_ns
        self.stop_ns = stop_ns
        self.nodes = list(nodes) if nodes is not None else list(network.topo.all_nodes())
        self.generated = 0

        pattern.setup(network.topo, network.rng.py(f"traffic:{pattern.name}"))
        self._rng = network.rng.py("traffic:arrivals")
        self._packet_time_ns = network.params.serialization_ns
        network.collector.offered_load = self.schedule.phases[0].load
        # Fast-path caches for the per-packet driving loop: after the last
        # phase boundary the load never changes again (for a constant
        # schedule that is the whole run).
        self._last_change_ns = self.schedule.phases[-1].start_ns
        self._final_load = self.schedule.phases[-1].load

    # ----------------------------------------------------------------- driving
    def start(self) -> None:
        """Schedule the first generation event of every driven node."""
        sim = self.network.sim
        initial_load = self.schedule.load_at(self.start_ns)
        for node in self.nodes:
            delay = self._interval(initial_load)
            if delay == float("inf"):
                # Idle at start: wake up at the first load change (if any) and
                # draw a fresh interval under the new load.
                change = self.schedule.next_change_after(self.start_ns)
                if change is None:
                    continue
                sim.at(change, self._resample, node)
                continue
            # De-synchronise sources: the first packet of each node appears
            # a random fraction of one interval after start.
            first = max(self.start_ns + delay * self._rng.random(), self.start_ns)
            change = self.schedule.next_change_after(self.start_ns)
            if change is not None and first > change:
                sim.at(change, self._resample, node)
            else:
                sim.at(first, self._generate, node)

    def _interval(self, load: float) -> float:
        """Time to the next message of one node at the given offered load."""
        if load <= 0.0:
            return float("inf")
        mean = self._packet_time_ns / load
        if self.arrival == "deterministic":
            return mean
        return self._rng.expovariate(1.0 / mean)

    def _generate(self, node: int) -> None:
        sim = self.network.sim
        now = sim._now
        if self.stop_ns is not None and now >= self.stop_ns:
            return
        if now >= self._last_change_ns:
            load = self._final_load
        else:
            load = self.schedule.load_at(now)
        if load > 0.0:
            dest = self.pattern.destination(node)
            packet = self.network.create_packet(node, dest, now)
            self.network.nics[node].inject(packet)
            self.generated += 1
            delay = self._interval(load)
        else:
            delay = float("inf")
        self._schedule_next(node, now, delay)

    def _schedule_next(self, node: int, now: float, delay: float) -> None:
        """Arm the next generation of ``node``, clamping at phase boundaries.

        An interval drawn under the current load is only valid while that load
        lasts: if it reaches past the next :class:`LoadSchedule` change, the
        node instead wakes *at* the boundary and resamples under the new load,
        so a load step takes effect immediately rather than one stale interval
        late (the Figure 8 experiment depends on this).
        """
        sim = self.network.sim
        if now >= self._last_change_ns:
            change = None
        else:
            change = self.schedule.next_change_after(now)
        if delay == float("inf"):
            # Idle phase: sleep until the next load change (or stop for good).
            if change is None:
                return
            sim.at(change, self._resample, node)
            return
        if change is not None and now + delay > change:
            sim.at(change, self._resample, node)
            return
        # Direct queue push: the interval is non-negative by construction and
        # this runs once per generated packet.
        sim._queue.push(now + delay, self._generate, (node,))

    def _resample(self, node: int) -> None:
        """Phase boundary reached: discard the stale interval and redraw."""
        sim = self.network.sim
        now = sim.now
        if self.stop_ns is not None and now >= self.stop_ns:
            return
        delay = self._interval(self.schedule.load_at(now))
        if delay != float("inf") and self.arrival == "deterministic":
            # Every node whose stale interval spanned the boundary resamples
            # at the same instant; stagger the first post-boundary packet (as
            # start() staggers the first packet of the run) so deterministic
            # sources don't inject in lockstep for the rest of the phase.
            # Exponential arrivals need no stagger: the redraw is memoryless.
            delay *= self._rng.random()
        self._schedule_next(node, now, delay)
