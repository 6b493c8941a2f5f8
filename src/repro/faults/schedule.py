"""Serializable fault timelines: when which link or router dies and recovers.

A :class:`FaultSchedule` is a sorted, immutable sequence of
:class:`FaultEvent` entries.  Stochastic construction
(:meth:`FaultSchedule.random_link_failures`) expands the seeded draw to
concrete events *at construction time* — the serialized form stores plain
events, never the seed — so a schedule read back from a spec document
replays the exact timeline it was built with, and two specs with equal
schedules share one cache fingerprint regardless of how they were built.

Randomness is derived with SHA-256 exactly like
:mod:`repro.engine.rng` derives its stream seeds (stable across processes,
independent of ``PYTHONHASHSEED`` and of the global :mod:`random` state).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.scenarios.serialize import NON_NEGATIVE, Number, _check_fields, check_keys, check_schema

if TYPE_CHECKING:  # typing only: schedules are built against a topology
    from repro.topology.base import Topology

__all__ = [
    "FAULT_KINDS",
    "FAULTS_SCHEMA_VERSION",
    "FaultEvent",
    "FaultSchedule",
]

#: schema version of a serialized FaultSchedule block.
FAULTS_SCHEMA_VERSION = 1

#: event kinds, in tie-break order for events sharing a timestamp: a link
#: that goes down and up at the same instant ends up down.
FAULT_KINDS = ("link_up", "router_up", "link_down", "router_down")


@dataclass(frozen=True)
class FaultEvent:
    """One structural change: a link or router going down or coming back.

    Link events name the failing link by its *canonical* endpoint
    ``(router, port)``; the controller tears down (and restores) both
    directions, so either endpoint identifies the same physical link.
    Router events use ``port=-1``.
    """

    time_ns: float
    kind: str
    router: int
    port: int = -1

    _NUMBERS = {"time_ns": NON_NEGATIVE, "router": Number(int, 0), "port": Number(int, -1)}

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        _check_fields(self)
        if self.is_link_event:
            if self.port < 0:
                raise ValueError(f"link fault needs a port >= 0, got {self.port}")
        elif self.port != -1:
            raise ValueError(
                f"router fault takes no port (use -1), got {self.port}"
            )

    @property
    def is_link_event(self) -> bool:
        return self.kind in ("link_down", "link_up")

    @property
    def is_failure(self) -> bool:
        return self.kind in ("link_down", "router_down")

    def _sort_key(self) -> Tuple[float, int, int, int]:
        return (self.time_ns, FAULT_KINDS.index(self.kind), self.router, self.port)


def _derive_draw(seed: int, tag: str, index: int) -> int:
    """64-bit deterministic draw, sha256-derived like repro.engine.rng."""
    digest = hashlib.sha256(f"faults:{seed}:{tag}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class FaultSchedule:
    """A sorted timeline of link/router failures and recoveries."""

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        if not events:
            raise ValueError("a fault schedule needs at least one event")
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=FaultEvent._sort_key)
        )

    # ----------------------------------------------------------- constructors
    @classmethod
    def single_link_failure(cls, time_ns: float, router: int, port: int, *,
                            recover_ns: Optional[float] = None) -> "FaultSchedule":
        """One link dies at ``time_ns`` and (optionally) recovers later."""
        return cls._outage("link", time_ns, recover_ns, router, port)

    @classmethod
    def router_outage(cls, time_ns: float, router: int, *,
                      recover_ns: Optional[float] = None) -> "FaultSchedule":
        """A whole router (all its links) dies and optionally recovers."""
        return cls._outage("router", time_ns, recover_ns, router, -1)

    @classmethod
    def _outage(cls, what: str, time_ns: float, recover_ns: Optional[float], router: int,
                port: int) -> "FaultSchedule":
        events = [FaultEvent(time_ns, f"{what}_down", router, port)]
        if recover_ns is not None:
            events.append(FaultEvent(recover_ns, f"{what}_up", router, port))
            if events[1].time_ns <= events[0].time_ns:
                raise ValueError(f"recovery at {recover_ns} ns must follow the failure at "
                                 f"{time_ns} ns")
        return cls(events)

    @classmethod
    def random_link_failures(
        cls,
        topology: "Topology",
        *,
        count: int,
        start_ns: float,
        end_ns: float,
        seed: int,
        downtime_ns: Optional[float] = None,
    ) -> "FaultSchedule":
        """``count`` distinct links fail at seeded-random times in a window.

        The draw is expanded to concrete events here: the returned schedule
        serializes as plain events, so replaying a saved spec never re-rolls.
        Failure times land in ``[start_ns, end_ns)``; with ``downtime_ns``
        each link recovers that long after it fails.
        """
        if count < 1:
            raise ValueError(f"need at least one failure, got count={count}")
        if end_ns <= start_ns:
            raise ValueError(
                f"failure window is empty: [{start_ns}, {end_ns}) ns"
            )
        links: List[Tuple[int, int]] = []
        for router in topology.all_routers():
            for port in topology.network_ports_of(router):
                neighbor = topology.neighbor_of(router, port)
                if neighbor is None:
                    continue
                # Keep one canonical direction per physical link.
                if (router, port) < neighbor:
                    links.append((router, port))
        if count > len(links):
            raise ValueError(
                f"topology has only {len(links)} links; cannot fail {count}"
            )
        events: List[FaultEvent] = []
        pool = list(links)
        for index in range(count):
            router, port = pool.pop(_derive_draw(seed, "link", index) % len(pool))
            span = end_ns - start_ns
            time_ns = start_ns + (_derive_draw(seed, "time", index) / 2.0**64) * span
            events.append(FaultEvent(time_ns, "link_down", router, port))
            if downtime_ns is not None:
                events.append(
                    FaultEvent(time_ns + downtime_ns, "link_up", router, port)
                )
        return cls(events)

    # ---------------------------------------------------------------- queries
    def failure_times(self) -> List[float]:
        """Ascending timestamps of the failure (``*_down``) events."""
        return sorted({e.time_ns for e in self.events if e.is_failure})

    def first_failure_ns(self) -> Optional[float]:
        times = self.failure_times()
        return times[0] if times else None

    def epochs(self, end_ns: float) -> List[Tuple[float, float]]:
        """``[start, end)`` windows delimited by the failure events.

        The first epoch is the pre-failure baseline ``[0, t_1)``; each
        failure starts a new epoch that runs to the next failure (or to
        ``end_ns``).  Used by the per-epoch delivery-rate probe.
        """
        bounds = [t for t in self.failure_times() if t < end_ns]
        starts = [0.0] + bounds
        ends = bounds + [end_ns]
        return [(s, e) for s, e in zip(starts, ends) if e > s]

    def max_time_ns(self) -> float:
        return self.events[-1].time_ns

    def __len__(self) -> int:
        return len(self.events)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-ready form: a schema tag plus ``[time, kind, router, port]`` rows."""
        return {
            "schema": FAULTS_SCHEMA_VERSION,
            "events": [[e.time_ns, e.kind, e.router, e.port] for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Strict inverse of :meth:`to_dict`."""
        check_keys(data, required=("schema", "events"), context="FaultSchedule")
        check_schema(data, FAULTS_SCHEMA_VERSION, context="FaultSchedule")
        rows = data["events"]
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"FaultSchedule events must be a list, got {rows!r}")
        events = []
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != 4:
                raise ValueError(
                    "FaultSchedule event must be a [time_ns, kind, router, "
                    f"port] row, got {row!r}"
                )
            events.append(FaultEvent(*row))
        return cls(events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events

    def __repr__(self) -> str:
        steps = ", ".join(
            f"{e.kind}(r{e.router}" + (f".p{e.port}" if e.port >= 0 else "") +
            f")@{e.time_ns}ns"
            for e in self.events[:4]
        )
        more = f", +{len(self.events) - 4}" if len(self.events) > 4 else ""
        return f"<FaultSchedule {steps}{more}>"
