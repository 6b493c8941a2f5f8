"""Simulation kernel: a clock plus an event calendar.

Typical use::

    sim = Simulator()
    sim.after(10.0, callback, arg1, arg2)
    sim.run(until=1_000.0)

Components hold a reference to the shared :class:`Simulator` and schedule
their own callbacks; the kernel knows nothing about networks or routers.

The calendar is one binary heap of plain ``(time, seq, callback, args)``
tuples, the same entry shape the flat kernel's calendar uses.  ``seq`` is a
unique, increasing counter, so events run in ``(time, seq)`` order — ties
in schedule order — and ``heapq``'s C-level tuple comparison never reaches
the callback.  Scheduling hands out no handle: an event, once scheduled,
runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: One calendar entry: ``(time, seq, callback, args)``.
_Entry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock in nanoseconds.
    """

    __slots__ = ("_heap", "_seq", "_now", "_events_processed", "_running")

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._now = float(start_time)
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for profiling/tests)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the calendar."""
        return len(self._heap)

    # ------------------------------------------------------------- scheduling
    def push(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``, unchecked.

        The one insert into the calendar: :meth:`at` and :meth:`after` check
        their arguments and call it, and the network components bind it once
        for their per-event pushes, whose ``time`` is never before the clock.
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, args))

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} ns: clock is already at {self._now} ns"
            )
        self.push(time, callback, args)

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} ns")
        self.push(self._now + delay, callback, args)

    # ---------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> float:
        """Execute events in ``(time, seq)`` order; return the clock.

        ``until`` runs every event scheduled at or before it, then sets the
        clock to ``until``; it may not lie before the clock.  ``None`` runs
        until the calendar is empty and leaves the clock at the last event.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until} ns: clock is already at {self._now} ns"
            )
        self._running = True
        executed = 0
        # A sentinel keeps the loop to one float compare per event.
        bound = float("inf") if until is None else until
        heap = self._heap
        try:
            while heap and heap[0][0] <= bound:
                time, _, callback, args = heappop(heap)
                self._now = time
                callback(*args)
                executed += 1
            if until is not None:
                self._now = until
        finally:
            self._running = False
            self._events_processed += executed
        return self._now
