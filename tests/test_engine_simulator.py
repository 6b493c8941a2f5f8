"""Unit tests for the simulation kernel."""

import pytest

from repro.engine.simulator import SimulationError


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_after_and_at_schedule_callbacks(sim):
    seen = []
    sim.after(10.0, seen.append, "after")
    sim.at(5.0, seen.append, "at")
    sim.run()
    assert seen == ["at", "after"]
    assert sim.now == 10.0


def test_run_until_stops_clock_at_bound(sim):
    seen = []
    sim.after(10.0, seen.append, 1)
    sim.after(50.0, seen.append, 2)
    sim.run(until=20.0)
    assert seen == [1]
    assert sim.now == 20.0
    sim.run(until=100.0)
    assert seen == [1, 2]


def test_run_until_with_empty_queue_advances_clock(sim):
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_events_scheduled_during_run_execute_in_order(sim):
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.after(1.0, chain, n + 1)

    sim.after(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_cannot_schedule_in_the_past(sim):
    sim.after(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.after(-1.0, lambda: None)


def test_run_until_before_the_clock_is_refused(sim):
    """The clock never rewinds: once the t=10 event has run, ``run(until=5)``
    must not let ``at(6, ...)`` schedule into the already-executed past."""
    seen = []
    sim.at(10.0, seen.append, 10)
    sim.at(30.0, seen.append, 30)
    sim.run(until=20.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)
    assert sim.now == 20.0
    with pytest.raises(SimulationError):
        sim.at(6.0, seen.append, 6)
    sim.run()
    assert seen == [10, 30]


def test_run_is_not_reentrant(sim):
    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.after(1.0, recurse)
    sim.run()


def test_event_count_accumulates_across_runs(sim):
    sim.after(1.0, lambda: None)
    sim.run()
    sim.after(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 2
