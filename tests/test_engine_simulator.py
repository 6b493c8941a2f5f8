"""Unit tests for the simulation kernel."""

import gc
import weakref

import pytest

from repro.engine.simulator import SimulationError
from repro.experiments.harness import ExperimentSpec, _execute
from repro.faults import FaultSchedule
from repro.topology.config import DragonflyConfig


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


# ------------------------------------------------------- the collector pause
@pytest.fixture
def collector_on():
    """The cyclic collector on for the test; the caller's state after it."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture
def collections():
    """The generation of every collection that starts while the test runs."""
    seen = []

    def probe(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(probe)
    yield seen
    gc.callbacks.remove(probe)


def test_run_pauses_the_collector_and_restores_it(sim, collector_on):
    states = []
    sim.after(1.0, lambda: states.append(gc.isenabled()))
    sim.run()
    assert states == [False]
    assert gc.isenabled()


def test_run_restores_the_collector_when_a_callback_raises(sim, collector_on):
    def fail():
        raise KeyError("callback failed")

    sim.after(1.0, fail)
    with pytest.raises(KeyError):
        sim.run()
    assert gc.isenabled()


def test_run_leaves_a_collector_the_caller_turned_off_off(sim, collector_on):
    states = []
    sim.after(1.0, lambda: states.append(gc.isenabled()))
    gc.disable()
    sim.run()
    assert states == [False]
    assert not gc.isenabled()


def test_a_drain_runs_no_collection(sim, collector_on, collections):
    """20 000 surviving lists would cost dozens of collections with the
    collector on; ``run`` runs none, not even on its way out."""
    kept = []
    for i in range(200):
        sim.at(float(i), lambda: kept.extend([] for _ in range(100)))
    before = len(collections)
    sim.run()
    assert len(collections) == before
    assert len(kept) == 20_000


def test_a_cycle_made_by_a_callback_is_collected_after_the_run(sim, collector_on,
                                                              collections):
    class Node:
        pass

    refs = []

    def make_cycle():
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))

    sim.at(1.0, make_cycle)
    sim.at(2.0, lambda: refs.append(refs[0]() is not None))
    sim.run()
    assert refs[1]  # the drain deferred its collection: the cycle outlived it
    ran = len(collections)
    # Enough new containers to pass the youngest generation's threshold.
    junk = [[] for _ in range(gc.get_threshold()[0] + 1)]
    assert len(collections) > ran and junk
    assert refs[0]() is None


#: 72-node object-graph runs whose drain makes no cyclic garbage: a paused
#: collector only defers work there.  Router 0's port 2 is a local link.
_NO_GARBAGE_CASES = {
    "Q-adp ADV+1": dict(routing="Q-adp", pattern="ADV+1"),
    "UGALn UR telemetry": dict(
        routing="UGALn", pattern="UR",
        telemetry=("link-util", "queue-occupancy", "source-latency")),
    "Q-adp UR link fault": dict(
        routing="Q-adp", pattern="UR",
        faults=FaultSchedule.single_link_failure(3_000.0, 0, 2, recover_ns=6_000.0),
        telemetry=("fault-delivery", "reconvergence")),
    "PAR UR": dict(routing="PAR", pattern="UR"),
}


@pytest.mark.parametrize("case", sorted(_NO_GARBAGE_CASES))
def test_an_object_graph_run_leaves_no_cyclic_garbage(case):
    spec = ExperimentSpec(config=DragonflyConfig.small_72(), offered_load=0.5,
                          sim_time_ns=10_000.0, warmup_ns=2_000.0, seed=7,
                          **_NO_GARBAGE_CASES[case])
    _execute(spec)  # first calls and caches
    gc.collect()
    result, network = _execute(spec)
    assert gc.collect() == 0
    assert result.stats.delivered_packets and network.sim.events_processed
