"""Tests for the offered-load workload driver and load schedules."""

import json
import re
from heapq import heappop, heappush
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch.trace import record_traffic_trace
from repro.engine.rng import RngFactory
from repro.experiments import run_experiment
from repro.experiments.harness import ExperimentSpec, _execute, build_network
from repro.network.network import Network
from repro.network.params import NetworkParams
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.mesh import MeshConfig, MeshTopology
from repro.traffic import (
    LoadPhase,
    LoadSchedule,
    TrafficGenerator,
    UniformRandomTraffic,
    available_patterns,
    make_pattern,
)
from repro.traffic.generator import _FIRST_CHUNK

_INF = float("inf")


def _network(seed=5):
    return Network(DragonflyConfig.tiny(), MinimalRouting(), seed=seed)


def _entries(trace):
    """A recorded trace's per-node ``(times, dsts)`` arrays as per-node
    ``[(time, destination or -1), ...]`` lists."""
    times, dsts = trace
    return [list(zip(t, d)) for t, d in zip(times, dsts)]


def _trace(schedule, seed=5, until=2_000.0):
    """Per-node wake-ups of UR traffic with deterministic arrivals on ``tiny``."""
    return _entries(record_traffic_trace(
        DragonflyTopology(DragonflyConfig.tiny()), NetworkParams(), UniformRandomTraffic(),
        seed, None, schedule, "deterministic", until))


# --------------------------------------------------------------- LoadSchedule
def test_constant_schedule():
    assert LoadSchedule.constant(0.4).phases == (LoadPhase(0.0, 0.4),)


def test_step_schedule():
    schedule = LoadSchedule.step(0.2, 1_000.0, 0.6)
    assert schedule.phases == (LoadPhase(0.0, 0.2), LoadPhase(1_000.0, 0.6))


def test_schedule_orders_phases_and_validates():
    schedule = LoadSchedule([(500.0, 0.3), (0.0, 0.1)])
    assert schedule.phases == (LoadPhase(0.0, 0.1), LoadPhase(500.0, 0.3))
    with pytest.raises(ValueError):
        LoadSchedule([])
    with pytest.raises(ValueError):
        LoadSchedule([(0.0, -0.1)])


@pytest.mark.parametrize("build,message", [
    (lambda: LoadSchedule([(0.0, 0.2), (0.0, 0.5)]),
     "LoadSchedule.phases[1]: start_ns must differ from phases[0]'s"),
    (lambda: LoadSchedule([(100.0, 0.5), (0.0, 0.2), (100.0, 0.3)]),
     "LoadSchedule.phases[2]: start_ns must differ from phases[0]'s"),
    (lambda: LoadSchedule.step(0.2, 0.0, 0.6),
     "LoadSchedule.phases[1]: start_ns must differ from phases[0]'s"),
    (lambda: LoadSchedule([(-5.0, 0.5)]),
     "LoadSchedule.phases[0]: LoadPhase: start_ns cannot be negative, got -5.0"),
    (lambda: LoadSchedule.from_dict({"phases": [[0.0, 0.2], [-1.0, 0.5]]}),
     "LoadSchedule.phases[1]: LoadPhase: start_ns cannot be negative, got -1.0"),
])
def test_schedule_refuses_a_start_time_with_two_loads_or_before_zero(build, message):
    # Both engines start every source in the last phase starting at or
    # before 0 while the stats report the first phase's load, so a repeated
    # or negative start ran one load and reported another.
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("phases,field", [
    ([(0.0, float("nan"))], "load"),
    ([(0.0, 0.2), (1_000.0, float("nan"))], "load"),
    ([(float("nan"), 0.3)], "start_ns"),
    ([(float("inf"), 0.3)], "start_ns"),
    ([(0.0, 0.2), (float("-inf"), 0.3)], "start_ns"),
])
def test_schedule_rejects_nan_loads_and_non_finite_starts(phases, field):
    # NaN slips past `load < 0` / `load > 1`; the spec used to be accepted
    # and the kernel then died converting the NaN to an integer.
    with pytest.raises(ValueError, match=field):
        LoadSchedule(phases)


def test_schedule_from_json_rejects_nan_load():
    with pytest.raises(ValueError, match="load"):
        LoadSchedule.from_dict(json.loads('{"phases": [[0, NaN]]}'))


# ----------------------------------------------------------- TrafficGenerator
def test_generator_requires_exactly_one_load_specification():
    net = _network()
    pattern = UniformRandomTraffic()
    with pytest.raises(ValueError):
        TrafficGenerator(net, pattern)
    with pytest.raises(ValueError):
        TrafficGenerator(net, pattern, offered_load=0.5, schedule=LoadSchedule.constant(0.1))
    with pytest.raises(ValueError):
        TrafficGenerator(net, pattern, offered_load=0.5, arrival="weird")


def test_deterministic_arrival_produces_expected_packet_count():
    net = _network()
    load = 0.5
    horizon = 10_000.0
    gen = TrafficGenerator(
        net, UniformRandomTraffic(), offered_load=load, arrival="deterministic"
    )
    gen.start()
    net.run(until=horizon)
    per_node_expected = load * horizon / net.params.serialization_ns
    expected_total = per_node_expected * net.num_nodes
    assert gen.generated == pytest.approx(expected_total, rel=0.05)


def test_exponential_arrival_rate_close_to_offered_load():
    net = _network(seed=8)
    load = 0.4
    horizon = 20_000.0
    gen = TrafficGenerator(net, UniformRandomTraffic(), offered_load=load)
    gen.start()
    net.run(until=horizon)
    expected_total = load * horizon / net.params.serialization_ns * net.num_nodes
    assert gen.generated == pytest.approx(expected_total, rel=0.15)


def test_zero_load_generates_nothing_until_step():
    net = _network()
    schedule = LoadSchedule([(0.0, 0.0), (5_000.0, 0.5)])
    gen = TrafficGenerator(net, UniformRandomTraffic(), schedule=schedule,
                           arrival="deterministic")
    gen.start()
    net.run(until=4_999.0)
    assert gen.generated == 0
    net.run(until=15_000.0)
    assert gen.generated > 0


def test_load_step_takes_effect_at_the_boundary():
    """A pending inter-arrival drawn under the old load must be clamped at the
    phase boundary and resampled — not carried one stale interval into the new
    phase (Figure 8 regression)."""
    interval_ns = NetworkParams().serialization_ns  # 32 ns at the default parameters
    # Load 0.01 → 3200 ns between packets; the step to 0.5 (64 ns) happens at
    # 1000 ns, so every node's pending stale interval spans the boundary.
    node0 = _trace(LoadSchedule.step(0.01, 1_000.0, 0.5))[0]
    packets = [t for t, dst in node0 if dst >= 0]
    assert (1_000.0, -1) in node0  # the stale interval ends in a resample
    # New-load generation must start within one *new* interval (64 ns) of the
    # boundary — first packet at 1000 + 64·u (staggered), then every 64 ns:
    # 15–16 packets by 2000 ns, plus at most one packet from the slow initial
    # phase.  Without the clamp the node finished the stale 3200 ns interval
    # first and produced at most ~1 packet by 2000 ns.
    new_interval = interval_ns / 0.5
    assert 1_000.0 < min(t for t in packets if t > 1_000.0) <= 1_000.0 + new_interval
    expected_after_step = int((2_000.0 - (1_000.0 + new_interval)) // new_interval) + 1
    assert expected_after_step <= len(packets) <= expected_after_step + 2


def test_deterministic_sources_stay_desynchronised_across_a_step():
    """Clamping at the boundary must not collapse per-node offsets: nodes whose
    stale intervals all end at the boundary re-stagger instead of injecting in
    lockstep for the rest of the phase."""
    trace = _trace(LoadSchedule.step(0.01, 1_000.0, 0.5), seed=13)
    first_after_step = [min(t for t, dst in trace[node] if dst >= 0 and t > 1_000.0)
                        for node in (0, 1)]
    assert first_after_step[0] != first_after_step[1]


def test_load_drop_stops_fast_generation_at_the_boundary():
    """Stepping down mid-run must not let a node fire one last old-load packet
    inside the new phase, and generation then stops for good."""
    node0 = _trace(LoadSchedule.step(0.5, 1_000.0, 0.0), until=50_000.0)[0]
    packets = [t for t, dst in node0 if dst >= 0]
    assert packets and max(packets) < 1_000.0
    assert node0[-1] == (1_000.0, -1)  # the last wake-up: idle for good


def test_generator_records_offered_load_in_collector():
    net = _network()
    TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.3)
    assert net.collector.offered_load == 0.3


def test_same_seed_reproduces_identical_traffic():
    results = []
    for _ in range(2):
        net = _network(seed=21)
        gen = TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.3)
        gen.start()
        net.run(until=5_000.0)
        stats = net.finalize()
        results.append((stats.generated_packets, stats.delivered_packets,
                        round(stats.mean_latency_ns, 6)))
    assert results[0] == results[1]


def test_the_generator_draws_only_as_the_run_reaches_each_wakeup():
    """Building and starting a run makes the initial stagger draws and no
    more: nothing is recorded ahead up to a horizon."""
    spec = ExperimentSpec(config=DragonflyConfig.tiny(), offered_load=0.3,
                          sim_time_ns=50_000.0, warmup_ns=0.0, seed=3)
    network, generator = build_network(spec)
    generator.start()
    reference = RngFactory(3).py("traffic:arrivals")
    for _ in range(network.num_nodes):  # one interval and one stagger per node
        reference.expovariate(1.0)
        reference.random()
    assert network.rng.py("traffic:arrivals").getstate() == reference.getstate()


def test_start_draws_one_stagger_per_deterministic_node_and_no_destination():
    spec = ExperimentSpec(config=DragonflyConfig.tiny(), offered_load=0.3,
                          arrival="deterministic", sim_time_ns=50_000.0, warmup_ns=0.0,
                          seed=3)
    network, generator = build_network(spec)
    generator.start()
    reference = RngFactory(3)
    for _ in range(network.num_nodes):
        reference.py("traffic:arrivals").random()
    for name in ("traffic:arrivals", "traffic:UR"):
        assert network.rng.py(name).getstate() == reference.py(name).getstate()


def _stopped_run(arrival: str, stops: Tuple[float, ...]):
    """Per-node ``(time, destination or -1)`` wake-ups of a step-load run on
    a real network run up to each of ``stops`` in turn, and the arrival
    stream's state at the end."""
    network = _network(seed=9)
    generator = TrafficGenerator(network, UniformRandomTraffic(),
                                 schedule=LoadSchedule.step(0.2, 6_000.0, 0.7),
                                 arrival=arrival)
    wakeups = [[] for _ in range(network.num_nodes)]
    create_packet, wake = network.create_packet, generator._wake

    def logged_create(src, dst, now):
        wakeups[src][-1] = (now, dst)
        return create_packet(src, dst, now)

    def logged_wake(node):
        wakeups[node].append((network.sim.now, -1))
        wake(node)

    network.create_packet, generator._wake = logged_create, logged_wake
    generator.start()
    for until in stops:
        network.run(until=until)
    return wakeups, network.rng.py("traffic:arrivals").getstate()


@pytest.mark.parametrize("arrival", ["exponential", "deterministic"])
def test_a_run_stopped_anywhere_replays_the_same_wakeups(arrival):
    """Chunks are recorded as the run reaches them, whatever its stops."""
    whole = _stopped_run(arrival, (20_000.0,))
    # Four chunks at least: the first three hold 1 + 2 + 4 first-chunk sizes.
    assert sum(map(len, whole[0])) > 7 * _FIRST_CHUNK
    for stops in ((0.0, 1_234.5, 6_000.0, 20_000.0),
                  tuple(float(until) for until in range(250, 20_001, 250))):
        assert _stopped_run(arrival, stops) == whole


def _phase_step_spec(load: float) -> ExperimentSpec:
    return ExperimentSpec(config=DragonflyConfig.tiny(), sim_time_ns=3_000.0,
                          schedule=LoadSchedule([(0.0, 0.3), (1_000.0, load)]),
                          warmup_ns=0.0, seed=4)


@pytest.mark.parametrize("engine", ["run_experiment", "_execute"])
def test_a_subnormal_load_phase_is_idle(engine):
    """32 ns / 1e-320 overflows to an infinite mean interval: such a phase
    generates nothing, exactly like a zero-load phase.  Both engines used to
    divide by zero at the boundary."""
    run = run_experiment if engine == "run_experiment" else (lambda spec: _execute(spec)[0])
    subnormal = run(_phase_step_spec(1e-320))
    idle = run(_phase_step_spec(0.0))
    assert subnormal.stats.generated_packets > 0
    assert json.dumps(subnormal.stats.to_dict()) == json.dumps(idle.stats.to_dict())


# ------------------------------------- the wake-up stream vs. a reference draw
class _TraceNetwork:
    """Just enough network surface for a traffic generator.

    ``create_packet`` records ``(src, dst)`` instead of building a packet; the
    ``sim`` side is a tuple heap with push-order sequencing, which executes
    callbacks in exactly the ``(time, seq)`` order of the real event queue.
    """

    def __init__(self, topo, params, seed: int) -> None:
        self.topo = topo
        self.params = params
        self.rng = RngFactory(seed)
        self.sim = self
        self.collector = self
        self.nics = self
        self.offered_load: Optional[float] = None
        self.created: List[Tuple[int, int]] = []
        self.heap: List[Tuple] = []
        self._now = 0.0
        self._seq = 0

    @property
    def now(self) -> float:
        return self._now

    def push(self, time_ns, callback, args) -> None:
        heappush(self.heap, (time_ns, self._seq, callback, args))
        self._seq += 1

    def at(self, time_ns, callback, *args) -> None:
        self.push(time_ns, callback, args)

    def create_packet(self, src: int, dst: int, now: float) -> None:
        self.created.append((src, dst))

    def __getitem__(self, node: int) -> "_TraceNetwork":
        return self

    def inject(self, packet) -> bool:
        return True


class _ReferenceGenerator:
    """Reference draw logic: one event per wake-up, each drawing its own
    destination and next interval under the load of the moment.

    An interval reaching past the next phase boundary wakes the node at the
    boundary instead, where it redraws under the new load (deterministic
    sources re-stagger there); a phase whose mean interval is infinite — a
    zero load, or a sub-normal one that overflows — is idle.
    """

    def __init__(self, network, pattern, offered_load=None, schedule=None,
                 arrival="exponential") -> None:
        self.network = network
        self.pattern = pattern
        self.schedule = schedule if schedule is not None else LoadSchedule.constant(offered_load)
        self.deterministic = arrival == "deterministic"
        pattern.setup(network.topo, network.rng.py(f"traffic:{pattern.name}"))
        self._rng = network.rng.py("traffic:arrivals")

    def _mean(self, time_ns: float) -> float:
        load = self.schedule.phases[0].load
        for phase in self.schedule.phases:
            if time_ns >= phase.start_ns:
                load = phase.load
        return self.network.params.serialization_ns / load if load > 0.0 else _INF

    def _change_after(self, time_ns: float) -> float:
        return next((p.start_ns for p in self.schedule.phases if p.start_ns > time_ns), _INF)

    def _interval(self, mean: float) -> float:
        if mean == _INF or self.deterministic:
            return mean
        return self._rng.expovariate(1.0 / mean)

    def start(self) -> None:
        change = self._change_after(0.0)
        for node in range(self.network.topo.num_nodes):
            delay = self._interval(self._mean(0.0))
            if delay == _INF:
                if change != _INF:
                    self.network.sim.at(change, self._resample, node)
                continue
            first = delay * self._rng.random()
            if first > change:
                self.network.sim.at(change, self._resample, node)
            else:
                self.network.sim.at(first, self._generate, node)

    def _generate(self, node: int) -> None:
        now = self.network.sim.now
        mean = self._mean(now)
        if mean != _INF:
            dst = self.pattern.destination(node)
            self.network.nics[node].inject(self.network.create_packet(node, dst, now))
        self._schedule_next(node, now, self._interval(mean))

    def _resample(self, node: int) -> None:
        now = self.network.sim.now
        delay = self._interval(self._mean(now))
        if delay != _INF and self.deterministic:
            delay *= self._rng.random()
        self._schedule_next(node, now, delay)

    def _schedule_next(self, node: int, now: float, delay: float) -> None:
        change = self._change_after(now)
        if delay == _INF:
            if change != _INF:
                self.network.sim.at(change, self._resample, node)
        elif now + delay > change:
            self.network.sim.at(change, self._resample, node)
        else:
            self.network.sim.at(now + delay, self._generate, node)


def _drive(generator_class, topo, params, pattern, seed, offered_load, schedule,
           arrival, until):
    """Per-node ``(time, destination or -1)`` wake-ups of a generator run on
    the stub network as ``Simulator.run(until)`` would run it; wake-ups
    pushed (sequence number allocated) but never executed trail as -1."""
    network = _TraceNetwork(topo, params, seed)
    generator_class(network, pattern, offered_load=offered_load,
                    schedule=schedule, arrival=arrival).start()
    entries = [[] for _ in range(topo.num_nodes)]
    heap, created = network.heap, network.created
    while heap and heap[0][0] <= until:
        time_ns, _, callback, args = heappop(heap)
        network._now = time_ns
        marker = len(created)
        callback(*args)
        dst = created[marker][1] if len(created) > marker else -1
        entries[args[0]].append((time_ns, dst))
    while heap:
        time_ns, _, _, args = heappop(heap)
        entries[args[0]].append((time_ns, -1))
    return entries


def _assert_both_consumers_match_the_reference(topo, pattern_name, *args):
    """``args`` = (seed, offered_load, schedule, arrival, until); returns the
    reference entries."""
    params = NetworkParams()
    kwargs = _trace_pattern_kwargs(topo, pattern_name)
    expected = _drive(_ReferenceGenerator, topo, params,
                      make_pattern(pattern_name, **kwargs), *args)
    assert _entries(record_traffic_trace(topo, params, make_pattern(pattern_name, **kwargs),
                                         *args)) == expected
    assert _drive(TrafficGenerator, topo, params,
                  make_pattern(pattern_name, **kwargs), *args) == expected
    return expected


_TRACE_TOPOLOGIES = (
    DragonflyTopology(DragonflyConfig(p=1, a=2, h=2)),  # 10 nodes, 5 groups
    MeshTopology(MeshConfig.tiny()),
    MeshTopology(MeshConfig(rows=4, cols=4, p=1, wrap=True)),
)


def _trace_pattern_kwargs(topo, name: str) -> dict:
    # The grid patterns default to the Dragonfly's p × a × g grid.
    if name in ("3D Stencil", "Many to Many") and isinstance(topo, MeshTopology):
        return {"dims": (2, 2, topo.num_nodes // 4)}
    return {}


@st.composite
def _trace_cases(draw):
    topo = draw(st.sampled_from(_TRACE_TOPOLOGIES))
    name = draw(st.sampled_from(available_patterns()))
    until = draw(st.floats(0.0, 3_000.0))
    if draw(st.booleans()):
        load, schedule = draw(st.floats(0.0, 1.0)), None
    else:
        starts = draw(st.lists(st.floats(0.0, 3_500.0), min_size=1, max_size=3, unique=True))
        if draw(st.booleans()) and 0.0 not in starts:
            starts[0] = 0.0
        load, schedule = None, LoadSchedule([(start, draw(st.floats(0.0, 1.0)))
                                             for start in starts])
    arrival = draw(st.sampled_from(("exponential", "deterministic")))
    seed = draw(st.integers(0, 2**63 - 1))
    return topo, name, seed, load, schedule, arrival, until


@settings(max_examples=200, deadline=None)
@given(_trace_cases())
def test_recorded_trace_equals_the_real_generator(case):
    """The wake-up stream, recorded for the kernel and replayed on an event
    queue by TrafficGenerator, matches the reference draw for draw."""
    topo, name, seed, load, schedule, arrival, until = case
    _assert_both_consumers_match_the_reference(topo, name, seed, load, schedule,
                                               arrival, until)


@pytest.mark.parametrize("tie", ["first wake-up", "first wake-up + mean"])
def test_a_boundary_exactly_at_a_wakeup_does_not_clamp_it(tie):
    """A wake-up landing exactly on a phase boundary runs as a packet under
    the new load; only one landing past it is clamped to a resample there."""
    topo, params, load, seed = _TRACE_TOPOLOGIES[0], NetworkParams(), 0.5, 3
    # Node 0's stagger is the stream's first draw, so a schedule starting at
    # the same load puts its first wake-up at the same time.
    first = _entries(record_traffic_trace(topo, params, make_pattern("UR"), seed, load, None,
                                          "deterministic", 0.0))[0][0][0]
    boundary = first if tie == "first wake-up" else first + params.serialization_ns / load
    schedule = LoadSchedule([(0.0, load), (boundary, 0.25)])
    node0 = _assert_both_consumers_match_the_reference(
        topo, "UR", seed, None, schedule, "deterministic", 500.0)[0]
    at_boundary = [dst for t, dst in node0 if t == boundary]
    assert len(at_boundary) == 1 and at_boundary[0] >= 0


@pytest.mark.parametrize("load", [2e-307, 1e-306])
@pytest.mark.parametrize("step", [False, True])
def test_an_overflowing_first_interval_skips_its_stagger_draw(load, step):
    """At a sub-normal rate most exponential intervals overflow to inf, and a
    node whose first interval does draws no stagger: the start-up draws are
    data-dependent there, and both consumers must still match the reference."""
    schedule = LoadSchedule([(0.0, load), (1_500.0, 0.4)]) if step else None
    _assert_both_consumers_match_the_reference(
        MeshTopology(MeshConfig(rows=4, cols=4, p=1, wrap=True)), "UR", 5,
        None if step else load, schedule, "exponential", 3_000.0)
