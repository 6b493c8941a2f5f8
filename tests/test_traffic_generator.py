"""Tests for the offered-load workload driver and load schedules."""

import json
from heapq import heappop, heappush
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch.trace import record_traffic_trace
from repro.engine.rng import RngFactory
from repro.network.network import Network
from repro.network.params import NetworkParams
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.mesh import MeshConfig, MeshTopology
from repro.traffic import (
    LoadSchedule,
    TrafficGenerator,
    UniformRandomTraffic,
    available_patterns,
    make_pattern,
)


def _network(seed=5):
    return Network(DragonflyConfig.tiny(), MinimalRouting(), seed=seed)


# --------------------------------------------------------------- LoadSchedule
def test_constant_schedule():
    schedule = LoadSchedule.constant(0.4)
    assert schedule.load_at(0.0) == 0.4
    assert schedule.load_at(1e9) == 0.4
    assert schedule.next_change_after(0.0) is None
    assert schedule.max_load() == 0.4


def test_step_schedule():
    schedule = LoadSchedule.step(0.2, 1_000.0, 0.6)
    assert schedule.load_at(0.0) == 0.2
    assert schedule.load_at(999.9) == 0.2
    assert schedule.load_at(1_000.0) == 0.6
    assert schedule.next_change_after(0.0) == 1_000.0
    assert schedule.next_change_after(1_000.0) is None
    assert schedule.max_load() == 0.6


def test_schedule_orders_phases_and_validates():
    schedule = LoadSchedule([(500.0, 0.3), (0.0, 0.1)])
    assert schedule.load_at(100.0) == 0.1
    with pytest.raises(ValueError):
        LoadSchedule([])
    with pytest.raises(ValueError):
        LoadSchedule([(0.0, -0.1)])


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


def test_stop_ns_halts_generation():
    net = _network()
    gen = TrafficGenerator(
        net, UniformRandomTraffic(), offered_load=0.5, stop_ns=2_000.0, arrival="deterministic"
    )
    gen.start()
    net.run(until=10_000.0)
    assert gen.generated <= 0.5 * 2_000.0 / net.params.serialization_ns * net.num_nodes * 1.2
    before = gen.generated
    net.run(until=20_000.0)
    assert gen.generated == before


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
    net = _network()
    interval_ns = net.params.serialization_ns  # 32 ns at the default parameters
    # Load 0.01 → 3200 ns between packets; the step to 0.5 (64 ns) happens at
    # 1000 ns, so every node's pending stale interval spans the boundary.
    schedule = LoadSchedule.step(0.01, 1_000.0, 0.5)
    gen = TrafficGenerator(net, UniformRandomTraffic(), schedule=schedule,
                           arrival="deterministic", nodes=[0])
    gen.start()
    net.run(until=2_000.0)
    # New-load generation must start within one *new* interval (64 ns) of the
    # boundary — first packet at 1000 + 64·u (staggered), then every 64 ns:
    # 15–16 packets by 2000 ns, plus at most one packet from the slow initial
    # phase.  The unpatched generator finished the stale 3200 ns interval
    # first and produced at most ~1 packet by 2000 ns.
    new_interval = interval_ns / 0.5
    expected_after_step = int((2_000.0 - (1_000.0 + new_interval)) // new_interval) + 1
    assert expected_after_step <= gen.generated <= expected_after_step + 2


def test_deterministic_sources_stay_desynchronised_across_a_step():
    """Clamping at the boundary must not collapse per-node offsets: nodes whose
    stale intervals all end at the boundary re-stagger instead of injecting in
    lockstep for the rest of the phase."""
    net = _network(seed=13)
    schedule = LoadSchedule.step(0.01, 1_000.0, 0.5)
    gen = TrafficGenerator(net, UniformRandomTraffic(), schedule=schedule,
                           arrival="deterministic", nodes=[0, 1])
    injections = []

    class _Spy:
        """Extra packet_generated listener on the probe bus (the collector
        keeps observing too — listeners stack instead of overwriting)."""

        def subscriptions(self):
            return {"packet_generated": self._on_generated}

        @staticmethod
        def _on_generated(packet):
            injections.append((packet.src_node, packet.create_time_ns))

    net.attach_probe(_Spy())
    gen.start()
    net.run(until=2_000.0)
    first_after_step = {}
    for node, t in injections:
        if t > 1_000.0 and node not in first_after_step:
            first_after_step[node] = t
    assert set(first_after_step) == {0, 1}
    assert first_after_step[0] != first_after_step[1]


def test_load_drop_stops_fast_generation_at_the_boundary():
    """Stepping down mid-run must not let a node fire one last old-load packet
    inside the new phase before slowing down."""
    net = _network()
    schedule = LoadSchedule.step(0.5, 1_000.0, 0.0)
    gen = TrafficGenerator(net, UniformRandomTraffic(), schedule=schedule,
                           arrival="deterministic", nodes=[0])
    gen.start()
    net.run(until=1_000.0)
    before = gen.generated
    assert before > 0
    net.run(until=50_000.0)
    assert gen.generated == before


def test_generator_records_offered_load_in_collector():
    net = _network()
    TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.3)
    assert net.collector.offered_load == 0.3


def test_restricted_node_set():
    net = _network()
    gen = TrafficGenerator(
        net, UniformRandomTraffic(), offered_load=0.5, nodes=[0, 1], arrival="deterministic"
    )
    gen.start()
    net.run(until=5_000.0)
    sources = {nic.node for nic in net.nics if nic.injected_packets > 0}
    assert sources <= {0, 1}


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


# ------------------------------------------------ kernel trace vs. generator
class _TraceNetwork:
    """Just enough network surface for a real :class:`TrafficGenerator`.

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
        self._queue = self
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


def _oracle_trace(topo, params, pattern, seed, offered_load, schedule, arrival, until):
    """Reference recorder: the real generator driven through a stub network."""
    network = _TraceNetwork(topo, params, seed)
    TrafficGenerator(network, pattern, offered_load=offered_load,
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
    while heap:  # pushed (sequence number allocated) but never executed
        time_ns, _, _, args = heappop(heap)
        entries[args[0]].append((time_ns, -1))
    return entries


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


# Loads so small that 32 ns / load overflows to inf are left out: the real
# generator then divides by zero.
_PHASE_LOADS = st.one_of(st.sampled_from((0.0, 0.02, 0.5, 1.0)),
                         st.floats(1e-3, 1.0))


@st.composite
def _trace_cases(draw):
    topo = draw(st.sampled_from(_TRACE_TOPOLOGIES))
    name = draw(st.sampled_from(available_patterns()))
    until = draw(st.floats(0.0, 3_000.0))
    if draw(st.booleans()):
        load, schedule = draw(st.floats(0.01, 1.0)), None
    else:
        starts = draw(st.lists(st.floats(0.0, 3_500.0), min_size=1, max_size=3))
        if draw(st.booleans()):
            starts[0] = 0.0
        load, schedule = None, LoadSchedule([(start, draw(_PHASE_LOADS))
                                             for start in starts])
    arrival = draw(st.sampled_from(("exponential", "deterministic")))
    seed = draw(st.integers(0, 2**63 - 1))
    return topo, name, seed, load, schedule, arrival, until


@settings(max_examples=200, deadline=None)
@given(_trace_cases())
def test_recorded_trace_equals_the_real_generator(case):
    """The kernel's one-loop recorder mirrors TrafficGenerator draw for draw."""
    topo, name, seed, load, schedule, arrival, until = case
    params = NetworkParams()
    kwargs = _trace_pattern_kwargs(topo, name)
    expected = _oracle_trace(topo, params, make_pattern(name, **kwargs), seed,
                             load, schedule, arrival, until)
    assert record_traffic_trace(topo, params, make_pattern(name, **kwargs), seed,
                                load, schedule, arrival, until) == expected
