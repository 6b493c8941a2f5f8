"""System-level integration tests across routing algorithms and traffic patterns.

These tests assert the paper-level qualitative properties: every packet is
delivered (no livelock/deadlock), hop bounds hold per algorithm, paths are
topologically legal, and the expected performance orderings appear (minimal
wins under UR, non-minimal/adaptive wins under ADV+i, Q-adaptive learns).
"""

import pytest

from repro.network.network import Network
from repro.routing import make_routing
from repro.topology.config import DragonflyConfig
from repro.topology.fattree import FatTreeConfig
from repro.topology.mesh import MeshConfig
from repro.traffic import LoadSchedule, TrafficGenerator, make_pattern


CONFIG = DragonflyConfig.small_72()
HOP_BOUNDS = {
    "MIN": 3,
    "VALg": 5,
    "VALn": 6,
    "UGALg": 5,
    "UGALn": 6,
    "PAR": 7,
    "Q-adp": 5,
    "Q-routing": 8,  # maxQ=5 default + 3 minimal hops
}


def _run(algorithm, pattern, load=0.25, horizon=12_000.0, seed=17):
    net = Network(CONFIG, make_routing(algorithm), seed=seed)
    # Generation stops at the horizon, so a drain afterwards empties the network.
    gen = TrafficGenerator(net, make_pattern(pattern),
                           schedule=LoadSchedule.step(load, horizon, 0.0))
    gen.start()
    net.run(until=horizon)
    return net


@pytest.mark.parametrize("algorithm", list(HOP_BOUNDS))
@pytest.mark.parametrize("pattern", ["UR", "ADV+1"])
def test_all_packets_delivered_within_hop_bound(algorithm, pattern):
    net = _run(algorithm, pattern, load=0.2, horizon=8_000.0)
    net.drain(extra_ns=400_000.0)
    assert net.packets_in_flight() == 0, f"{algorithm}/{pattern} lost packets"
    assert net.buffered_packets() == 0
    hops = net.collector.hops_array()
    assert hops.size
    assert hops.max() <= HOP_BOUNDS[algorithm]


_OTHER_FAMILIES = {
    "fattree": FatTreeConfig.tiny(),
    "mesh": MeshConfig.small_72(),
    "torus": MeshConfig.small_72_torus(),
}


@pytest.mark.parametrize(
    "algorithm,config",
    [pytest.param(algorithm, CONFIG, id=algorithm) for algorithm in [*HOP_BOUNDS, "VAL"]]
    + [pytest.param(algorithm, config, id=f"{family}-{algorithm}")
       for family, config in _OTHER_FAMILIES.items()
       for algorithm in ("MIN", "VAL", "Q-routing")],
)
def test_paths_are_topologically_legal(algorithm, config, router_paths):
    net = Network(config, make_routing(algorithm), seed=3)
    topo = net.topo
    packets = []
    for i in range(60):
        src = (i * 5) % net.num_nodes
        dst = (i * 11 + 13) % net.num_nodes
        if src != dst:
            packets.append(net.send(src, dst))
    net.drain(extra_ns=100_000.0)  # bounded: a routing loop fails, not hangs
    assert packets
    for packet in packets:
        path = router_paths[packet.pid]
        for (current, vc), (nxt, next_vc) in zip(path[:-1], path[1:], strict=True):
            assert any(
                topo.neighbor_of(current, port)[0] == nxt
                for port in topo.network_ports_of(current)
            ), f"illegal hop {current}->{nxt} under {algorithm}"
            assert next_vc >= vc, f"VC order broken {vc}->{next_vc} under {algorithm}"
        assert packet.delivered
        src_router = topo.router_of_node(packet.src_node)
        dst_router = topo.router_of_node(packet.dst_node)
        assert path[0][0] == src_router
        assert path[-1][0] == dst_router
        assert len(path) == packet.hops + 1
        assert packet.hops >= topo.minimal_hops(src_router, dst_router)


def test_minimal_is_best_under_uniform_random():
    """Figure 5(a)-(b) ordering at moderate load: MIN beats VALn under UR."""
    latencies = {}
    for algorithm in ("MIN", "VALn", "UGALn"):
        net = _run(algorithm, "UR", load=0.4, horizon=20_000.0)
        latencies[algorithm] = net.finalize().mean_latency_ns
    assert latencies["MIN"] < latencies["VALn"]
    assert latencies["MIN"] <= latencies["UGALn"] * 1.05


def test_nonminimal_beats_minimal_under_adversarial():
    """Figure 5(d)-(e) ordering: MIN collapses under ADV+1, VALn/UGAL do not."""
    throughputs = {}
    for algorithm in ("MIN", "VALn", "UGALn"):
        net = _run(algorithm, "ADV+1", load=0.3, horizon=25_000.0)
        throughputs[algorithm] = net.finalize().throughput
    assert throughputs["VALn"] > throughputs["MIN"] * 1.5
    assert throughputs["UGALn"] > throughputs["MIN"] * 1.5


def test_qadaptive_learns_adversarial_traffic():
    """After convergence Q-adaptive must divert traffic and beat minimal routing."""
    qadp = _run("Q-adp", "ADV+1", load=0.3, horizon=60_000.0)
    minimal = _run("MIN", "ADV+1", load=0.3, horizon=60_000.0)
    q_stats = qadp.finalize()
    m_stats = minimal.finalize()
    assert q_stats.throughput > m_stats.throughput * 1.5
    # learned non-minimal behaviour shows up as > 3 minimal hops on average is not
    # required (Q-adaptive may use direct global detours), but decisions must exist
    counts = qadp.routing.decision_counts()
    assert counts["source_best"] > 0


def test_qadaptive_stays_near_minimal_under_light_uniform_traffic():
    qadp = _run("Q-adp", "UR", load=0.2, horizon=30_000.0)
    minimal = _run("MIN", "UR", load=0.2, horizon=30_000.0)
    q_lat = qadp.finalize().mean_latency_ns
    m_lat = minimal.finalize().mean_latency_ns
    assert q_lat <= m_lat * 1.25


def test_deterministic_replay_across_full_stack():
    a = _run("Q-adp", "ADV+1", load=0.25, horizon=10_000.0, seed=5)
    b = _run("Q-adp", "ADV+1", load=0.25, horizon=10_000.0, seed=5)
    sa, sb = a.finalize(), b.finalize()
    assert sa.delivered_packets == sb.delivered_packets
    assert sa.mean_latency_ns == pytest.approx(sb.mean_latency_ns)
    assert a.routing.feedback_applied == b.routing.feedback_applied
