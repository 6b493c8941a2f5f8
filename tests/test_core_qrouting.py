"""Tests for the Q-routing baseline with the naive maxQ fix (Section 2.3.2)."""

import pytest

from repro.core.qrouting import QRoutingAlgorithm, QRoutingParams
from repro.network.network import Network
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.traffic import LoadSchedule, TrafficGenerator, UniformRandomTraffic


CONFIG = DragonflyConfig.small_72()


def test_params_validation_and_hysteretic_fallback():
    params = QRoutingParams(alpha=0.3)
    assert params.hysteretic().alpha == 0.3
    assert params.hysteretic().beta == 0.3  # single learning rate by default
    assert QRoutingParams(alpha=0.3, beta=0.05).hysteretic().beta == 0.05
    with pytest.raises(ValueError):
        QRoutingParams(max_q=-1)
    with pytest.raises(ValueError):
        QRoutingParams(epsilon=2.0)
    with pytest.raises(ValueError):
        QRoutingAlgorithm(QRoutingParams(), max_q=3)


def test_vc_budget_scales_with_maxq():
    topo = DragonflyTopology(CONFIG)
    assert QRoutingAlgorithm(max_q=0).required_vcs(topo) == 3
    assert QRoutingAlgorithm(max_q=4).required_vcs(topo) == 7


def test_tables_are_per_destination_router():
    routing = QRoutingAlgorithm(max_q=2)
    net = Network(CONFIG, routing, seed=3)
    topo = net.topo
    assert routing.values.shape == (topo.num_routers, topo.num_routers, topo.k - topo.p)
    # twice the rows of the two-level design for a balanced Dragonfly
    assert routing.values.shape[1] == 2 * topo.g * topo.p


def test_maxq_zero_behaves_like_minimal_routing(router_paths):
    routing = QRoutingAlgorithm(max_q=0, epsilon=0.0)
    net = Network(CONFIG, routing, seed=3)
    topo = net.topo
    dst = next(n for n in topo.all_nodes() if topo.minimal_hops(0, topo.router_of_node(n)) == 3)
    packet = net.send(0, dst)
    net.run()
    assert packet.hops == 3
    routers = [r for r, _ in router_paths[packet.pid]]
    assert routers == topo.minimal_router_path(0, topo.router_of_node(dst))
    assert routing.forced_minimal > 0


def test_hop_bound_maxq_plus_three():
    maxq = 3
    routing = QRoutingAlgorithm(max_q=maxq, epsilon=0.3)  # heavy exploration
    net = Network(CONFIG, routing, seed=4)
    gen = TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.25)
    gen.start()
    net.run(until=15_000.0)
    hops = net.collector.hops_array()
    assert hops.size
    assert hops.max() <= maxq + 3


def test_learning_happens_and_packets_delivered():
    routing = QRoutingAlgorithm(max_q=4)
    net = Network(CONFIG, routing, seed=4)
    gen = TrafficGenerator(net, UniformRandomTraffic(),
                           schedule=LoadSchedule.step(0.25, 8_000.0, 0.0))
    gen.start()
    net.run(until=8_000.0)
    net.drain(extra_ns=100_000.0)
    assert routing.feedback_applied > 0
    assert routing.greedy_decisions > 0
    assert net.packets_in_flight() == 0
