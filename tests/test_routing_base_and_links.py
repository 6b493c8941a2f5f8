"""Tests for the routing base class and MARL feedback plumbing."""

import pytest

from repro.core.marl import TabularMarlRouting
from repro.network.network import Network
from repro.routing.base import RoutingAlgorithm
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology


def test_routing_base_is_abstract():
    with pytest.raises(TypeError):
        RoutingAlgorithm()  # decide() is abstract


def test_routing_attach_binds_topology_and_rng():
    routing = MinimalRouting()
    net = Network(DragonflyConfig.tiny(), routing)
    assert routing.network is net
    assert routing.topo is net.topo
    assert routing.rng is not None
    # re-attaching to the same network is a no-op, a different network raises
    routing.attach(net)
    with pytest.raises(RuntimeError):
        routing.attach(object())


def test_route_ejects_at_destination_router():
    routing = MinimalRouting()
    net = Network(DragonflyConfig.tiny(), routing)
    topo = net.topo
    packet = net.create_packet(0, 1)
    out_port = routing.route(net.routers[topo.router_of_node(1)], packet, in_port=0)
    assert topo.is_host_port(out_port)
    assert out_port == topo.host_port_of_node(1)


def test_minimal_port_helper_matches_topology():
    routing = MinimalRouting()
    net = Network(DragonflyConfig.small_72(), routing)
    topo = net.topo
    packet = net.create_packet(0, topo.num_nodes - 1)
    router = net.routers[0]
    assert routing.minimal_port(router, packet) == topo.minimal_next_port(0, packet.dst_router)


def test_marl_base_rejects_bad_feedback_mode():
    from repro.core.hysteretic import HystereticParams

    class Dummy(TabularMarlRouting):
        def decide(self, router, packet, in_port):  # pragma: no cover - never called
            return 0

    with pytest.raises(ValueError):
        Dummy(HystereticParams(), feedback_mode="nonsense")


def test_required_vcs_default_equals_max_hops():
    topo = DragonflyTopology(DragonflyConfig.small_72())

    class ThreeHop(RoutingAlgorithm):
        def decide(self, router, packet, in_port):  # pragma: no cover
            return self.minimal_port(router, packet)

    algo = ThreeHop()
    assert algo.max_hops(topo) == algo.required_vcs(topo) == 3
