"""Integration tests of the wired network (routers + NICs + links + MIN routing)."""

import pytest

from repro.network.network import Network
from repro.network.params import NetworkParams
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig
from repro.topology.paths import minimal_delivery_time


def _network(config=None, **kwargs):
    config = config or DragonflyConfig.small_72()
    return Network(config, MinimalRouting(), **kwargs)


def test_component_counts_match_topology():
    net = _network()
    assert len(net.routers) == net.topo.num_routers == 36
    assert len(net.nics) == net.topo.num_nodes == 72
    assert net.num_nodes == 72 and net.num_routers == 36


def test_channels_wired_consistently_with_topology():
    net = _network()
    topo = net.topo
    for router in net.routers:
        for port in topo.non_host_ports:
            channel = router.channels[port]
            neighbor_id, neighbor_port = topo.neighbor_of(router.id, port)
            assert channel.endpoint is net.routers[neighbor_id]
            assert channel.remote_port == neighbor_port
        for host_port in topo.host_ports:
            node = topo.node_at(router.id, host_port)
            assert router.channels[host_port].endpoint is net.nics[node]
    for nic in net.nics:
        router_id = topo.router_of_node(nic.node)
        assert nic.channel.endpoint is net.routers[router_id]
        assert nic.channel.remote_port == topo.host_port_of_node(nic.node)


def test_num_vcs_comes_from_routing_algorithm():
    net = _network()
    assert net.params.num_vcs == 3  # MIN needs one VC per minimal hop
    explicit = Network(
        DragonflyConfig.tiny(), MinimalRouting(), params=NetworkParams(num_vcs=7)
    )
    assert explicit.params.num_vcs == 7


def test_single_packet_uncongested_latency_is_exact():
    net = _network()
    topo, params = net.topo, net.params
    src_node = 0
    # pick a destination whose minimal path is the full 3 hops
    dst_node = next(
        n for n in topo.all_nodes()
        if topo.minimal_hops(topo.router_of_node(src_node), topo.router_of_node(n)) == 3
    )
    packet = net.send(src_node, dst_node)
    net.run()
    assert packet.delivered
    injection = params.serialization_ns + params.host_link_latency_ns
    expected = injection + minimal_delivery_time(
        topo, topo.router_of_node(src_node), topo.router_of_node(dst_node), params.timing()
    )
    assert packet.latency_ns == pytest.approx(expected)
    assert packet.hops == 3


def test_intra_router_packet_takes_zero_router_hops():
    config = DragonflyConfig.small_72()
    net = _network(config)
    packet = net.send(0, 1)  # both nodes attach to router 0
    net.run()
    assert packet.delivered
    assert packet.hops == 0


def test_send_rejects_self_traffic():
    net = _network()
    with pytest.raises(ValueError):
        net.send(3, 3)


def test_record_paths_traces_visited_routers():
    net = Network(
        DragonflyConfig.small_72(), MinimalRouting(), params=NetworkParams(record_paths=True)
    )
    topo = net.topo
    dst = next(
        n for n in topo.all_nodes() if topo.minimal_hops(0, topo.router_of_node(n)) == 3
    )
    packet = net.send(0, dst)
    net.run()
    routers_visited = [r for r in packet.path if r >= 0]
    assert routers_visited[0] == topo.router_of_node(0)
    assert routers_visited[-1] == topo.router_of_node(dst)
    assert routers_visited == topo.minimal_router_path(0, topo.router_of_node(dst))


def test_many_packets_all_delivered_and_credits_restored():
    net = _network(DragonflyConfig.tiny())
    rng_nodes = net.topo.num_nodes
    for src in range(rng_nodes):
        for dst in range(rng_nodes):
            if src != dst:
                net.send(src, dst)
    net.run()
    assert net.packets_in_flight() == 0
    assert net.buffered_packets() == 0
    assert net.source_queued_packets() == 0
    for router in net.routers:
        for port in net.topo.non_host_ports:
            credits = router.credits[port]
            assert credits.total_used() == 0
    stats = net.finalize()
    assert stats.delivered_packets == rng_nodes * (rng_nodes - 1)


def test_routing_instance_cannot_be_shared_between_networks():
    routing = MinimalRouting()
    Network(DragonflyConfig.tiny(), routing)
    with pytest.raises(RuntimeError):
        Network(DragonflyConfig.tiny(), routing)


def test_ejection_port_serializes_back_to_back_deliveries():
    net = _network(DragonflyConfig.tiny())
    topo = net.topo
    # two different sources target the same destination node at the same time
    dst = 5
    sources = [n for n in topo.all_nodes() if n != dst][:2]
    packets = [net.send(src, dst) for src in sources]
    net.run()
    times = sorted(p.deliver_time_ns for p in packets)
    assert times[1] - times[0] >= net.params.serialization_ns - 1e-9


def test_run_stats_counts_match_collector():
    net = _network(DragonflyConfig.tiny())
    net.send(0, 3)
    net.send(2, 4)
    net.run()
    stats = net.finalize()
    assert stats.generated_packets == 2
    assert stats.delivered_packets == 2
    assert stats.measured_packets == 2
    assert stats.mean_hops >= 0

