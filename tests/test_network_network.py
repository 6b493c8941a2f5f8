"""Integration tests of the wired network (routers + NICs + links + MIN routing)."""

import pytest

from repro.engine.batch.model import build_model
from repro.experiments.harness import ExperimentSpec
from repro.network.network import Network
from repro.network.params import NetworkParams
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig
from repro.topology.fattree import FatTreeConfig
from repro.topology.mesh import MeshConfig
from repro.topology.paths import minimal_delivery_time


def _network(config=None, **kwargs):
    config = config or DragonflyConfig.small_72()
    return Network(config, MinimalRouting(), **kwargs)


def test_component_counts_match_topology():
    net = _network()
    assert len(net.routers) == net.topo.num_routers == 36
    assert len(net.nics) == net.topo.num_nodes == 72
    assert net.num_nodes == 72 and net.num_routers == 36


FAMILIES = {
    "dragonfly": DragonflyConfig.small_72(),
    "fattree": FatTreeConfig.tiny(),
    "mesh": MeshConfig.small_72(),
    "torus": MeshConfig.small_72_torus(),
}


def test_channels_wired_consistently_with_topology():
    """One port table wires both engines, on every topology family."""
    for family, config in FAMILIES.items():
        net = _network(config)
        topo, params, k = net.topo, net.params, net.topo.k
        dark = 0
        for router in net.routers:
            r = router.id
            for port in range(k):
                f = r * k + port
                if port < topo.num_host_ports(r):
                    node = topo.node_at(r, port)
                    far, far_port = net.nics[node], 0
                    latency = params.host_link_latency_ns
                    assert (net.node_at[f], net.remote_idx[f]) == (node, -1)
                    assert router._cred_cap[port] is None
                else:
                    neighbor = topo.neighbor_of(r, port)
                    if neighbor is None:
                        dark += 1
                        assert (net.node_at[f], net.remote_idx[f]) == (-1, -1)
                        assert router._recv_cb[port] is None and router._ret_cb[port] is None
                        continue
                    far, far_port = net.routers[neighbor[0]], neighbor[1]
                    latency = params.link_latency_ns(topo.link_kind(r, port))
                    assert net.node_at[f] == -1
                    assert net.remote_idx[f] == neighbor[0] * k + neighbor[1]
                    assert router._cred_cap[port] == params.vc_buffer_packets
                assert router._recv_cb[port] == far.receive_packet
                assert router._ret_cb[port] == far.credit_return
                assert router._remote[port] == far_port
                assert router._lat[port] == net.lat[f] == latency
                hop_delay = params.serialization_ns + latency
                assert router._hop_delay[port] == net.hop_delay[f] == hop_delay
        assert (dark > 0) == (family == "mesh"), family
        for nic in net.nics:
            r = topo.router_of_node(nic.node)
            host_port = topo.host_port_of_node(nic.node)
            assert net.nic_fidx[nic.node] == r * k + host_port
            assert nic._recv_cb == net.routers[r].receive_packet
            assert nic._remote == host_port
        model = build_model(ExperimentSpec(
            config=config, routing="MIN", pattern="UR", offered_load=0.2,
            sim_time_ns=1_000.0, warmup_ns=0.0,
        ))
        for name in ("hop_delay", "lat", "node_at", "remote_idx", "cred_cap", "nic_fidx",
                     "nic_hop_delay", "nic_cred_cap"):
            assert getattr(model, name) == getattr(net, name), (family, name)


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


def test_record_paths_traces_visited_routers(router_paths):
    net = Network(DragonflyConfig.small_72(), MinimalRouting())
    topo = net.topo
    dst = next(
        n for n in topo.all_nodes() if topo.minimal_hops(0, topo.router_of_node(n)) == 3
    )
    packet = net.send(0, dst)
    net.run()
    routers_visited = [r for r, _ in router_paths[packet.pid]]
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
            assert router.used_credits(port) == 0
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

