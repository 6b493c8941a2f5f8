"""Tests for MIN, VALg and VALn routing."""

import pytest

from repro.network.network import Network
from repro.routing import make_routing
from repro.routing.minimal import MinimalRouting
from repro.routing.valiant import (
    ValiantGlobalRouting,
    ValiantNodeRouting,
    choose_intermediate_group,
    choose_intermediate_router,
)
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology


CONFIG = DragonflyConfig.small_72()


def _run_pairs(routing, pairs, config=CONFIG):
    """Send one packet per (src, dst) pair and return the delivered packets."""
    net = Network(config, routing, seed=11)
    packets = [net.send(src, dst) for src, dst in pairs]
    net.run()
    assert all(p.delivered for p in packets)
    return net, packets


def _inter_group_pairs(topo: DragonflyTopology, count=30):
    pairs = []
    for i in range(count):
        src = (i * 7) % topo.num_nodes
        dst = (i * 13 + topo.num_nodes // 2) % topo.num_nodes
        if src != dst and topo.group_of_node(src) != topo.group_of_node(dst):
            pairs.append((src, dst))
    return pairs


def test_minimal_routing_follows_minimal_paths(router_paths):
    topo = DragonflyTopology(CONFIG)
    pairs = _inter_group_pairs(topo)
    net, packets = _run_pairs(MinimalRouting(), pairs)
    for packet in packets:
        routers = [r for r, _ in router_paths[packet.pid]]
        expected = topo.minimal_router_path(
            topo.router_of_node(packet.src_node), topo.router_of_node(packet.dst_node)
        )
        assert routers == expected
        assert packet.hops <= 3


def test_minimal_required_vcs():
    topo = DragonflyTopology(CONFIG)
    assert MinimalRouting().required_vcs(topo) == 3
    assert ValiantGlobalRouting().required_vcs(topo) == 5
    assert ValiantNodeRouting().required_vcs(topo) == 6


def test_valg_paths_within_five_hops_and_visit_intermediate_group(router_paths):
    topo = DragonflyTopology(CONFIG)
    pairs = _inter_group_pairs(topo)
    net, packets = _run_pairs(ValiantGlobalRouting(), pairs)
    nonminimal_seen = 0
    for packet in packets:
        assert packet.hops <= 5
        routers = [r for r, _ in router_paths[packet.pid]]
        groups = {topo.group_of_router(r) for r in routers}
        src_group = topo.group_of_node(packet.src_node)
        dst_group = topo.group_of_node(packet.dst_node)
        imd_group = packet.scratch  # VALg keeps the intermediate group here
        if imd_group not in (src_group, dst_group):
            assert imd_group in groups
            nonminimal_seen += 1
    assert nonminimal_seen > 0


def test_valn_paths_within_six_hops_and_visit_intermediate_router(router_paths):
    topo = DragonflyTopology(CONFIG)
    pairs = _inter_group_pairs(topo)
    net, packets = _run_pairs(ValiantNodeRouting(), pairs)
    for packet in packets:
        assert packet.hops <= 6
        routers = [r for r, _ in router_paths[packet.pid]]
        imd_router = packet.scratch[0]  # VALn scratch: [imd_router, reached]
        if packet.nonminimal:
            assert imd_router in routers


def test_valiant_intra_group_traffic_stays_minimal():
    topo = DragonflyTopology(CONFIG)
    # source and destination in the same group (different routers)
    pairs = [(0, topo.p * 2), (1, topo.p * 3)]
    net, packets = _run_pairs(ValiantNodeRouting(), pairs)
    for packet in packets:
        assert packet.hops <= 1


def test_choose_intermediate_group_excludes_endpoints(small_topo):
    import random

    rng = random.Random(0)
    for _ in range(200):
        group = choose_intermediate_group(rng, small_topo.g, 0, 1)
        assert group not in (0, 1)
        router = choose_intermediate_router(rng, small_topo, 2, 3)
        assert small_topo.group_of_router(router) not in (2, 3)


def test_make_routing_registry_names():
    for name, cls_name in [
        ("MIN", "MinimalRouting"),
        ("VALg", "ValiantGlobalRouting"),
        ("VALn", "ValiantNodeRouting"),
        ("UGALg", "UgalGRouting"),
        ("UGALn", "UgalNRouting"),
        ("PAR", "ParRouting"),
        ("Q-adp", "QAdaptiveRouting"),
        ("Q-routing", "QRoutingAlgorithm"),
    ]:
        assert make_routing(name).__class__.__name__ == cls_name
    with pytest.raises(ValueError):
        make_routing("no-such-routing")
