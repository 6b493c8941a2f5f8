"""Property-based tests (hypothesis) on the Dragonfly wiring invariants."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import LinkTiming, minimal_route, uncongested_delivery_time

# Small but varied configurations (including unbalanced ones).
configs = st.builds(
    DragonflyConfig,
    p=st.integers(min_value=1, max_value=3),
    a=st.integers(min_value=2, max_value=5),
    h=st.integers(min_value=1, max_value=3),
)


@settings(max_examples=25, deadline=None)
@given(configs)
def test_every_group_pair_has_exactly_one_global_link(config):
    topo = DragonflyTopology(config)
    counts = {pair: 0 for pair in itertools.combinations(range(topo.g), 2)}
    for router in topo.all_routers():
        src_group = topo.group_of_router(router)
        for port in topo.global_ports:
            other = topo.neighbor_of(router, port)[0]
            dst_group = topo.group_of_router(other)
            assert dst_group != src_group
            pair = tuple(sorted((src_group, dst_group)))
            counts[pair] += 1
    # every link is seen once from each side
    assert all(count == 2 for count in counts.values())


@settings(max_examples=25, deadline=None)
@given(configs)
def test_neighbor_symmetry_everywhere(config):
    topo = DragonflyTopology(config)
    for router in topo.all_routers():
        for port in topo.non_host_ports:
            other, other_port = topo.neighbor_of(router, port)
            assert topo.neighbor_of(other, other_port) == (router, port)


@settings(max_examples=25, deadline=None)
@given(configs, st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000))
def test_minimal_paths_respect_diameter_and_connectivity(config, src_raw, dst_raw):
    topo = DragonflyTopology(config)
    src = src_raw % topo.num_routers
    dst = dst_raw % topo.num_routers
    path = minimal_route(topo, src, dst)
    assert path[0] == src and path[-1] == dst
    assert len(path) - 1 == topo.minimal_hops(src, dst) <= 3
    for current, nxt in zip(path[:-1], path[1:], strict=False):
        assert any(
            topo.neighbor_of(current, port)[0] == nxt for port in topo.non_host_ports
        )
    # the path never visits a group other than source, destination, or a gateway step
    groups = {topo.group_of_router(r) for r in path}
    assert groups <= {topo.group_of_router(src), topo.group_of_router(dst)}


def _minimal_next_port_reference(topo, router, dest_router):
    """The per-pair rule the dense table replaced, from the group-level queries."""
    src_group, dst_group = topo.group_of_router(router), topo.group_of_router(dest_router)
    if src_group == dst_group:
        return topo.local_port_to(router, dest_router)
    direct = topo.global_port_to_group(router, dst_group)
    if direct is not None:
        return direct
    return topo.local_port_to(router, topo.gateway_router(src_group, dst_group))


@settings(max_examples=25, deadline=None)
@given(configs)
def test_dense_minimal_next_table_matches_the_per_pair_rule(config):
    topo = DragonflyTopology(config)
    table = topo.minimal_next_table()
    assert len(table) == topo.num_routers
    for router in topo.all_routers():
        assert len(table[router]) == topo.num_routers
        assert table[router][router] == -1
        with pytest.raises(ValueError, match="eject instead"):
            topo.minimal_next_port(router, router)
        for dest in topo.all_routers():
            if dest == router:
                continue
            port = table[router][dest]
            assert type(port) is int
            assert port == topo.minimal_next_port(router, dest)
            assert port == _minimal_next_port_reference(topo, router, dest)
            # walking the table reaches the destination in minimal_hops hops
            current, hops = router, 0
            while current != dest:
                current = topo.neighbor_of(current, table[current][dest])[0]
                hops += 1
                assert hops <= topo.diameter
            assert hops == topo.minimal_hops(router, dest)


@settings(max_examples=20, deadline=None)
@given(configs, st.integers(min_value=0, max_value=10_000))
def test_node_router_group_mapping_consistent(config, node_raw):
    topo = DragonflyTopology(config)
    node = node_raw % topo.num_nodes
    router = topo.router_of_node(node)
    assert node in topo.nodes_of_router(router)
    assert topo.node_at(router, topo.node_local_index(node)) == node
    assert router in topo.routers_in_group(topo.group_of_router(router))


@settings(max_examples=15, deadline=None)
@given(configs, st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=100))
def test_uncongested_estimates_positive_and_bounded(config, router_raw, group_raw):
    topo = DragonflyTopology(config)
    timing = LinkTiming()
    router = router_raw % topo.num_routers
    group = group_raw % topo.g
    for port in topo.non_host_ports:
        estimate = uncongested_delivery_time(topo, router, port, group, timing)
        assert estimate > 0
        # never more than: first hop + (local + global + local) + ejection
        upper = timing.hop_time(topo.port_type(port)) + 62.0 + 332.0 + 62.0 + 42.0
        assert estimate <= upper + 1e-9
