"""Tests for the synthetic traffic patterns."""

import re

import numpy as np
import pytest

from repro.engine.rng import RngFactory
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.traffic import (
    AdversarialTraffic,
    HotspotTraffic,
    ManyToManyTraffic,
    PermutationTraffic,
    RandomNeighborsTraffic,
    Stencil3DTraffic,
    UniformRandomTraffic,
    make_pattern,
)
from repro.traffic.stencil import coords_to_node, node_to_coords


TOPO = DragonflyTopology(DragonflyConfig.small_72())


def _setup(pattern, topo=TOPO, seed=3):
    pattern.setup(topo, RngFactory(seed).py("test"))
    return pattern


def test_uniform_random_never_self_and_covers_many_destinations():
    pattern = _setup(UniformRandomTraffic())
    destinations = {pattern.destination(0) for _ in range(500)}
    assert 0 not in destinations
    assert len(destinations) > TOPO.num_nodes // 2
    assert all(0 <= d < TOPO.num_nodes for d in destinations)


def test_adversarial_targets_shifted_group():
    for shift in (1, 4):
        pattern = _setup(AdversarialTraffic(shift))
        for src in range(0, TOPO.num_nodes, 5):
            dst = pattern.destination(src)
            assert TOPO.group_of_node(dst) == (TOPO.group_of_node(src) + shift) % TOPO.g
            assert dst != src


def test_adversarial_rejects_bad_shift():
    with pytest.raises(ValueError):
        AdversarialTraffic(0)
    pattern = AdversarialTraffic(TOPO.g)
    with pytest.raises(ValueError):
        _setup(pattern)


def test_adversarial_refuses_a_target_group_without_nodes_on_both_engines():
    """A fat-tree's core switches form a group with no hosts: the run refuses
    it up front, naming the group, instead of failing at the first packet."""
    from repro.experiments import ExperimentSpec, run_experiment
    from repro.experiments.harness import _execute
    from repro.topology.fattree import FatTreeConfig

    spec = ExperimentSpec(config=FatTreeConfig(k=4), pattern="ADV+1", offered_load=0.2,
                          sim_time_ns=2_000.0, warmup_ns=500.0)
    expected = re.escape("ADV+1 sends group 3 to group 4, which has no nodes on this fattree "
                         "topology")
    for run in (run_experiment, _execute):  # the kernel, then the object graph
        with pytest.raises(ValueError, match=expected):
            run(spec)


def test_stencil_grid_mapping_roundtrip():
    dims = (TOPO.p, TOPO.a, TOPO.g)
    for node in range(0, TOPO.num_nodes, 7):
        x, y, z = node_to_coords(node, dims)
        assert coords_to_node(x, y, z, dims) == node


def test_stencil_neighbors_are_grid_adjacent():
    pattern = _setup(Stencil3DTraffic())
    dims = pattern.dims
    for node in range(0, TOPO.num_nodes, 11):
        neighbors = pattern.neighbors_of(node)
        assert 1 <= len(neighbors) <= 6
        x, y, z = node_to_coords(node, dims)
        for nb in neighbors:
            nx, ny, nz = node_to_coords(nb, dims)
            diffs = [
                min((x - nx) % dims[0], (nx - x) % dims[0]),
                min((y - ny) % dims[1], (ny - y) % dims[1]),
                min((z - nz) % dims[2], (nz - z) % dims[2]),
            ]
            assert sorted(diffs) == [0, 0, 1]
        for _ in range(10):
            assert pattern.destination(node) in neighbors


def test_stencil_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        _setup(Stencil3DTraffic(dims=(3, 3, 3)))


def test_many_to_many_communicator_along_z():
    pattern = _setup(ManyToManyTraffic())
    comm = pattern.communicator_of(0)
    assert len(comm) == TOPO.g  # default grid is p x a x g
    assert 0 in comm
    for _ in range(50):
        dst = pattern.destination(0)
        assert dst in comm and dst != 0


def test_random_neighbors_fixed_target_sets():
    pattern = _setup(RandomNeighborsTraffic(min_targets=6, max_targets=20))
    for node in range(0, TOPO.num_nodes, 9):
        targets = pattern.targets_of(node)
        assert 6 <= len(targets) <= 20
        assert node not in targets
        for _ in range(20):
            assert pattern.destination(node) in targets
    # target sets are stable across calls
    assert pattern.targets_of(0) == pattern.targets_of(0)


def test_random_neighbors_validation():
    with pytest.raises(ValueError):
        RandomNeighborsTraffic(min_targets=0)
    with pytest.raises(ValueError):
        RandomNeighborsTraffic(min_targets=10, max_targets=5)


def test_permutation_is_a_derangement_and_bijection():
    pattern = _setup(PermutationTraffic())
    partners = [pattern.destination(n) for n in range(TOPO.num_nodes)]
    assert sorted(partners) == list(range(TOPO.num_nodes))
    assert all(partner != node for node, partner in enumerate(partners))
    # the mapping is fixed over time
    assert pattern.destination(5) == partners[5]


def test_hotspot_concentrates_traffic():
    pattern = _setup(HotspotTraffic(hotspot_fraction=0.5, num_hotspots=2))
    hits = sum(1 for _ in range(2000) if pattern.destination(10) in pattern.hotspots)
    assert hits > 600  # ~50% plus the uniform share


def test_hotspot_explicit_nodes_and_validation():
    pattern = _setup(HotspotTraffic(hotspot_fraction=1.0, hotspot_nodes=[1, 2]))
    assert pattern.hotspots == [1, 2]
    assert pattern.destination(0) in (1, 2)
    with pytest.raises(ValueError):
        HotspotTraffic(hotspot_fraction=0.0)
    with pytest.raises(ValueError):
        _setup(HotspotTraffic(hotspot_nodes=[10_000]))


def test_every_available_pattern_name_is_accepted_verbatim():
    """available_patterns() must only list names make_pattern() parses."""
    from repro.traffic import available_patterns

    for name in available_patterns():
        assert make_pattern(name) is not None


def test_make_pattern_names():
    assert isinstance(make_pattern("UR"), UniformRandomTraffic)
    adv = make_pattern("ADV+4")
    assert isinstance(adv, AdversarialTraffic) and adv.shift == 4
    assert isinstance(make_pattern("3D Stencil"), Stencil3DTraffic)
    assert isinstance(make_pattern("many to many"), ManyToManyTraffic)
    assert isinstance(make_pattern("Random Neighbors"), RandomNeighborsTraffic)
    assert isinstance(make_pattern("permutation"), PermutationTraffic)
    assert isinstance(make_pattern("hotspot"), HotspotTraffic)
    with pytest.raises(ValueError):
        make_pattern("no-such-pattern")


def test_pattern_determinism_under_same_seed():
    a = _setup(UniformRandomTraffic(), seed=11)
    b = _setup(UniformRandomTraffic(), seed=11)
    assert [a.destination(3) for _ in range(20)] == [b.destination(3) for _ in range(20)]


@pytest.mark.parametrize("name", ["UR", "ADV+1", "ADV+4", "3D Stencil", "Many to Many",
                                  "Random Neighbors", "Permutation", "Hotspot"])
def test_bulk_destinations_equal_one_destination_call_per_source(name):
    """``destinations(nodes)`` draws exactly what one ``destination`` call
    per source would, in order, and leaves the stream where they would."""
    sources = np.array([0, 71, 5, 5, 40, 0, 13] * 30, dtype=np.intc)
    bulk, scalar = _setup(make_pattern(name)), _setup(make_pattern(name))
    expected = [scalar.destination(node) for node in sources.tolist()]
    assert bulk.destinations(sources).tolist() == expected
    assert bulk.rng.getstate() == scalar.rng.getstate()
    assert bulk.destinations(sources[:0]).tolist() == []
