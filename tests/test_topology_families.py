"""Tests for the non-Dragonfly topology families and the topology registry.

Covers the registry (names, aliases, family-tagged config serialization),
structural invariants of the fat-tree and mesh/torus wirings, golden
determinism fingerprints for the new families (recorded at their
introduction: same seed ⇒ bit-identical statistics, like the Dragonfly
goldens), the probes-off equivalence on every family, and the spec schema
v3 → v4 migration around the ``topology`` block.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.harness import ExperimentSpec, build_network
from repro.instrument import available_probes, make_probe
from repro.network.network import Network
from repro.routing import available_algorithms, make_routing
from repro.topology.config import DragonflyConfig
from repro.topology.fattree import FatTreeConfig, FatTreeTopology
from repro.topology.mesh import MeshConfig, MeshTopology
from repro.topology.registry import (
    available_topologies,
    canonical_family,
    config_from_dict,
    config_to_dict,
    default_config,
    family_of_config,
    parse_config,
    topology_for,
)
from repro.traffic import TrafficGenerator, UniformRandomTraffic

GOLDEN_TOPO_PATH = os.path.join(os.path.dirname(__file__), "data",
                                "golden_determinism_topologies.json")

with open(GOLDEN_TOPO_PATH) as _fh:
    GOLDEN_TOPO = json.load(_fh)

CONFIGS = {
    "fattree": FatTreeConfig.tiny(),
    "mesh": MeshConfig.small_72(),
    "torus": MeshConfig.small_72_torus(),
}


# ------------------------------------------------------------------- registry
def test_builtin_topologies_registered_in_order():
    assert available_topologies() == ["dragonfly", "fattree", "mesh", "torus"]


def test_aliases_and_canonical_families():
    assert canonical_family("dfly") == "dragonfly"
    assert canonical_family("fat-tree") == "fattree"
    assert canonical_family("clos") == "fattree"
    assert canonical_family("torus") == "mesh"  # torus is a mesh-family entry


#: the families each routing attaches to: the Dragonfly-specific routings
#: name it, the topology-generic ones take any family (``None``).
ROUTING_FAMILIES = {
    "MIN": None, "VAL": None, "Q-routing": None,
    "VALg": ("dragonfly",), "VALn": ("dragonfly",), "UGALg": ("dragonfly",),
    "UGALn": ("dragonfly",), "PAR": ("dragonfly",), "Q-adp": ("dragonfly",),
}


@pytest.mark.parametrize("name", sorted(ROUTING_FAMILIES))
def test_each_routing_attaches_to_exactly_its_families(name):
    # A routing that loses its declaration inherits "any family" and then
    # runs Dragonfly-only logic on a mesh or a fat-tree.
    assert set(ROUTING_FAMILIES) == set(available_algorithms())
    routing = make_routing(name)
    families = ROUTING_FAMILIES[name]
    assert routing.supported_topologies == families
    routing.check_topology(topology_for(DragonflyConfig.tiny()))
    for config in CONFIGS.values():
        topo = topology_for(config)
        if families is None:
            routing.check_topology(topo)
        else:
            with pytest.raises(ValueError, match=f"not {topo.family!r}"):
                routing.check_topology(topo)


def test_default_configs_match_families():
    assert isinstance(default_config("dragonfly"), DragonflyConfig)
    assert isinstance(default_config("fattree"), FatTreeConfig)
    assert default_config("mesh").wrap is False
    assert default_config("torus").wrap is True


def test_parse_config_presets_and_dims():
    assert parse_config("dragonfly", "2,4,2") == DragonflyConfig(p=2, a=4, h=2)
    assert parse_config("fattree", "tiny") == FatTreeConfig.tiny()
    assert parse_config("fattree", "6") == FatTreeConfig(k=6)
    assert parse_config("mesh", "3,5,2") == MeshConfig(rows=3, cols=5, p=2)
    assert parse_config("torus", "3,5,2") == MeshConfig(rows=3, cols=5, p=2, wrap=True)
    with pytest.raises(ValueError, match="comma-separated"):
        parse_config("mesh", "3,5")
    with pytest.raises(ValueError, match="non-integer"):
        parse_config("fattree", "six")


@pytest.mark.parametrize("config", [
    DragonflyConfig.small_72(),
    FatTreeConfig.tiny(),
    MeshConfig.small_72(),
    MeshConfig.small_72_torus(),
])
def test_family_tagged_config_round_trip(config):
    data = config_to_dict(config)
    assert data["family"] == family_of_config(config).family
    json.dumps(data)
    assert config_from_dict(data) == config


def test_config_from_dict_requires_a_family():
    """A family-less topology block is rejected."""
    with pytest.raises(ValueError, match="missing required field 'family'"):
        config_from_dict({"p": 2, "a": 4, "h": 2})


def test_config_from_dict_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown topology family"):
        config_from_dict({"family": "hypercube", "dim": 4})
    with pytest.raises(ValueError, match="must be a string"):
        config_from_dict({"family": 3, "p": 2, "a": 4, "h": 2})


def test_family_of_config_rejects_foreign_types():
    with pytest.raises(ValueError, match="no registered topology family"):
        family_of_config(object())


# ------------------------------------------------------- structural invariants
@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_wiring_is_symmetric(config):
    """Every inter-router link has a reciprocal on the peer router."""
    topo = topology_for(config)
    for router in topo.all_routers():
        for port in topo.network_ports_of(router):
            link = topo.neighbor_of(router, port)
            if link is None:
                continue
            peer, peer_port = link
            assert topo.neighbor_of(peer, peer_port) == (router, port)


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_minimal_next_table_is_the_per_pair_query_tabulated(config):
    topo = topology_for(config)
    table = topo.minimal_next_table()
    for router in topo.all_routers():
        assert table[router] == [
            -1 if dest == router else topo.minimal_next_port(router, dest)
            for dest in topo.all_routers()
        ]


def test_fattree_structure():
    topo = FatTreeTopology.for_config(FatTreeConfig.tiny())  # k=4
    k = 4
    edge, agg, core = k * k // 2, k * k // 2, (k // 2) ** 2
    assert topo.num_routers == edge + agg + core == 20
    assert topo.num_nodes == k ** 3 // 4 == 16
    assert topo.diameter == 4
    # only edge switches bear hosts
    hosts = [topo.num_host_ports(r) for r in topo.all_routers()]
    assert hosts[:edge] == [k // 2] * edge
    assert hosts[edge:] == [0] * (edge + core)


def test_mesh_and_torus_distances():
    mesh = MeshTopology.for_config(MeshConfig(rows=4, cols=4, p=1))
    torus = MeshTopology.for_config(MeshConfig(rows=4, cols=4, p=1, wrap=True))
    # corner to opposite corner: mesh walks the full Manhattan distance,
    # the torus wraps both axes.
    assert mesh.minimal_hops(0, 15) == 6
    assert torus.minimal_hops(0, 15) == 2
    assert torus.diameter < mesh.diameter


def test_mesh_config_round_trip_and_strictness():
    config = MeshConfig(rows=3, cols=5, p=2, wrap=True)
    assert MeshConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError):
        MeshConfig.from_dict({"rows": 3, "cols": 5, "p": 2, "diag": True})
    with pytest.raises(ValueError):
        FatTreeConfig(k=5)  # k must be even


# ------------------------------------------------------ golden determinism
def _fingerprint(entry: str, routing: str, pattern: str) -> dict:
    spec = ExperimentSpec(
        config=CONFIGS[entry],
        routing=routing,
        pattern=pattern,
        offered_load=0.3,
        sim_time_ns=6_000.0,
        warmup_ns=2_000.0,
        seed=11,
    )
    network, generator = build_network(spec)
    generator.start()
    network.run(until=spec.sim_time_ns)
    stats = network.finalize()
    return {
        "events_processed": network.sim.events_processed,
        "generated_packets": stats.generated_packets,
        "delivered_packets": stats.delivered_packets,
        "measured_packets": stats.measured_packets,
        "mean_latency_ns": stats.mean_latency_ns,
        "mean_hops": stats.mean_hops,
        "throughput": stats.throughput,
        "latency_median_ns": stats.latency.median,
        "latency_p99_ns": stats.latency.p99,
    }


@pytest.mark.parametrize("key", sorted(GOLDEN_TOPO))
def test_topology_golden_fingerprint_is_reproduced(key):
    entry, routing, pattern = key.split("/", 2)
    assert _fingerprint(entry, routing, pattern) == GOLDEN_TOPO[key]


# ------------------------------------------------------ probes-off fast path
@pytest.mark.parametrize("entry", sorted(CONFIGS))
def test_probes_do_not_change_results_on_any_family(entry):
    """Keeping every probe's logs moves no event and no statistic, per family."""
    def run(with_probes: bool):
        net = Network(CONFIGS[entry], make_routing("Q-routing"), seed=11)
        if with_probes:
            net.record_logs(log for name in available_probes()
                            for log in make_probe(name).logs)
        generator = TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.3)
        generator.start()
        net.run(until=6_000.0)
        return net.sim.events_processed, net.finalize()

    events_off, stats_off = run(False)
    events_on, stats_on = run(True)
    assert events_on == events_off
    assert stats_on == stats_off


# ------------------------------------------------------- spec v3 → v4 migration
def _spec(config) -> ExperimentSpec:
    return ExperimentSpec(
        config=config, routing="MIN", pattern="UR", offered_load=0.2,
        sim_time_ns=4_000.0, warmup_ns=2_000.0, seed=3,
    )


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_spec_topology_block_round_trips(config):
    spec = _spec(config)
    data = spec.to_dict()
    assert data["schema"] == 5
    assert data["topology"]["family"] == family_of_config(config).family
    assert "config" not in data
    clone = ExperimentSpec.from_dict(data)
    assert clone == spec


def test_spec_schema_v3_config_block_is_rejected():
    """Neither the ``config`` key, nor a family-less ``topology`` block, nor
    the schema-3 stamp is readable."""
    spec = _spec(DragonflyConfig.small_72())
    data = spec.to_dict()
    bare = {k: v for k, v in data["topology"].items() if k != "family"}
    with pytest.raises(ValueError, match=r"ExperimentSpec: unsupported schema version 3 "
                                         r"\(this build reads version 5\)"):
        ExperimentSpec.from_dict({**data, "schema": 3})
    with pytest.raises(ValueError, match="missing required field 'family'"):
        ExperimentSpec.from_dict({**data, "topology": bare})
    legacy = {k: v for k, v in data.items() if k != "topology"}
    legacy["config"] = bare
    with pytest.raises(ValueError, match=r"missing required field\(s\) \['topology'\]"):
        ExperimentSpec.from_dict(legacy)


def test_spec_rejects_both_or_neither_config_key():
    data = _spec(DragonflyConfig.small_72()).to_dict()
    both = dict(data)
    both["config"] = {"p": 2, "a": 4, "h": 2}
    with pytest.raises(ValueError, match=r"ExperimentSpec: unknown field\(s\) \['config'\]"):
        ExperimentSpec.from_dict(both)
    neither = {k: v for k, v in data.items() if k != "topology"}
    with pytest.raises(ValueError, match=r"ExperimentSpec: missing required field\(s\) "
                                         r"\['topology'\]"):
        ExperimentSpec.from_dict(neither)
