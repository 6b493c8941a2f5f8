"""Tests for the Q-table designs (Tables 2 and 3 of the paper) and the
``[routers, rows, cols]`` value block both engines hold them in."""

import numpy as np
import pytest

import repro.core.qtable as qtable_module
import repro.topology.paths as paths_module
from repro.core.hysteretic import hysteretic_update
from repro.core.qrouting import QRoutingAlgorithm
from repro.core.qtable import (
    UNREACHABLE_NS,
    qrouting_initial_values,
    qtable_memory_comparison,
    two_level_initial_values,
)
from repro.engine.batch import BatchSimulation
from repro.engine.batch.model import build_model
from repro.experiments.harness import ExperimentSpec, _execute, build_network, run_experiment
from repro.network.network import Network
from repro.topology.base import PortType
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import LinkTiming, uncongested_delivery_time
from repro.topology.registry import family_by_name, topology_for


TOPO = DragonflyTopology(DragonflyConfig.small_72())
TIMING = LinkTiming()


def test_two_level_table_shape_matches_paper():
    block = two_level_initial_values(TOPO, TIMING)
    assert block.shape == (TOPO.num_routers, TOPO.g * TOPO.p, TOPO.k - TOPO.p)


def test_qrouting_table_shape_matches_paper():
    block = qrouting_initial_values(TOPO, TIMING)
    assert block.shape == (TOPO.num_routers, TOPO.num_routers, TOPO.k - TOPO.p)


def test_two_level_table_is_half_the_size_for_balanced_dragonfly():
    for config in (DragonflyConfig.small_72(), DragonflyConfig.paper_1056(),
                   DragonflyConfig.paper_2550()):
        comparison = qtable_memory_comparison(config)
        assert comparison["saving_fraction"] == pytest.approx(0.5)
        assert comparison["two_level_bytes"] * 2 == comparison["original_bytes"]


def test_memory_saving_differs_for_unbalanced_config():
    comparison = qtable_memory_comparison(DragonflyConfig(p=1, a=4, h=2))
    assert comparison["saving_fraction"] == pytest.approx(1.0 - (9 * 1) / 36)


@pytest.mark.parametrize("routing", ["Q-adp", "Q-routing"])
def test_table_memory_matches_the_paper_on_both_engines(routing):
    """Tables 2 vs 3 end to end: the system memory both engines report is
    ``qtable_memory_comparison``'s two-level (Q-adp) or original (Q-routing)
    total."""
    config = DragonflyConfig.small_72()
    expected = qtable_memory_comparison(config)[
        "system_two_level_bytes" if routing == "Q-adp" else "system_original_bytes"]
    spec = ExperimentSpec(config=config, routing=routing, pattern="UR", offered_load=0.2,
                          sim_time_ns=1_000.0, warmup_ns=0.0, seed=3)
    kernel = run_experiment(spec)
    object_graph, _ = _execute(spec)
    assert kernel.routing_diagnostics["table_memory_bytes"] == expected
    assert object_graph.routing_diagnostics["table_memory_bytes"] == expected


_SMALL_QADP = ExperimentSpec(config=DragonflyConfig.small_72(), routing="Q-adp", pattern="UR",
                           offered_load=0.3, sim_time_ns=1_000.0, warmup_ns=0.0, seed=3)


def test_row_for_two_level_indexing():
    network = build_network(_SMALL_QADP)[0]
    routing, topo = network.routing, network.topo
    nodes_per_group = topo.a * topo.p
    last_row = routing.values.shape[1] - 1
    for src, dst, row in ((0, 1, 0),
                          (1, 3 * nodes_per_group, 3 * topo.p + 1),
                          (topo.p - 1, topo.num_nodes - 1, last_row)):
        assert routing._row_for(network.create_packet(src, dst)) == row


def test_column_port_roundtrip():
    """The forward tag names column ``port - first_port``; ejection tags nothing."""
    network = build_network(_SMALL_QADP)[0]
    routing, topo = network.routing, network.topo
    router = network.routers[0]
    for port in topo.non_host_ports:
        packet = network.create_packet(0, topo.num_nodes - 1)
        routing.on_forward(router, packet, 0, port, 0.0)
        column = packet.qfeedback[2]
        assert 0 <= column < routing.values.shape[2]
        assert column + routing.first_port == port
    packet = network.create_packet(0, 1)
    routing.on_forward(router, packet, 0, topo.host_port_of_node(1), 0.0)
    assert packet.qfeedback is None


def test_initialize_uncongested_matches_path_estimates():
    router_id = 7
    table = two_level_initial_values(TOPO, TIMING)[router_id]
    for port in TOPO.non_host_ports:
        for group in range(TOPO.g):
            expected = uncongested_delivery_time(TOPO, router_id, port, group, TIMING)
            for node_local in range(TOPO.p):
                row = group * TOPO.p + node_local
                assert table[row, port - TOPO.p] == pytest.approx(expected)


#: non-default constants whose sums round differently under reassociation, so
#: "bit-identical" below also pins the order the three terms are added in.
AWKWARD_TIMING = LinkTiming(serialization_ns=1 / 3, local_latency_ns=1e-3,
                            global_latency_ns=123.456, host_latency_ns=7.7)


@pytest.mark.parametrize("timing", [TIMING, AWKWARD_TIMING], ids=["default", "awkward"])
@pytest.mark.parametrize("pah", [(2, 4, 2), (4, 8, 4), (1, 4, 2)], ids=str)
def test_two_level_block_is_bit_identical_to_the_per_entry_reference(pah, timing):
    topo = DragonflyTopology(DragonflyConfig(*pah))
    block = two_level_initial_values(topo, timing)
    assert block.dtype == np.float64 and block.flags.c_contiguous
    expected = np.array([
        [[uncongested_delivery_time(topo, router, port, group, timing)
          for port in topo.non_host_ports]
         for group in range(topo.g) for _node_local in range(topo.p)]
        for router in topo.all_routers()
    ])
    assert np.array_equal(block, expected)


def _qrouting_reference(topo, timing, src_id):
    """Per-entry loops computing one router's Q-routing initial values."""
    first_port, num_ports = topo.table_port_span()
    values = np.zeros((topo.num_routers, num_ports))
    eject = timing.hop_time(PortType.HOST)
    local = timing.hop_time(PortType.LOCAL)
    glob = timing.hop_time(PortType.GLOBAL)
    for col in range(num_ports):
        port = first_port + col
        neighbor = topo.neighbor_of(src_id, port)
        if neighbor is None:
            values[:, col] = UNREACHABLE_NS
            continue
        first = timing.hop_time(topo.link_kind(src_id, port))
        neighbor = neighbor[0]
        for dest in range(topo.num_routers):
            if neighbor == dest:
                remaining = 0.0
            elif topo.family != "dragonfly":
                remaining = topo.minimal_hops(neighbor, dest) * local
            elif topo.group_of_router(neighbor) == topo.group_of_router(dest):
                remaining = local
            else:
                n_group, d_group = topo.group_of_router(neighbor), topo.group_of_router(dest)
                remaining = 0.0
                if topo.global_port_to_group(neighbor, d_group) is None:
                    remaining += local
                remaining += glob
                if topo.gateway_router(d_group, n_group) != dest:
                    remaining += local
            values[dest, col] = first + remaining + eject
    return values


@pytest.mark.parametrize("timing", [TIMING, AWKWARD_TIMING], ids=["default", "awkward"])
@pytest.mark.parametrize("family", ["dragonfly", "fattree", "mesh", "torus"])
def test_qrouting_block_is_bit_identical_to_the_per_entry_reference(family, timing):
    topo = topology_for(family_by_name(family).presets["tiny"]())
    block = qrouting_initial_values(topo, timing)
    assert block.dtype == np.float64 and block.flags.c_contiguous
    for router in topo.all_routers():
        assert np.array_equal(block[router], _qrouting_reference(topo, timing, router))


def test_qrouting_initialization_favours_minimal_port():
    router_id = 0
    table = qrouting_initial_values(TOPO, TIMING)[router_id]
    for dest in range(0, TOPO.num_routers, 7):
        if dest == router_id:
            continue
        min_port = TOPO.minimal_next_port(router_id, dest)
        assert table[dest, min_port - TOPO.p] <= table[dest].min() + 1e-9


def test_best_port_respects_candidate_restriction():
    """Q-routing's greedy pick is the row argmin, ranked over the live ports
    only while faults are active."""
    routing = QRoutingAlgorithm(epsilon=0.0)
    network = Network(DragonflyConfig.small_72(), routing, seed=3)
    topo = network.topo
    packet = network.create_packet(0, topo.num_nodes - 1)
    row = routing.values[0, packet.dst_router]
    row[:] = 100.0
    local_port, global_port = topo.local_ports[0], topo.global_ports[0]
    row[global_port - routing.first_port] = 1.0
    row[local_port - routing.first_port] = 5.0
    router = network.routers[0]
    assert routing.decide(router, packet, 0) == global_port
    routing.on_fault_update([list(topo.local_ports)] * topo.num_routers, frozenset())
    assert routing.decide(router, packet, 0) == local_port


def test_min_value_and_apply_delta():
    """Greedy feedback sends reward + the row minimum of the sending router,
    folded into the previous hop's entry after the reverse-link latency."""
    routing = QRoutingAlgorithm()
    network = Network(DragonflyConfig.small_72(), routing, seed=3)
    topo = network.topo
    packet = network.create_packet(0, topo.num_nodes - 1)
    dest = packet.dst_router
    routing.values[1, dest, :] = 10.0
    routing.values[1, dest, 3] = 4.0
    routing.values[0, dest, 2] = 100.0
    packet.qfeedback = (0, dest, 2, 0.0)
    packet.router_arrival_ns = 50.0
    in_port = topo.local_ports[0]
    routing._send_feedback(network.routers[1], packet, in_port, topo.local_ports[1])
    assert packet.qfeedback is None and routing.values[0, dest, 2] == 100.0
    network.run()
    assert network.sim.now == network.routers[1]._lat[in_port]
    assert routing.values[0, dest, 2] == hysteretic_update(100.0, 50.0, 4.0, routing.hysteretic)
    assert routing.updates[0] == sum(routing.updates) == 1
    assert routing.feedback_sent == routing.feedback_applied == 1


def test_snapshot_is_a_copy():
    routing = build_network(_SMALL_QADP)[0].routing
    snap = routing.export_state()["values"]
    routing.values[0, 0, 0] = 123.0
    assert snap[0, 0, 0] != 123.0
    assert not np.shares_memory(snap, routing.values)


def test_memory_bytes_accounting():
    routing = build_network(_SMALL_QADP)[0].routing
    routers, rows, cols = routing.values.shape
    assert routing.total_table_memory_bytes() == routers * rows * cols * 8


# --------------------------------------------------------------- persistence
def test_state_dict_round_trips_bit_exact():
    source = build_network(_SMALL_QADP)[0].routing
    source._apply_feedback(3, 1, 0, 2.5)
    state = source.export_state()
    target = build_network(_SMALL_QADP)[0].routing
    target.import_state(state)
    assert np.array_equal(target.values, source.values)
    assert target.updates == source.updates
    # the import copied the payload: mutating it later cannot corrupt the target
    state["values"][0, 0, 0] = -1.0
    assert target.values[0, 0, 0] != -1.0


def test_load_state_rejects_wrong_kind_version_and_shape():
    routing = build_network(_SMALL_QADP)[0].routing
    good = routing.export_state()
    for key, value, message in (
        ("table_kind", "QRoutingTable", "different table design"),
        ("table_version", 99, "version 99"),
        ("values", good["values"][:, :-1], "shape mismatch"),
        ("first_port", 0, "port-offset mismatch"),
    ):
        routing.values[...] = -1.0
        with pytest.raises(ValueError, match=message):
            routing.import_state({**good, key: value})
        assert (routing.values == -1.0).all()  # a rejected import writes nothing


# --------------------------------------------- whole-system block and its views
def test_paper_scale_setup_makes_no_per_entry_calls(monkeypatch):
    """Set-up guard by count, not by clock: at 1,056 nodes the Q-adp network and
    the batched model are built from tables (95,832 ``uncongested_delivery_time``
    and 69,432 ``minimal_next_port`` calls when they were built entry by entry)."""
    calls = {"uncongested_delivery_time": 0, "minimal_next_port": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    per_entry = counted("uncongested_delivery_time", uncongested_delivery_time)
    monkeypatch.setattr(paths_module, "uncongested_delivery_time", per_entry)
    monkeypatch.setattr(qtable_module, "uncongested_delivery_time", per_entry, raising=False)
    monkeypatch.setattr(DragonflyTopology, "minimal_next_port",
                        counted("minimal_next_port", DragonflyTopology.minimal_next_port))
    spec = ExperimentSpec(config=DragonflyConfig.paper_1056(), routing="Q-adp",
                          pattern="ADV+1", offered_load=0.3, sim_time_ns=200.0,
                          warmup_ns=0.0, seed=7)
    network, _ = build_network(spec)
    assert network.routing.values.shape == (264, 132, 11)
    BatchSimulation(spec, [7])
    assert calls == {"uncongested_delivery_time": 0, "minimal_next_port": 0}


def test_router_tables_are_isolated_views_of_one_block():
    """Each router's table is its slice of ``routing.values``: a fold into
    router 5 moves that one entry and no neighbour's."""
    routing = build_network(_SMALL_QADP)[0].routing
    before = routing.values.copy()
    routing._apply_feedback(5, 0, 0, -2.0)
    assert np.argwhere(routing.values != before).tolist() == [[5, 0, 0]]
    assert routing.updates[5] == sum(routing.updates) == 1


def test_batch_model_initial_values_are_read_only():
    init_values = build_model(_SMALL_QADP).init_values
    assert np.array_equal(init_values, two_level_initial_values(TOPO, TIMING))
    with pytest.raises(ValueError, match="read-only"):
        init_values[0, 0, 0] = 0.0
