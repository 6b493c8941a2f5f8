"""Tests for the Q-table designs (Tables 2 and 3 of the paper)."""

import numpy as np
import pytest

import repro.core.qtable as qtable_module
import repro.topology.paths as paths_module
from repro.core.qtable import (
    UNREACHABLE_NS,
    QRoutingTable,
    TwoLevelQTable,
    qrouting_initial_values,
    qtable_memory_comparison,
    two_level_initial_values,
)
from repro.engine.batch import BatchSimulation
from repro.engine.batch.model import build_model
from repro.experiments.harness import ExperimentSpec, build_network
from repro.topology.base import PortType
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import LinkTiming, uncongested_delivery_time
from repro.topology.registry import family_by_name, topology_for


TOPO = DragonflyTopology(DragonflyConfig.small_72())
TIMING = LinkTiming()


def test_two_level_table_shape_matches_paper():
    table = TwoLevelQTable(0, TOPO)
    assert table.shape == (TOPO.g * TOPO.p, TOPO.k - TOPO.p)


def test_qrouting_table_shape_matches_paper():
    table = QRoutingTable(0, TOPO)
    assert table.shape == (TOPO.num_routers, TOPO.k - TOPO.p)


def test_two_level_table_is_half_the_size_for_balanced_dragonfly():
    for config in (DragonflyConfig.small_72(), DragonflyConfig.paper_1056(),
                   DragonflyConfig.paper_2550()):
        comparison = qtable_memory_comparison(config)
        assert comparison["saving_fraction"] == pytest.approx(0.5)
        assert comparison["two_level_bytes"] * 2 == comparison["original_bytes"]


def test_memory_saving_differs_for_unbalanced_config():
    comparison = qtable_memory_comparison(DragonflyConfig(p=1, a=4, h=2))
    assert comparison["saving_fraction"] == pytest.approx(1.0 - (9 * 1) / 36)


def test_row_for_two_level_indexing():
    table = TwoLevelQTable(0, TOPO)
    assert table.row_for(dst_group=0, src_node_local=0) == 0
    assert table.row_for(dst_group=3, src_node_local=1) == 3 * TOPO.p + 1
    assert table.row_for(dst_group=TOPO.g - 1, src_node_local=TOPO.p - 1) == table.num_rows - 1


def test_column_port_roundtrip():
    table = TwoLevelQTable(0, TOPO)
    for port in TOPO.non_host_ports:
        assert table.port_of_column(table.column_of_port(port)) == port
    with pytest.raises(ValueError):
        table.column_of_port(0)  # host port
    with pytest.raises(ValueError):
        table.port_of_column(table.num_ports)


def test_initialize_uncongested_matches_path_estimates():
    router_id = 7
    table = TwoLevelQTable(router_id, TOPO)
    table.initialize_uncongested(TIMING)
    for port in TOPO.non_host_ports:
        for group in range(TOPO.g):
            expected = uncongested_delivery_time(TOPO, router_id, port, group, TIMING)
            for node_local in range(TOPO.p):
                row = table.row_for(group, node_local)
                assert table.value(row, port) == pytest.approx(expected)


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
    """The per-entry loops ``QRoutingTable.initialize_uncongested`` used to run."""
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
        table = QRoutingTable(router, topo)
        table.initialize_uncongested(timing)
        assert np.array_equal(table.values, block[router])


def test_qrouting_initialization_favours_minimal_port():
    router_id = 0
    table = QRoutingTable(router_id, TOPO)
    table.initialize_uncongested(TIMING)
    for dest in range(0, TOPO.num_routers, 7):
        if dest == router_id:
            continue
        min_port = TOPO.minimal_next_port(router_id, dest)
        best_port, _ = table.best_port(dest)
        assert table.value(dest, min_port) <= table.value(dest, best_port) + 1e-9


def test_best_port_respects_candidate_restriction():
    table = TwoLevelQTable(0, TOPO)
    table.values[:] = 100.0
    local_port = TOPO.local_ports[0]
    global_port = TOPO.global_ports[0]
    table.set_value(0, global_port, 1.0)
    table.set_value(0, local_port, 5.0)
    assert table.best_port(0)[0] == global_port
    port, value = table.best_port(0, candidate_ports=list(TOPO.local_ports))
    assert port == local_port and value == 5.0


def test_best_port_rejects_empty_candidate_sequence():
    """Regression: an empty candidate list used to return the bogus (-1, inf)."""
    table = TwoLevelQTable(0, TOPO)
    with pytest.raises(ValueError, match="at least one candidate port"):
        table.best_port(0, candidate_ports=[])
    with pytest.raises(ValueError, match="at least one candidate port"):
        table.best_port(0, candidate_ports=())


def test_min_value_and_apply_delta():
    table = TwoLevelQTable(0, TOPO)
    table.values[:] = 10.0
    table.set_value(2, TOPO.local_ports[1], 4.0)
    assert table.min_value(2) == 4.0
    table.apply_delta(2, TOPO.local_ports[1], -1.5)
    assert table.value(2, TOPO.local_ports[1]) == pytest.approx(2.5)
    assert table.updates == 1


def test_snapshot_is_a_copy():
    table = TwoLevelQTable(0, TOPO)
    snap = table.snapshot()
    table.values[0, 0] = 123.0
    assert snap[0, 0] != 123.0
    assert isinstance(snap, np.ndarray)


def test_memory_bytes_accounting():
    table = TwoLevelQTable(0, TOPO, value_bytes=4)
    assert table.memory_bytes() == table.num_rows * table.num_ports * 4


# --------------------------------------------------------------- persistence
def test_state_dict_round_trips_bit_exact():
    source = TwoLevelQTable(3, TOPO)
    source.initialize_uncongested(TIMING)
    source.apply_delta(1, TOPO.local_ports[0], -2.5)
    state = source.state_dict()
    target = TwoLevelQTable(3, TOPO)
    target.load_state(state)
    assert np.array_equal(target.values, source.values)
    assert target.updates == source.updates
    # the payload holds copies: mutating it later cannot corrupt the source
    state["values"][0, 0] = -1.0
    assert source.values[0, 0] != -1.0


def test_load_state_rejects_wrong_kind_version_and_shape():
    two_level = TwoLevelQTable(0, TOPO)
    qrouting = QRoutingTable(0, TOPO)
    with pytest.raises(ValueError, match="different table design"):
        two_level.load_state(qrouting.state_dict())
    stale = two_level.state_dict()
    stale["version"] = 99
    with pytest.raises(ValueError, match="version 99"):
        two_level.load_state(stale)
    other_topo = DragonflyTopology(DragonflyConfig.tiny())
    with pytest.raises(ValueError, match="shape mismatch"):
        two_level.load_state(TwoLevelQTable(0, other_topo).state_dict())


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


_SMALL_QADP = ExperimentSpec(config=DragonflyConfig.small_72(), routing="Q-adp", pattern="UR",
                           offered_load=0.3, sim_time_ns=1_000.0, warmup_ns=0.0, seed=3)


def test_router_tables_are_isolated_views_of_one_block():
    routing = build_network(_SMALL_QADP)[0].routing
    before = routing.values.copy()
    table = routing.table(5)
    assert np.shares_memory(table.values, routing.values)
    snap, state = table.snapshot(), table.state_dict()["values"]
    table.values[:, :] = -1.0
    table.set_value(0, TOPO.local_ports[0], -2.0)
    # the neighbours' tables are untouched, and the block sees the write
    assert np.array_equal(routing.table(4).values, before[4])
    assert np.array_equal(routing.table(6).values, before[6])
    assert routing.values[5, 0, 0] == -2.0
    # snapshot() and state_dict() handed out copies, not views
    assert np.array_equal(snap, before[5]) and np.array_equal(state, before[5])
    assert not np.shares_memory(snap, routing.values)
    assert not np.shares_memory(state, routing.values)


def test_batch_model_initial_values_are_read_only():
    init_values = build_model(_SMALL_QADP).init_values
    assert np.array_equal(init_values, two_level_initial_values(TOPO, TIMING))
    with pytest.raises(ValueError, match="read-only"):
        init_values[0, 0, 0] = 0.0
