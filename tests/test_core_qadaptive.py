"""Tests for Q-adaptive routing (the paper's contribution)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hysteretic import hysteretic_update
from repro.core.qadaptive import QAdaptiveParams, QAdaptiveRouting
from repro.network.network import Network
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.traffic import AdversarialTraffic, LoadSchedule, TrafficGenerator, UniformRandomTraffic


CONFIG = DragonflyConfig.small_72()


def _network(routing=None):
    return Network(CONFIG, routing or QAdaptiveRouting(), seed=9)


def test_default_params_match_section_5_1():
    params = QAdaptiveParams.paper_1056()
    assert (params.alpha, params.beta, params.epsilon) == (0.2, 0.04, 0.001)
    assert (params.q_thld1, params.q_thld2) == (0.2, 0.35)
    scaled = QAdaptiveParams.paper_2550()
    assert (scaled.q_thld1, scaled.q_thld2) == (0.05, 0.4)


def test_param_validation():
    with pytest.raises(ValueError):
        QAdaptiveParams(epsilon=1.5)
    with pytest.raises(ValueError):
        QAdaptiveParams(alpha=0.0)
    with pytest.raises(ValueError):
        QAdaptiveParams(feedback="bogus")
    with pytest.raises(ValueError):
        QAdaptiveRouting(QAdaptiveParams(), alpha=0.1)


def test_five_vcs_and_hop_bound_declared():
    topo = DragonflyTopology(CONFIG)
    routing = QAdaptiveRouting()
    assert routing.max_hops(topo) == 5
    assert routing.required_vcs(topo) == 5


def test_tables_created_per_router_with_uncongested_init():
    routing = QAdaptiveRouting()
    net = _network(routing)
    topo = net.topo
    assert routing.values.shape == (topo.num_routers, topo.g * topo.p, topo.k - topo.p)
    assert float(routing.values.min()) > 0.0
    assert routing.updates == [0] * topo.num_routers


def test_hop_bound_holds_in_simulation():
    routing = QAdaptiveRouting(QAdaptiveParams(epsilon=0.2))  # aggressive exploration
    net = _network(routing)
    gen = TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.3)
    gen.start()
    net.run(until=15_000.0)
    hops = net.collector.hops_array()
    assert hops.size, "expected deliveries"
    assert hops.max() <= 5


def test_learning_updates_tables_and_feedback_flows():
    routing = QAdaptiveRouting()
    net = _network(routing)
    gen = TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.3)
    gen.start()
    net.run(until=10_000.0)
    assert routing.feedback_sent > 0
    assert routing.feedback_applied > 0
    assert sum(routing.updates) == routing.feedback_applied
    # values moved away from their uncongested initialisation somewhere
    assert any(updates > 0 for updates in routing.updates)


_times = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)
_rates = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_times, _times, _times, _rates, _rates,
       st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_apply_feedback_uses_hysteretic_rates(current, reward, q_next, alpha, beta,
                                              router, row, column):
    """Equation 3 on the live path: ``_apply_feedback`` of the target
    ``reward + q_next`` that ``_send_feedback`` schedules equals
    :func:`hysteretic_update` bit for bit."""
    routing = QAdaptiveRouting(QAdaptiveParams(alpha=alpha, beta=beta))
    Network(DragonflyConfig.tiny(), routing, seed=1)
    routers, rows, columns = routing.values.shape
    router, row, column = router % routers, row % rows, column % columns
    routing.values[router, row, column] = current
    routing._apply_feedback(router, row, column, reward + q_next)
    expected = hysteretic_update(current, reward, q_next, routing.hysteretic)
    assert routing.values[router, row, column] == expected
    assert routing.updates[router] == sum(routing.updates) == 1


def test_source_and_intermediate_decisions_counted_under_adversarial():
    routing = QAdaptiveRouting()
    net = _network(routing)
    gen = TrafficGenerator(net, AdversarialTraffic(1), offered_load=0.3)
    gen.start()
    net.run(until=40_000.0)
    counts = routing.decision_counts()
    assert counts["source_minimal"] + counts["source_best"] > 0
    # under sustained adversarial traffic the learned policy must divert packets
    assert counts["source_best"] > 0
    assert counts["intermediate_minimal"] + counts["intermediate_reroutes"] > 0
    assert float(routing.values.mean()) > 0


def test_all_packets_delivered_after_drain():
    routing = QAdaptiveRouting()
    net = _network(routing)
    gen = TrafficGenerator(net, AdversarialTraffic(1),
                           schedule=LoadSchedule.step(0.25, 10_000.0, 0.0))
    gen.start()
    net.run(until=10_000.0)
    net.drain(extra_ns=200_000.0)
    assert net.packets_in_flight() == 0
    assert net.buffered_packets() == 0


def test_onpolicy_and_greedy_feedback_modes_run():
    for mode in ("onpolicy", "greedy"):
        routing = QAdaptiveRouting(feedback=mode)
        net = _network(routing)
        gen = TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.2)
        gen.start()
        net.run(until=5_000.0)
        assert routing.feedback_applied > 0
