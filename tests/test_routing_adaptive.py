"""Tests for the adaptive baselines: UGALg, UGALn and PAR."""

from repro.network.network import Network
from repro.routing.par import ParRouting
from repro.routing.ugal import UgalGRouting, UgalNRouting
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.traffic import AdversarialTraffic, TrafficGenerator, UniformRandomTraffic


CONFIG = DragonflyConfig.small_72()


def _drive(routing, pattern, load=0.3, until=15_000.0, seed=5):
    net = Network(CONFIG, routing, seed=seed)
    gen = TrafficGenerator(net, pattern, offered_load=load)
    gen.start()
    net.run(until=until)
    return net


def test_ugal_hop_bounds_and_vcs():
    topo = DragonflyTopology(CONFIG)
    assert UgalGRouting().required_vcs(topo) == 5
    assert UgalNRouting().required_vcs(topo) == 6
    assert ParRouting().required_vcs(topo) == 7


def test_ugalg_mostly_minimal_under_uniform_traffic():
    routing = UgalGRouting()
    net = _drive(routing, UniformRandomTraffic(), load=0.2)
    assert routing.minimal_decisions > 0
    # With zero minimal bias (Section 5.1) UGAL still diverts a fraction of the
    # traffic whenever the sampled non-minimal port happens to be emptier, but
    # under light uniform load the majority of decisions must stay minimal.
    assert routing.minimal_decisions > routing.nonminimal_decisions
    stats = net.finalize()
    assert stats.mean_hops < 3.6


def test_ugaln_diverts_under_adversarial_traffic():
    routing = UgalNRouting()
    net = _drive(routing, AdversarialTraffic(1), load=0.3, until=25_000.0)
    assert routing.nonminimal_decisions > routing.minimal_decisions * 0.2
    stats = net.finalize()
    # non-minimal paths push the average hop count above the minimal 3
    assert stats.mean_hops > 3.0


def test_ugal_hop_limit_respected():
    for routing, limit in ((UgalGRouting(), 5), (UgalNRouting(), 6)):
        net = _drive(routing, AdversarialTraffic(1), load=0.25, until=10_000.0)
        hops = net.collector.hops_array()
        assert hops.size, "expected delivered packets"
        assert hops.max() <= limit


def test_par_reevaluates_and_respects_hop_limit():
    routing = ParRouting()
    net = _drive(routing, AdversarialTraffic(1), load=0.3, until=20_000.0)
    assert routing.reevaluations > 0
    hops = net.collector.hops_array()
    assert hops.size and hops.max() <= 7
    # PAR should divert a measurable share of minimally-routed packets under ADV
    assert routing.diverted_packets > 0


def test_adaptive_beats_minimal_under_adversarial_traffic():
    """UGALn must deliver more than MIN when all traffic targets one group."""
    from repro.routing.minimal import MinimalRouting

    ugal_net = _drive(UgalNRouting(), AdversarialTraffic(1), load=0.3, until=30_000.0)
    min_net = _drive(MinimalRouting(), AdversarialTraffic(1), load=0.3, until=30_000.0)
    ugal_thr = ugal_net.finalize().throughput
    min_thr = min_net.finalize().throughput
    assert ugal_thr > min_thr


def test_minimal_beats_valiant_under_uniform_traffic():
    from repro.routing.minimal import MinimalRouting
    from repro.routing.valiant import ValiantNodeRouting

    min_net = _drive(MinimalRouting(), UniformRandomTraffic(), load=0.4, until=20_000.0)
    val_net = _drive(ValiantNodeRouting(), UniformRandomTraffic(), load=0.4, until=20_000.0)
    assert min_net.finalize().mean_latency_ns < val_net.finalize().mean_latency_ns
