"""Credit-based flow control on the live network.

Credits are plain lists on the routers and NICs, filled from the network's
port table: ``Router._cred_counts[port][vc]`` (not kept while
``Router._cred_infinite[port]`` is set) and ``Nic._cred_counts[vc]``
towards the router's host input buffer.  These tests check them where they
live.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import ExperimentSpec
from repro.network.network import Network
from repro.network.params import NetworkParams
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig

TINY_NODES = 6  # DragonflyConfig.tiny(): 6 routers, one node each


def _network(**params):
    return Network(DragonflyConfig.tiny(), MinimalRouting(), params=NetworkParams(**params))


def _finite_counters(net):
    """``(counter list, capacity)`` of every counted port of every router and NIC."""
    counters = []
    for router in net.routers:
        for port, counts in enumerate(router._cred_counts):
            if not router._cred_infinite[port]:
                counters.append((counts, router._cred_cap[port]))
    counters.extend((nic._cred_counts, nic._cred_cap) for nic in net.nics)
    return counters


def test_initial_credits_equal_capacity():
    net = _network(vc_buffer_packets=3)
    topo, num_vcs = net.topo, net.params.num_vcs
    for router in net.routers:
        for port in range(topo.k):
            ejection = port < topo.num_host_ports(router.id)
            assert router._cred_infinite[port] == ejection
            if not ejection:
                assert router._cred_counts[port] == [3] * num_vcs
            assert router.used_credits(port) == 0
    assert all(nic._cred_counts == [3] * num_vcs for nic in net.nics)


def test_take_and_put_roundtrip():
    net = _network(vc_buffer_packets=2)
    router = net.routers[0]
    port = net.topo.non_host_ports[0]
    counts = router._cred_counts[port]
    counts[0] -= 2
    counts[1] -= 1
    assert router.used_credits(port) == 3
    router.credit_return(port, 0)
    assert counts[0] == 1
    assert router.used_credits(port) == 2


def test_overflow_raises():
    net = _network()
    with pytest.raises(RuntimeError, match="credit overflow"):
        net.routers[0].credit_return(net.topo.non_host_ports[0], 0)
    with pytest.raises(RuntimeError, match="credit overflow"):
        net.nics[0].credit_return(0, 0)


def test_infinite_credits_never_exhaust():
    """Ejection ports keep no credits (the NIC always drains): nothing is counted."""
    net = _network()
    router = net.routers[0]
    host_port = net.topo.host_ports[0]
    assert router._cred_infinite[host_port]
    for src in range(1, TINY_NODES):
        for _ in range(30):
            net.send(src, 0)
    net.run(until=500.0)
    assert router.used_credits(host_port) == 0
    router.credit_return(host_port, 0)  # ignored: no overflow
    net.run()
    assert net.nics[0].delivered_packets == 30 * (TINY_NODES - 1)


def test_invalid_construction():
    """A buffer depth below 1 fails where the parameters are built."""
    spec = ExperimentSpec(
        config=DragonflyConfig.tiny(), routing="MIN", pattern="UR", offered_load=0.2,
        sim_time_ns=1_000.0, warmup_ns=0.0, network_params=NetworkParams(),
    ).to_dict()
    for value in (0, -1):
        with pytest.raises(ValueError, match="vc_buffer_packets"):
            NetworkParams(vc_buffer_packets=value)
        spec["network_params"] = {"vc_buffer_packets": value}
        with pytest.raises(ValueError, match="vc_buffer_packets"):
            ExperimentSpec.from_dict(spec)


_PAIRS = [(s, d) for s in range(TINY_NODES) for d in range(TINY_NODES) if s != d]


@settings(max_examples=40, deadline=None)
@given(
    vc_buffer=st.integers(min_value=1, max_value=4),
    sends=st.lists(st.sampled_from(_PAIRS), max_size=60),
    stop=st.floats(min_value=0.0, max_value=3_000.0),
)
def test_credit_conservation_on_live_network(vc_buffer, sends, stop):
    """Counters stay within ``[0, capacity]`` mid-run and are all home after a
    drain; buffers never outgrow the credits that guard them."""
    net = _network(vc_buffer_packets=vc_buffer)
    for src, dst in sends:
        net.send(src, dst)
    net.run(until=stop)
    counters = _finite_counters(net)
    for counts, cap in counters:
        assert all(0 <= count <= cap for count in counts)
    k = net.topo.k
    for router in net.routers:
        assert all(len(buf) <= vc_buffer for bufs in router.input_bufs for buf in bufs
                   if buf is not None)
        for port, far in enumerate(net.remote_idx[router.id * k:(router.id + 1) * k]):
            if far < 0:
                continue
            # Upstream credits plus downstream occupancy never exceed the
            # capacity: in-flight packets and credit returns hold the rest.
            downstream = net.routers[far // k].input_bufs[far % k]
            cap = router._cred_cap[port]
            for count, buf in zip(router._cred_counts[port], downstream, strict=True):
                assert count + len(buf or ()) <= cap
    net.run()
    assert net.finalize().delivered_packets == len(sends)
    for counts, cap in counters:
        assert counts == [cap] * len(counts)
    for router in net.routers:
        assert all(router.used_credits(port) == 0 for port in range(net.topo.k))
        assert not any(buf for bufs in router.input_bufs for buf in bufs)
