"""Unit tests for NetworkParams."""

import pytest

from repro.network.params import NetworkParams, total_injection_bandwidth_bytes_per_ns
from repro.topology.dragonfly import DragonflyTopology, PortType


def test_paper_defaults_match_section_5_1():
    params = NetworkParams()
    assert params.packet_bytes == 128
    assert params.link_bandwidth_bytes_per_ns == 4.0
    assert params.serialization_ns == 32.0
    assert params.local_link_latency_ns == 30.0
    assert params.global_link_latency_ns == 300.0
    assert params.vc_buffer_packets == 20
    # 1:10 local to global latency ratio
    assert params.global_link_latency_ns / params.local_link_latency_ns == 10.0


def test_link_latency_by_port_type():
    params = NetworkParams()
    assert params.link_latency_ns(PortType.LOCAL) == 30.0
    assert params.link_latency_ns(PortType.GLOBAL) == 300.0
    assert params.link_latency_ns(PortType.HOST) == 10.0


def test_timing_mirrors_parameters():
    timing = NetworkParams().timing()
    assert timing.serialization_ns == 32.0
    assert timing.local_latency_ns == 30.0
    assert timing.global_latency_ns == 300.0
    assert timing.host_latency_ns == 10.0


def test_injection_rate():
    assert NetworkParams().node_injection_rate_pkts_per_ns == pytest.approx(1 / 32.0)


def test_with_num_vcs_returns_copy():
    base = NetworkParams()
    resolved = base.with_num_vcs(5)
    assert resolved.num_vcs == 5
    assert base.num_vcs is None
    assert resolved.packet_bytes == base.packet_bytes


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        NetworkParams(packet_bytes=0)
    with pytest.raises(ValueError):
        NetworkParams(link_bandwidth_bytes_per_ns=0)
    with pytest.raises(ValueError):
        NetworkParams(vc_buffer_packets=0)
    with pytest.raises(ValueError):
        NetworkParams(num_vcs=0)


def test_total_injection_bandwidth(small_topo: DragonflyTopology):
    params = NetworkParams()
    assert total_injection_bandwidth_bytes_per_ns(params, small_topo) == pytest.approx(
        4.0 * small_topo.num_nodes
    )
