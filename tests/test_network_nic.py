"""Unit tests for NIC injection behaviour."""

from repro.network.network import Network
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig


def test_injection_respects_serialization_rate():
    net = Network(DragonflyConfig.tiny(), MinimalRouting())
    nic = net.nics[0]
    packets = [net.send(0, 2) for _ in range(4)]
    net.run()
    inject_times = sorted(p.inject_time_ns for p in packets)
    gaps = [b - a for a, b in zip(inject_times, inject_times[1:], strict=False)]
    assert all(gap >= net.params.serialization_ns - 1e-9 for gap in gaps)
    assert nic.injected_packets == 4
    assert nic.delivered_packets == 0  # deliveries land on the destination NIC


def test_delivery_counted_at_destination_nic():
    net = Network(DragonflyConfig.tiny(), MinimalRouting())
    net.send(0, 2)
    net.run()
    assert net.nics[2].delivered_packets == 1


def test_queue_length_decreases_as_packets_leave():
    net = Network(DragonflyConfig.tiny(), MinimalRouting())
    nic = net.nics[0]
    for _ in range(3):
        net.send(0, 2)
    assert nic.queue_length >= 2  # the first may already have left the queue
    net.run()
    assert nic.queue_length == 0


def test_unbounded_queue_accepts_everything():
    net = Network(DragonflyConfig.tiny(), MinimalRouting())
    nic = net.nics[0]
    for _ in range(100):
        nic.inject(net.create_packet(0, 2))
    assert nic.queue_length >= 99  # the first may already have left the queue
    net.run()
    assert nic.injected_packets == 100
    assert net.nics[2].delivered_packets == 100
