"""Unit tests for the Packet record."""

from repro.network.packet import Packet


def _make_packet(**overrides):
    defaults = dict(
        pid=1,
        src_node=0,
        dst_node=10,
        src_router=0,
        dst_router=5,
        src_group=0,
        src_node_local=0,
        size_bytes=128,
        create_time_ns=100.0,
    )
    defaults.update(overrides)
    return Packet(**defaults)


def test_packet_initial_state():
    packet = _make_packet()
    assert packet.hops == 0
    assert packet.latency_ns is None
    assert not packet.delivered
    assert packet.scratch is None
    assert not packet.nonminimal
    assert packet.qfeedback is None


def test_latency_computed_from_delivery():
    packet = _make_packet(create_time_ns=50.0)
    packet.deliver_time_ns = 550.0
    assert packet.delivered
    assert packet.latency_ns == 500.0


def test_packet_slots_prevent_arbitrary_attributes():
    packet = _make_packet()
    try:
        packet.bogus = 1  # type: ignore[attr-defined]
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("__slots__ should prevent new attributes")


def test_scratch_slot_holds_algorithm_state():
    packet = _make_packet()
    packet.scratch = [7, False]
    assert packet.scratch == [7, False]


def test_repr_mentions_endpoints():
    packet = _make_packet()
    text = repr(packet)
    assert "0->10" in text
