"""Unit tests for router-level behaviour (congestion queries, flow control)."""

from repro.network.network import Network
from repro.network.params import NetworkParams
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig


def _loaded_network():
    """A tiny network with a burst of traffic through router 0."""
    return Network(
        DragonflyConfig.tiny(),
        MinimalRouting(),
        params=NetworkParams(vc_buffer_packets=4),
    )


def test_port_congestion_zero_at_rest():
    net = _loaded_network()
    router = net.routers[0]
    for port in range(net.topo.k):
        assert router.port_congestion(port) == 0
        assert router.output_queue_length(port) == 0
        assert router.used_credits(port) == 0


def test_used_credits_reflect_in_flight_packets():
    net = _loaded_network()
    topo = net.topo
    src_router = net.routers[0]
    # saturate one output port with a burst from node 0 to a far node
    far_node = next(
        n for n in topo.all_nodes() if topo.router_of_node(n) not in (0,)
        and topo.group_of_node(n) != topo.group_of_node(0)
    )
    for _ in range(10):
        net.send(0, far_node)
    # run a little while packets are still crossing router 0
    net.run(until=200.0)
    used_anywhere = any(src_router.used_credits(p) > 0 for p in topo.non_host_ports)
    buffered = src_router.buffered_packets() > 0
    assert used_anywhere or buffered
    net.run()
    assert src_router.buffered_packets() == 0
    assert all(src_router.used_credits(p) == 0 for p in topo.non_host_ports)


def test_forward_and_eject_counters():
    net = _loaded_network()
    topo = net.topo
    dst = next(n for n in topo.all_nodes() if topo.router_of_node(n) != 0)
    net.send(0, dst)
    net.run()
    assert net.routers[0].forwarded_packets >= 1
    assert net.routers[topo.router_of_node(dst)].ejected_packets == 1


def _stage_waiter(net, router, in_port, vc, out_port, out_vc, dst):
    """Place a packet at the head of ``(in_port, vc)`` waiting on ``out_port``."""
    packet = net.create_packet(0, dst)
    packet.out_port = out_port
    packet.out_vc = out_vc
    net.routers[router.id].input_bufs[in_port][vc].append(packet)
    router.waiting[out_port].append((in_port, vc, packet))
    return packet


def test_serve_waiting_preserves_fifo_order_after_failed_scan():
    """Skipping a credit-starved head waiter must not permanently reorder the queue."""
    net = _loaded_network()
    router = net.routers[0]
    topo = net.topo
    out_port = topo.non_host_ports[0]
    dst = next(n for n in topo.all_nodes() if topo.router_of_node(n) != 0)
    # Exhaust VC 0 credits so the first (oldest) waiter cannot be served.
    router._cred_counts[out_port][0] = 0
    in_a, in_b = topo.non_host_ports[0], topo.non_host_ports[1]
    blocked = _stage_waiter(net, router, in_a, 0, out_port, 0, dst)
    served = _stage_waiter(net, router, in_b, 1, out_port, 1, dst)

    router._serve_waiting(out_port)

    # The younger waiter (with credits on VC 1) went out...
    assert router.forwarded_packets == 1
    assert not router.input_bufs[in_b][1]
    # ...and the starved head waiter is still *first in line*, not rotated back.
    assert list(router.waiting[out_port]) == [(in_a, 0, blocked)]


def test_serve_waiting_restores_order_when_no_waiter_is_eligible():
    net = _loaded_network()
    router = net.routers[0]
    topo = net.topo
    out_port = topo.non_host_ports[0]
    dst = next(n for n in topo.all_nodes() if topo.router_of_node(n) != 0)
    router._cred_counts[out_port] = [0] * net.params.num_vcs

    in_a, in_b = topo.non_host_ports[0], topo.non_host_ports[1]
    first = _stage_waiter(net, router, in_a, 0, out_port, 0, dst)
    second = _stage_waiter(net, router, in_b, 1, out_port, 1, dst)

    router._serve_waiting(out_port)

    assert router.forwarded_packets == 0
    assert list(router.waiting[out_port]) == [(in_a, 0, first), (in_b, 1, second)]


def test_small_buffers_still_deliver_everything():
    """Back-pressure with 1-packet buffers must not deadlock or drop packets."""
    net = Network(
        DragonflyConfig.tiny(),
        MinimalRouting(),
        params=NetworkParams(vc_buffer_packets=1),
    )
    count = 0
    for src in net.topo.all_nodes():
        for dst in net.topo.all_nodes():
            if src != dst:
                net.send(src, dst)
                count += 1
    net.run()
    stats = net.finalize()
    assert stats.delivered_packets == count
    assert net.buffered_packets() == 0
