"""Packet and credit conservation on the flat kernel, checked at mid-run stops.

Generation is open-loop and the kernel keeps no packet record for a packet
still waiting at its source: a NIC's source queue is a cursor into the
replicate's traffic trace (``nic_head`` / ``nic_n``), and a record exists
from injection on.  At any stop T, every packet generated by T is in exactly
one place: the delivery log, an input buffer, the calendar (an ``EV_RECV``
on a link), or a source queue.

Every credit of a finite-credit port is likewise in exactly one place: the
sender's counter, a packet in the downstream input buffer, a packet on the
link (``EV_RECV``), or a credit return on the reverse link (``EV_CREDIT_R``
towards a router port, ``EV_CREDIT_N`` towards a NIC).

A replicate allocates per-port state on first use only: an input buffer
exists exactly for the ``(port, vc)`` pairs a packet has reached and a waiter
queue exactly for the ports a waiter has joined, as the object graph's run
of the same spec shows (its routers hold ``None`` for the others as well),
and no port holds more than two pended wakes.

Learned state is exact at every stop too: a Q-feedback is an ``EV_QFB``
calendar event, as on the object graph, so the kernel's Q-tables and update
counters equal the object graph's at any ``run(until)``, with no
``finalize``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.engine.batch.kernel import (
    EV_CREDIT_N,
    EV_CREDIT_R,
    EV_RECV,
    BatchKernel,
    ReplicateState,
)
from repro.engine.batch.model import build_model
from repro.experiments.harness import ExperimentSpec, build_network
from repro.network.router import Router
from repro.topology.config import DragonflyConfig
from repro.traffic import LoadSchedule

HORIZON_NS = 8_000.0
STOPS_NS = (1_000.0, 2_500.0, 4_000.0, 6_000.0)

_CASES = {
    # A backlog of thousands of queued packets at the source NICs.
    "MIN ADV+1 0.9": dict(routing="MIN", pattern="ADV+1", offered_load=0.9),
    "Q-adp UR 0.7": dict(routing="Q-adp", pattern="UR", offered_load=0.7),
    # A short idle phase puts wake-ups without a packet (-1) into source
    # queues that still hold a backlog.
    "UGALn ADV+1 idle phase": dict(
        routing="UGALn", pattern="ADV+1",
        schedule=LoadSchedule([(0.0, 0.9), (2_300.0, 0.0), (2_400.0, 0.7)])),
}


def _generated(st: ReplicateState) -> int:
    return sum(
        sum(1 for dst in dsts[:end] if dst >= 0)
        for dsts, end in zip(st.dsts, st.ptr)
    )


def _pending(st: ReplicateState) -> list:
    """The calendar events the drain has not reached yet."""
    return st.cal[st.cal_b][st.cal_i:] + [
        event for bucket in st.cal[st.cal_b + 1:] for event in bucket]


def _on_links(st: ReplicateState) -> list:
    """Packet records of the EV_RECV events the drain has not reached yet."""
    return [event[5] for event in _pending(st) if event[2] == EV_RECV]


@pytest.mark.parametrize("case", sorted(_CASES))
def test_packets_are_conserved_at_every_stop(case):
    spec = ExperimentSpec(config=DragonflyConfig.small_72(), sim_time_ns=HORIZON_NS,
                          warmup_ns=0.0, seed=7, **_CASES[case])
    model = build_model(spec)
    kernel = BatchKernel(model, [spec.seed])
    (st,) = kernel.states
    backlog = 0
    mixed = 0  # source queues holding a -1 wake-up between their packets
    for stop in STOPS_NS:
        # A packet forwarded to its ejection port by the stop is logged at
        # forward time if it arrives by the horizon: keep one host-link
        # delay of room so every such packet is in the delivery log.
        assert stop + model.params.host_link_latency_ns < HORIZON_NS
        kernel.run(stop, slices=1)
        buffered = [pkt for port in st.bufs for buf in port if buf for pkt in buf]
        on_links = _on_links(st)
        live = buffered + on_links
        live_ids = {id(pkt) for pkt in live}
        assert len(live_ids) == len(live)  # no record in two places
        generated = _generated(st)
        delivered = len(st.dl_create)
        assert len(st.dl_deliver) == len(st.dl_hops) == delivered
        assert generated == delivered + len(live) + sum(st.nic_n)
        # The derived delivery log is the three arrays, entry by entry.
        assert st.dlog == list(zip(st.dl_create, st.dl_deliver, st.dl_hops))
        # The derived generation log agrees with the count the result uses.
        glog = st.glog
        assert glog == sorted(glog)
        assert st.generated() == len(glog) == generated
        for node, dsts in enumerate(st.dsts):
            queued = dsts[st.nic_head[node]:st.ptr[node]]
            assert st.nic_n[node] == sum(1 for dst in queued if dst >= 0)
            mixed += bool(st.nic_n[node]) and -1 in queued
        backlog = max(backlog, sum(st.nic_n))
        assert delivered  # traffic flows at every stop
    assert backlog > 0  # the source-queue term is exercised
    assert bool(mixed) == ("schedule" in _CASES[case])


@pytest.mark.parametrize("case", sorted(_CASES))
def test_per_port_state_exists_only_where_traffic_went(case, monkeypatch):
    spec = ExperimentSpec(config=DragonflyConfig.small_72(), sim_time_ns=HORIZON_NS,
                          warmup_ns=0.0, seed=7, **_CASES[case])
    model = build_model(spec)
    kernel = BatchKernel(model, [spec.seed])
    (st,) = kernel.states
    k = model.k
    # The object graph's run of the same spec: every (port, vc) a packet
    # reached, and (from the join log) every port a waiter joined.
    reached = set()
    receive = Router.receive_packet

    def recording(self, packet, in_port, vc):
        reached.add((self.id * k + in_port, vc))
        receive(self, packet, in_port, vc)

    monkeypatch.setattr(Router, "receive_packet", recording)
    network, generator = build_network(spec)
    joins = network.record_logs(["join"]).join
    generator.start()
    for stop in STOPS_NS:
        kernel.run(stop, slices=1)
        network.run(until=stop)
        made = {(fidx, vc) for fidx, port in enumerate(st.bufs)
                for vc, buf in enumerate(port) if buf is not None}
        assert made == reached, stop
        queues = {fidx for fidx, waiters in enumerate(st.waiting) if waiters is not None}
        assert queues == set(joins.port), stop
        # The object graph's routers make their queues on first use too.
        assert {(router.id * k + port, vc) for router in network.routers
                for port, bufs in enumerate(router.input_bufs)
                for vc, buf in enumerate(bufs) if buf is not None} == reached, stop
        assert {router.id * k + port for router in network.routers
                for port, waiters in enumerate(router.waiting)
                if waiters is not None} == queues, stop
        assert max(len(pend) for pend in st.pend_wakes) <= 2, stop
    # Both kinds of state were used, and some VCs never saw a packet.
    assert 0 < len(made) < len(st.bufs) * model.num_vcs
    assert queues


_CREDIT_CASES = {
    # Credit-saturated: long runs of zero-credit ports and waiters.
    "MIN ADV+1 0.9": dict(routing="MIN", pattern="ADV+1", offered_load=0.9),
    # UGALn reads the credits of two ports per source decision.
    "UGALn ADV+1 0.6": dict(routing="UGALn", pattern="ADV+1", offered_load=0.6),
    "Q-adp UR 0.7": dict(routing="Q-adp", pattern="UR", offered_load=0.7),
}


@pytest.mark.parametrize("case", sorted(_CREDIT_CASES))
def test_credits_are_conserved_at_every_stop(case):
    spec = ExperimentSpec(config=DragonflyConfig.small_72(), sim_time_ns=HORIZON_NS,
                          warmup_ns=0.0, seed=7, **_CREDIT_CASES[case])
    model = build_model(spec)
    kernel = BatchKernel(model, [spec.seed])
    (st,) = kernel.states
    exhausted = 0  # (port, vc) counters found at zero credits, over all stops
    for stop in STOPS_NS:
        kernel.run(stop, slices=1)
        # In flight: packets on a link into (input port, vc), credit returns
        # on the reverse link towards (output port, vc) or a NIC.
        recv = Counter()
        cred_r = Counter()
        cred_n = Counter()
        for event in _pending(st):
            if event[2] == EV_RECV:
                recv[event[3], event[4]] += 1
            elif event[2] == EV_CREDIT_R:
                cred_r[event[3], event[4]] += 1
            elif event[2] == EV_CREDIT_N:
                cred_n[event[3]] += 1
        checked = 0
        for fo, cap in enumerate(model.cred_cap):
            if cap is None:
                continue
            downstream = model.remote_idx[fo]
            for vc, credits in enumerate(st.cred[fo]):
                assert (credits + len(st.bufs[downstream][vc] or ())
                        + recv[downstream, vc] + cred_r[fo, vc]) == cap, (stop, fo, vc)
                exhausted += credits == 0
                checked += 1
        assert checked
        for node, credits in enumerate(st.nic_cred):
            fidx = model.nic_fidx[node]
            assert (credits + len(st.bufs[fidx][0] or ()) + recv[fidx, 0]
                    + cred_n[node]) == model.nic_cred_cap, (stop, node)
    assert exhausted  # the credit read actually blocks somewhere


_LEARNED_CASES = {
    "Q-adp ADV+1 0.3": dict(routing="Q-adp", pattern="ADV+1", offered_load=0.3),
    "Q-routing UR 0.5": dict(routing="Q-routing", pattern="UR", offered_load=0.5),
    "Q-adp UR 0.7": dict(routing="Q-adp", pattern="UR", offered_load=0.7),
}


@pytest.mark.parametrize("case", sorted(_LEARNED_CASES))
def test_learned_state_equals_the_object_graphs_at_every_stop(case):
    spec = ExperimentSpec(config=DragonflyConfig.small_72(), sim_time_ns=HORIZON_NS,
                          warmup_ns=0.0, seed=7, **_LEARNED_CASES[case])
    kernel = BatchKernel(build_model(spec), [spec.seed])
    (st,) = kernel.states
    network, generator = build_network(spec)
    generator.start()
    routing = network.routing
    for stop in STOPS_NS:
        kernel.run(stop, slices=1)
        network.run(until=stop)
        assert [[list(row) for row in table] for table in st.qt] == \
            routing.values.tolist(), stop
        assert st.updates == routing.updates, stop
        assert st.c_fb_app == routing.feedback_applied, stop
        assert st.c_fb_sent == routing.feedback_sent, stop
    assert st.c_fb_app  # learning happened by the stops
