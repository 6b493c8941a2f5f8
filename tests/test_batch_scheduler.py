"""Calendar-queue scheduler edge cases.

The batched kernel's calendar queue must preserve the scalar heap's exact
``(time, seq)`` total order while draining bucket by bucket.  The
equivalence suite proves end-to-end bit-identity; these tests pin the
scheduler mechanisms in isolation — boundary-time bucket assignment,
same-time ordering across slice re-entries, empty-bucket skipping and bucket
freeing.
"""

from __future__ import annotations

from repro.engine.batch.kernel import EV_RECV, EV_SERVE, BatchKernel
from repro.engine.batch.model import build_model
from repro.experiments.harness import ExperimentSpec
from repro.topology.config import DragonflyConfig


def _kernel(sim: float = 4_000.0) -> BatchKernel:
    spec = ExperimentSpec(
        config=DragonflyConfig.tiny(),
        routing="MIN",
        pattern="UR",
        offered_load=0.3,
        sim_time_ns=sim,
        warmup_ns=0.0,
        seed=3,
    )
    return BatchKernel(build_model(spec), [spec.seed])


def _clear_calendar(kernel: BatchKernel) -> None:
    """Remove the seeded GEN events so synthetic events drain alone."""
    for lst in kernel.states[0].cal:
        del lst[:]


def _schedule(kernel: BatchKernel, event: tuple) -> None:
    """Insert one event exactly the way the kernel schedules future work."""
    st = kernel.states[0]
    idx = int(event[0] * st.inv_w)
    last = st.num_buckets - 1
    if idx > last:
        idx = last
    st.cal[idx].append(event)


# ---------------------------------------------------------------- scheduler
def test_boundary_ties_drain_in_time_seq_order_across_slices():
    """Events at exact bucket edges and identical times drain in (t, seq)
    order, even when the drain re-enters mid-bucket at slice boundaries."""
    kernel = _kernel()
    st = kernel.states[0]
    _clear_calendar(kernel)
    a, vc = 0, 0
    # Pre-seeded head: every synthetic RECV below is a pure buffer append,
    # so the final buffer order *is* the drain order.
    st.bufs[a][vc] = [[None] * 15]
    width = 1.0 / st.inv_w
    horizon = kernel.horizon
    # (time, seq) pairs: exact bucket-edge times (multiples of the bucket
    # width), three-way ties inside one bucket, a tie at the slice boundary
    # (horizon/2 with slices=2), and an event at the horizon itself (whose
    # bucket index clamps to the last bucket).  Appended out of seq order.
    entries = [
        (2 * width, 5),
        (0.0, 0),
        (width, 3),
        (width, 2),
        (2 * width, 4),
        (2 * width, 6),
        (horizon / 2, 9),
        (horizon / 2, 7),
        (37.5, 8),
        (37.5, 1),
        (horizon, 10),
    ]
    payloads = {}
    for t, seq in entries:
        pkt = [None] * 15
        pkt[0] = (t, seq)
        payloads[seq] = pkt
        _schedule(kernel, (t, seq, EV_RECV, a, vc, pkt))
    st.seq = 11
    kernel.run(horizon, slices=2)
    drained = [pkt[0] for pkt in list(st.bufs[a][vc])[1:]]
    assert drained == sorted(entries)
    assert st.executed == len(entries)
    # EV_RECV stamps the arrival time; every payload saw its own event time.
    for t, seq in entries:
        assert payloads[seq][9] == t


def test_serve_forwards_the_first_eligible_waiter_and_keeps_the_order():
    """The object graph's serve case (``tests/test_network_router.py``) on the
    kernel: one queue, oldest first, of a starved, a stale, an eligible and a
    starved waiter.  The serve forwards the eligible one, drops the stale one
    before it and leaves both starved waiters in their order."""
    spec = ExperimentSpec(config=DragonflyConfig.small_72(), routing="MIN", pattern="UR",
                          offered_load=0.3, sim_time_ns=4_000.0, warmup_ns=0.0, seed=3)
    kernel = BatchKernel(build_model(spec), [spec.seed])
    st = kernel.states[0]
    _clear_calendar(kernel)
    fo = 2  # router 0's first network port
    st.cred[fo] = [0] * len(st.cred[fo])
    st.cred[fo][1] = 1  # credits on VC 1 only
    st.waiting[fo] = []

    def stage(in_port, vc, out_vc):
        # A routed packet record at the head of (in_port, vc); slot 0 names it.
        pkt = [float(in_port), 0, 0, 0, 0, 0, 0, fo, out_vc, 0.0,
               None, None, None, None, None]
        st.bufs[in_port][vc] = [pkt]
        st.waiting[fo].append((in_port, vc, pkt))
        return pkt

    stage(3, 0, 0)
    stage(4, 0, 1)
    st.bufs[4][0] = []  # stale: its packet left already
    eligible = stage(5, 1, 1)
    stage(6, 0, 0)
    _schedule(kernel, (10.0, 0, EV_SERVE, fo, 0, None))
    st.seq = 1
    kernel.run(10.0, slices=1)

    assert st.bufs[5][1] == []
    assert [(in_port, vc, pkt[0]) for in_port, vc, pkt in st.waiting[fo]] == [
        (3, 0, 3.0), (6, 0, 6.0)]
    sent = [event[5] for bucket in st.cal for event in bucket if event[2] == EV_RECV]
    assert len(sent) == 1 and sent[0] is eligible


def test_empty_buckets_are_skipped_and_drained_buckets_freed():
    kernel = _kernel()
    st = kernel.states[0]
    _clear_calendar(kernel)
    last = st.num_buckets - 1
    assert last > 10  # the horizon spans many buckets
    # One lonely SERVE no-op far into the horizon: the cursor must cross
    # hundreds of empty buckets to reach it, executing nothing else.
    t = (last - 0.5) / st.inv_w
    _schedule(kernel, (t, 0, EV_SERVE, 0, 0, None))
    st.seq = 1
    kernel.run(kernel.horizon, slices=1)
    assert st.executed == 1
    assert st.cal_b == last
    assert all(not lst for lst in st.cal[:last])


def test_full_run_frees_every_drained_bucket():
    kernel = _kernel()
    st = kernel.states[0]
    kernel.run(kernel.horizon, slices=1)
    kernel.finalize(kernel.horizon)
    assert st.cal_b == st.num_buckets - 1
    assert all(not lst for lst in st.cal[: st.cal_b])

