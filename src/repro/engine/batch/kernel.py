"""The batched replicate kernel: N scalar runs, bit-identical, in lockstep.

One :class:`BatchKernel` advances every replicate of a batch through the same
simulated-time slices.  Each replicate owns a private **calendar queue** — a
preallocated array of time buckets holding plain event tuples ``(time, seq,
code, a, b, payload)`` — and a private sequence counter incremented at exactly
the points the scalar :class:`~repro.engine.simulator.Simulator` allocates
sequence numbers.  ``(time, seq)`` is unique, so tuple comparison never
reaches the payload.  Same times, same tie-breaks, same float arithmetic:
every replicate's event ordering and statistics are bit-identical to the
scalar backend's run of the same ``(spec, seed)``.

Event codes: ``EV_RECV``, ``EV_CREDIT_R``, ``EV_SERVE``, ``EV_GEN``,
``EV_CREDIT_N``, ``EV_NIC_RETRY`` and ``EV_QFB`` (a Q-feedback landing at
the tagged hop's router, where it updates one table entry).

**Calendar dispatch.**  The simulated horizon is split into
``min(horizon / BUCKET_TARGET_NS, MAX_BUCKETS)`` equal-width buckets; an
event at time ``t`` lives in bucket ``int(t * inv_width)`` (clamped to the
last bucket, which therefore also absorbs everything beyond the horizon).
A bucket is sorted once, on entry of the drain cursor; from then on every
insertion into the *current* bucket is a ``bisect.insort`` above the cursor
— safe because a scheduled time is never below the executing event's
``(time, seq)`` — and every insertion into a future bucket is a plain
append.  Drained buckets are freed as the cursor advances; the cursor
``(bucket, offset)`` persists across lockstep slices.  Fetch and append are
O(1), and the drain visits events in the exact ``(time, seq)`` total order
of the scalar heap, which the equivalence suite pins.

**Monolithic drain.**  ``_advance`` inlines the entire per-event path —
route/forward chain, waiter serve, traffic replay, NIC injection, Q-table
updates — into one loop with every constant bound as a local, so an event
costs no Python frame of its own.

**Decision kinds.**  The routing step dispatches on ``model.kind``:

==== ========== ==========================================================
kind routing    decided by
==== ========== ==========================================================
0    MIN        inline: one ``min_next`` lookup
1    Q-adp      inline: two-level table read, feedback an ``EV_QFB`` event
2    Q-routing  inline: flat table read, feedback an ``EV_QFB`` event
3    VALg       ``decisions.valg``
4    VALn       ``decisions.valn``
5    VAL        ``decisions.val``
6    UGALg      ``decisions.ugalg``  (congestion read of two ports)
7    UGALn      ``decisions.ugaln``  (congestion read of two ports)
8    PAR        ``decisions.par``    (UGALn + one re-evaluation)
==== ========== ==========================================================

Kinds 3–8 are the rows of :data:`repro.engine.batch.decisions.DECISION_TABLE`:
one plain function per kind, built once per ``_advance`` call and costing the
kinds routed inline nothing but one local ``None`` test.

**Q-tables.**  Each replicate's Q-tables are nested Python sequences
indexed ``[router][row][column]``: the per-decision path is scalar float
math on a 5- to 11-column row, where plain sequences avoid numpy-scalar
boxing.  A fresh replicate's rows are shared tuples, one per distinct
initial row (:func:`_table_lists`: 23 tuples for the 34 848 rows of the
paper's 1 056-node Q-adp tables).  The one write site, the ``EV_QFB``
branch of ``_advance``, replaces a tuple row with its own list on first
write, so a table costs list slots only for the rows learning touched.
Feedback lands when the object graph's does, so the tables and update
counters equal the object graph's at every ``run(until)`` stop.

**Source queues.**  Traffic is open-loop, so a NIC's source queue is always
the FIFO run of its own trace entries with a destination, between the
oldest uninjected one (``nic_head[node]``) and the replay cursor
(``ptr[node]``); ``nic_n[node]`` counts them.  A generation event only
advances ``ptr`` and increments ``nic_n``.  A packet record (a plain
12-slot list) exists from injection on: a fresh list built from the trace
entry at ``nic_head``, skipping wake-ups that made no packet.

The kernel's other speed source is *event elision*: a scalar event whose
execution provably cannot change any observable state is accounted for (it
still counts towards ``events_processed`` and keeps its reserved sequence
number) without ever travelling through the calendar.  Two protocols run;
every other event, credit returns and Q-feedback included, is an ordinary
calendar event:

* **wake elision** — the post-forward serve-waiting wake is pended while its
  output port has no waiters; a waiter joining the port materializes the
  still-relevant wakes with their reserved sequence numbers (a wake that
  scalar already executed before the current event necessarily fired on an
  empty waiter queue, a pure no-op, and is counted instead);
* **delivery elision** — the final wire hop into a NIC only appends to the
  delivery log; its timestamp (forward time plus the constant host-link
  delay) is monotone over forwards, so the record is written at forward time
  and the event never exists.  The log is three flat arrays, one value each
  per delivered packet — ``dl_create`` and ``dl_deliver`` (float64) and
  ``dl_hops`` (int16), the collector's typecodes — so it boxes no tuple.

``events_processed`` = executed + elided matches the scalar event count
exactly; the equivalence suite pins that along with every statistic.
"""

from __future__ import annotations

import gc
from array import array
from bisect import insort
from collections import deque
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.batch.decisions import decision_for
from repro.engine.batch.model import BatchModel
from repro.engine.batch.trace import record_traffic_trace
from repro.engine.rng import RngFactory
from repro.stats.collectors import HOPS_TYPECODE, TIME_TYPECODE
from repro.traffic import make_pattern

# Event codes (the drain dispatches by frequency: RECV first).
EV_RECV = 0  # a=router*k+in_port, b=vc, payload=packet
EV_CREDIT_R = 1  # a=router*k+out_port, b=vc
EV_SERVE = 2  # a=router*k+out_port
EV_GEN = 3  # a=node
EV_CREDIT_N = 4  # a=node
EV_NIC_RETRY = 5  # a=node
EV_QFB = 6  # a=(router, row, column, arrival) tag, b=target

# Packet slots (plain lists: fastest mutable record in CPython).
P_CREATE = 0  # create_time_ns
P_DST = 1  # dst_node
P_DSTR = 2  # dst_router
P_SRCR = 3  # src_router
P_SRCG = 4  # src_group
P_SRCL = 5  # src_node_local
P_HOPS = 6
P_OUT = 7  # routed out_port (decision of the current router)
P_OVC = 8  # routed out_vc
P_ARR = 9  # router_arrival_ns
P_SCRATCH = 10  # routing-private: Q-adp one-shot flag, Valiant/UGAL/PAR path state
P_QFB = 11  # pending feedback (prev_router, row, column, prev_arrival)

#: calendar-queue sizing: aim for buckets a couple of link delays wide, but
#: never preallocate more than MAX_BUCKETS lists per replicate.
BUCKET_TARGET_NS = 16.0
MAX_BUCKETS = 4096


def _table_lists(values: np.ndarray) -> List[List[Sequence[float]]]:
    """``values.tolist()``, with one shared tuple per distinct row.

    The initial block holds a handful of distinct rows (23 for the 34 848
    rows of the paper's 1 056-node Q-adp tables), so the tables share them
    instead of boxing every entry.  A learning write first replaces its tuple
    row with a private list (``list(row)``), then updates one slot of it.
    """
    routers, rows, cols = values.shape
    raw = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    width = 8 * cols
    shared: Dict[bytes, Tuple[float, ...]] = {}
    flat: List[Sequence[float]] = []
    append = flat.append
    for start in range(0, len(raw), width):
        key = raw[start:start + width]
        row = shared.get(key)
        if row is None:
            row = shared[key] = tuple(np.frombuffer(key).tolist())
        append(row)
    return [flat[router * rows:(router + 1) * rows] for router in range(routers)]


class ReplicateState:
    """Mutable per-replicate simulation state (see BatchKernel)."""

    __slots__ = (
        "seed", "cal", "cal_b", "cal_i", "inv_w", "num_buckets", "seq",
        "bufs", "out_busy", "waiting", "cred",
        "pend_wakes",
        "nic_busy", "nic_head", "nic_n", "nic_retry", "nic_cred",
        "qt", "updates", "rng", "times", "dsts", "ptr", "executed", "elided",
        "dl_create", "dl_deliver", "dl_hops",
        "c_src_min", "c_src_best", "c_int_min", "c_int_rr",
        "c_fb_sent", "c_fb_app", "c_forced",
        "c_minimal", "c_nonminimal", "c_reevaluations", "c_diverted",
    )

    def __init__(self, model: BatchModel, seed: int) -> None:
        size = model.num_routers * model.k
        num_vcs = model.num_vcs
        self.seed = seed
        horizon = float(model.spec.sim_time_ns)
        num_buckets = int(horizon / BUCKET_TARGET_NS) + 1
        if num_buckets > MAX_BUCKETS:
            num_buckets = MAX_BUCKETS
        self.num_buckets = num_buckets
        self.inv_w = num_buckets / horizon if horizon > 0.0 else 0.0
        self.cal: List[List[Tuple]] = [[] for _ in range(num_buckets)]
        self.cal_b = 0  # drain cursor: current bucket ...
        self.cal_i = 0  # ... and offset of the next event within it
        self.seq = 0
        # Input buffers: plain lists, never deeper than vc_buffer_packets (an
        # empty deque costs over ten times an empty list, and there is one
        # per port and VC); the forward pops the head with ``del buf[0]``.
        self.bufs = [[[] for _ in range(num_vcs)] for _ in range(size)]
        self.out_busy = [0.0] * size
        self.waiting = [deque() for _ in range(size)]
        self.cred = [
            None if cap is None else [cap] * num_vcs for cap in model.cred_cap
        ]
        # Wake-elision pends (see the module docstring):
        self.pend_wakes: List[List[Tuple[float, int]]] = [[] for _ in range(size)]
        num_nodes = model.num_nodes
        self.nic_busy = [0.0] * num_nodes
        # Source queue: the nic_n entries with dst >= 0 in dsts[node][nic_head:ptr].
        self.nic_head = [0] * num_nodes
        self.nic_n = [0] * num_nodes
        self.nic_retry = [False] * num_nodes
        self.nic_cred = [model.nic_cred_cap] * num_nodes
        # Q-tables [router][row][column]; empty under MIN, which reads none.
        self.qt: List[List[Sequence[float]]] = (
            [] if model.init_values is None else _table_lists(model.init_values)
        )
        updates, self.c_fb_sent, self.c_fb_app = model.init_counters
        self.updates = list(updates)  # applied Q-feedback events per router
        # The same named stream the scalar routing draws from on attach.
        self.rng = RngFactory(seed).py(f"routing:{model.spec.routing}")
        spec = model.spec
        pattern = make_pattern(spec.pattern, **spec.pattern_kwargs)
        self.times, self.dsts = record_traffic_trace(
            model.topo, model.params, pattern, seed, spec.offered_load,
            spec.schedule, spec.arrival, spec.sim_time_ns,
        )
        self.ptr = [0] * num_nodes  # next wake-up to replay, per node
        self.executed = 0
        self.elided = 0
        # Delivery log, one entry per delivered packet in delivery order.
        self.dl_create = array(TIME_TYPECODE)
        self.dl_deliver = array(TIME_TYPECODE)
        self.dl_hops = array(HOPS_TYPECODE)
        self.c_src_min = 0
        self.c_src_best = 0
        self.c_int_min = 0
        self.c_int_rr = 0
        self.c_forced = 0
        # UGALg / UGALn / PAR tallies, kept by their decision functions.
        self.c_minimal = 0
        self.c_nonminimal = 0
        self.c_reevaluations = 0
        self.c_diverted = 0
        # The wake-up stream's initial pushes: one event per node that has a
        # first wake-up, sequence numbers in ascending node order.  Plain appends:
        # bucket 0 is sorted when the drain cursor enters it.
        cal = self.cal
        inv_w = self.inv_w
        last = num_buckets - 1
        for node, times in enumerate(self.times):
            if times:
                seq = self.seq
                self.seq = seq + 1
                t = times[0]
                idx = int(t * inv_w)
                if idx > last:
                    idx = last
                cal[idx].append((t, seq, EV_GEN, node, 0, None))

    def events_processed(self) -> int:
        """Scalar-equivalent event count (executed plus elided no-op events)."""
        return self.executed + self.elided

    def generated(self) -> int:
        """Packets generated so far: the replayed wake-ups (below ``ptr``)
        that made a packet, i.e. the ``dst >= 0`` entries of each node's
        trace prefix."""
        dsts = b"".join([memoryview(d)[:end] for d, end in zip(self.dsts, self.ptr)])
        return int(np.count_nonzero(np.frombuffer(dsts, dtype=np.intc) >= 0))

    # ``glog`` and ``dlog`` stay only for the ledger's ``stats.replay_s``
    # probe; they go with ROADMAP 1(g).
    @property
    def glog(self) -> List[float]:
        """Create times of every packet generated so far, ascending."""
        ends = self.ptr
        dsts = b"".join([memoryview(d)[:end] for d, end in zip(self.dsts, ends)])
        times = b"".join([memoryview(t)[:end] for t, end in zip(self.times, ends)])
        created = np.frombuffer(times)[np.frombuffer(dsts, dtype=np.intc) >= 0]
        return np.sort(created).tolist()

    @property
    def dlog(self) -> List[Tuple[float, float, int]]:
        """The delivery log as chronological ``(create, deliver, hops)`` triples."""
        return list(zip(self.dl_create, self.dl_deliver, self.dl_hops))


class BatchKernel:
    """Advances all replicates of one batch in lockstep time slices."""

    def __init__(self, model: BatchModel, seeds: List[int]) -> None:
        self.model = model
        self.seeds = list(seeds)
        self.horizon = float(model.spec.sim_time_ns)
        self.states = [ReplicateState(model, seed) for seed in self.seeds]
        self.now = 0.0

    # ------------------------------------------------------------- lockstep
    def run(self, until: float, slices: int) -> None:
        """Advance every replicate to ``until`` in ``slices`` lockstep steps.

        The cyclic garbage collector is suspended for the duration of the
        drain: the kernel allocates millions of short-lived event tuples
        against a large live heap (every replicate's calendar, buffers and
        tables survive every collection), which makes generation-0 scans the
        single largest cost of the loop.  Nothing the kernel allocates forms
        reference cycles, so suppression only defers — never leaks — and the
        collector is restored even if a replicate raises.
        """
        start = self.now
        span = until - start
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            for step in range(1, slices + 1):
                bound = (until if step == slices
                         else start + span * (step / slices))
                for state in self.states:
                    self._advance(state, bound)
                self.now = bound
        finally:
            if was_enabled:
                gc.enable()

    def finalize(self, until: float) -> None:
        """Count every pended wake the scalar run would have executed."""
        for st in self.states:
            elided = 0
            for pend in st.pend_wakes:
                for entry in pend:
                    if entry[0] <= until:
                        elided += 1
                del pend[:]
            st.elided += elided

    # ------------------------------------------------------------ event loop
    def _advance(self, st: ReplicateState, until: float) -> None:
        """Drain one replicate's calendar up to ``until`` (monolithic).

        This is the whole per-event path of the batched backend in one frame:
        calendar fetch, dispatch, the route-and-forward chain, waiter serve,
        traffic replay, NIC injection and every elision protocol, with all
        constants and mutable state bound as locals once per slice.  The one
        call-out is the routing decision of a decision-table kind.
        """
        m = self.model
        # --- calendar cursor ---
        cal = st.cal
        b = st.cal_b
        i = st.cal_i
        inv_w = st.inv_w
        last_b = st.num_buckets - 1
        lst = cal[b]
        if i == 0 and len(lst) > 1:
            lst.sort()
        n_lst = len(lst)
        # --- model constants ---
        k = m.k
        hpr = m.hpr
        ser = m.ser
        max_vc = m.max_vc
        kind = m.kind
        learned = m.learned
        decide = decision_for(m, st)  # None for the kinds routed inline below
        horizon = self.horizon
        hop_delay = m.hop_delay
        lat = m.lat
        remote_idx = m.remote_idx
        node_at = m.node_at
        min_next = m.min_next
        num_host = m.num_host
        group = m.group
        nic_fidx = m.nic_fidx
        nic_router = m.nic_router
        nic_hop_delay = m.nic_hop_delay
        first_port = m.first_port
        explore = m.explore
        onpolicy = m.onpolicy
        alpha = m.alpha
        beta = m.beta
        epsilon = m.epsilon
        p_ = m.p
        q_thld1 = m.q_thld1
        q_thld2 = m.q_thld2
        local_ports = m.local_ports
        direct = m.direct
        max_q = m.max_q
        # --- replicate state ---
        bufs = st.bufs
        cred_l = st.cred
        waiting = st.waiting
        out_busy = st.out_busy
        pend_wakes = st.pend_wakes
        nic_busy = st.nic_busy
        nic_head = st.nic_head
        nic_n = st.nic_n
        nic_retry = st.nic_retry
        nic_cred = st.nic_cred
        trace_t = st.times
        trace_d = st.dsts
        ptr = st.ptr
        qt = st.qt
        updates = st.updates
        rand = st.rng.random
        randrange = st.rng.randrange
        int_ = int
        len_ = len
        tuple_ = tuple
        dl_create_append = st.dl_create.append
        dl_deliver_append = st.dl_deliver.append
        dl_hops_append = st.dl_hops.append
        # --- cached counters (written back on exit) ---
        nseq = st.seq
        executed = st.executed
        elided = 0  # added to st.elided on exit
        c_src_min = st.c_src_min
        c_src_best = st.c_src_best
        c_int_min = st.c_int_min
        c_int_rr = st.c_int_rr
        c_fb_sent = st.c_fb_sent
        c_fb_app = st.c_fb_app
        c_forced = st.c_forced
        while True:
            # ---------------------------------------------- calendar fetch
            if i < n_lst:
                now, cur_seq, code, a, bb, pl = lst[i]
                if now > until:
                    break
                i += 1
            else:
                if b == last_b:
                    break
                del lst[:]  # free the drained bucket
                b += 1
                i = 0
                lst = cal[b]
                n_lst = len_(lst)
                if n_lst > 1:
                    lst.sort()
                continue
            executed += 1
            # -------------------------------------------------- dispatch
            if code == 0:  # EV_RECV
                pkt = pl
                pkt[9] = now
                vc = bb
                buf = bufs[a][vc]
                if buf:
                    buf.append(pkt)
                    continue  # head already routed or waiting
                buf.append(pkt)
                router = a // k
                base = router * k
                in_port = a - base
                forward_first = False
            elif code < 3:  # EV_CREDIT_R (1) / EV_SERVE (2)
                if code == 1:
                    cc = cred_l[a]
                    if cc is not None:
                        cc[bb] += 1
                waiters = waiting[a]
                if not waiters or out_busy[a] > now:
                    continue
                # Mirror Router._serve_waiting: forward one eligible waiter,
                # FIFO, rotating credit-starved waiters to the back.
                router = a // k
                base = router * k
                cc = cred_l[a]
                scanned = 0
                skipped = 0
                total = len_(waiters)
                while scanned < total and waiters:
                    in_port, vc, wpkt = waiters[0]
                    wbuf = bufs[base + in_port][vc]
                    if not wbuf or wbuf[0] is not wpkt:
                        # Stale: the packet left through another port already.
                        waiters.popleft()
                        scanned += 1
                        continue
                    if cc is None or cc[wpkt[8]] > 0:
                        waiters.popleft()
                        if skipped:
                            waiters.rotate(skipped)
                        break
                    waiters.rotate(-1)
                    skipped += 1
                    scanned += 1
                else:
                    if skipped:
                        waiters.rotate(skipped)
                    continue
                buf = wbuf
                forward_first = True  # enter the chain at the forward step
            else:  # NIC-side events (3-5), then EV_QFB (6)
                node = a
                if code == 3:
                    # Replay one wake-up of the traffic stream (WakeupRecorder).
                    # A packet joins the source queue as its trace entry: the
                    # record is built at injection.
                    times = trace_t[node]
                    index = ptr[node]
                    dst = trace_d[node][index]
                    index += 1
                    ptr[node] = index
                    if dst < 0:
                        if index < len_(times):
                            s2 = nseq
                            nseq = s2 + 1
                            t2 = times[index]
                            idx = int_(t2 * inv_w)
                            if idx > last_b:
                                idx = last_b
                            e = (t2, s2, 3, node, 0, None)  # EV_GEN
                            if idx == b:
                                insort(lst, e, i)
                                n_lst += 1
                            else:
                                cal[idx].append(e)
                        continue
                    queued = nic_n[node] + 1
                    nic_n[node] = queued
                elif code == 4:  # EV_CREDIT_N
                    nic_cred[node] += 1
                    queued = nic_n[node]
                elif code == 5:  # EV_NIC_RETRY
                    nic_retry[node] = False
                    queued = nic_n[node]
                else:
                    # EV_QFB: TabularMarlRouting._apply_feedback, the
                    # hysteretic update of one entry of the tagged hop's
                    # router.  a is the hop's tag, bb the target.
                    table = qt[a[0]]
                    row_l = table[a[1]]
                    if row_l.__class__ is tuple_:  # first write: unshare the row
                        row_l = table[a[1]] = list(row_l)
                    column = a[2]
                    current = row_l[column]
                    delta = bb - current
                    row_l[column] = current + (alpha if delta < 0.0 else beta) * delta
                    c_fb_app += 1
                    updates[a[0]] += 1
                    continue
                # Mirror Nic._try_inject: drain the source queue onto the
                # host link (shared by all three NIC-side events).
                while queued:
                    busy_until = nic_busy[node]
                    if busy_until > now:
                        if not nic_retry[node]:
                            nic_retry[node] = True
                            s2 = nseq
                            nseq = s2 + 1
                            idx = int_(busy_until * inv_w)
                            if idx > last_b:
                                idx = last_b
                            e = (busy_until, s2, 5, node, 0, None)  # EV_NIC_RETRY
                            if idx == b:
                                insort(lst, e, i)
                                n_lst += 1
                            else:
                                cal[idx].append(e)
                        break
                    if nic_cred[node] <= 0:
                        break  # the router's credit return retries
                    # Pop the oldest queued trace entry, skipping wake-ups
                    # that made no packet, into a fresh packet record.
                    h = nic_head[node]
                    dst = trace_d[node][h]
                    while dst < 0:
                        h += 1
                        dst = trace_d[node][h]
                    nic_head[node] = h + 1
                    queued -= 1
                    nic_n[node] = queued
                    create = trace_t[node][h]
                    src_router = nic_router[node]
                    pkt2 = [create, dst, dst // hpr, src_router,
                            group[src_router], node % hpr, 0, -1, 0, create,
                            None, None]
                    nic_busy[node] = now + ser
                    nic_cred[node] -= 1
                    s2 = nseq
                    nseq = s2 + 1
                    t2 = now + nic_hop_delay
                    idx = int_(t2 * inv_w)
                    if idx > last_b:
                        idx = last_b
                    e = (t2, s2, 0, nic_fidx[node], 0, pkt2)  # EV_RECV
                    if idx == b:
                        insort(lst, e, i)
                        n_lst += 1
                    else:
                        cal[idx].append(e)
                    # clock unchanged: the loop exits through the busy check
                if code == 3 and index < len_(times):
                    s2 = nseq
                    nseq = s2 + 1
                    t2 = times[index]
                    idx = int_(t2 * inv_w)
                    if idx > last_b:
                        idx = last_b
                    e = (t2, s2, 3, node, 0, None)  # EV_GEN
                    if idx == b:
                        insort(lst, e, i)
                        n_lst += 1
                    else:
                        cal[idx].append(e)
                continue
            # ------------------------------------ route-and-forward chain
            # Mirrors the scalar Router's mutually recursive _route_head /
            # _forward pair as one loop over the input buffer (fidx, vc):
            # route the head, forward while port and credits allow, then
            # route the next head — exactly the scalar control flow.
            # forward_first enters at the forward step (the serve path
            # re-forwards an already-routed waiter).
            fidx = base + in_port
            min_next_r = min_next[router]
            num_host_r = num_host[router]
            while True:
                pkt = buf[0]
                if forward_first:
                    forward_first = False
                    out = pkt[7]
                    out_vc = pkt[8]
                    fo = base + out
                    cc = cred_l[fo]
                else:
                    # ---- route the head (Router._route_head + routing.route)
                    dst_router = pkt[2]
                    if dst_router == router:
                        out = pkt[1] % hpr  # the ejection host port
                    elif kind == 0:  # KIND_MIN
                        out = min_next_r[dst_router]
                    elif decide is not None:  # a row of the decision table
                        out = decide(router, pkt)
                    elif kind == 1:  # KIND_QADP
                        # Mirror QAdaptiveRouting.decide, draw for draw.
                        dst_group = group[dst_router]
                        if group[router] == dst_group:
                            out = min_next_r[dst_router]
                        elif router == pkt[3] and pkt[6] == 0:
                            # Source router: minimal vs. global best.
                            row = dst_group * p_ + pkt[5]
                            min_port = min_next_r[dst_router]
                            row_l = qt[router][row]
                            q_min = row_l[min_port - first_port]
                            q_best = min(row_l)
                            best_port = row_l.index(q_best) + first_port
                            if q_min <= 0.0:
                                advantage = 0.0
                            else:
                                advantage = (q_min - q_best) / q_min
                            temp_port = (min_port
                                         if advantage < q_thld1
                                         else best_port)
                            if temp_port == min_port:
                                c_src_min += 1
                            else:
                                c_src_best += 1
                            candidates = explore[router]
                            if (epsilon > 0.0 and candidates
                                    and rand() < epsilon):
                                out = candidates[randrange(len_(candidates))]
                            else:
                                out = temp_port
                        elif pkt[10] is None and group[router] != pkt[4]:
                            # Intermediate group: one-shot reroute chance.
                            pkt[10] = True
                            direct_port = direct[router][dst_group]
                            if direct_port >= 0:
                                c_int_min += 1
                                out = direct_port
                            else:
                                row = dst_group * p_ + pkt[5]
                                min_port = min_next_r[dst_router]
                                rand_port = local_ports[
                                    randrange(len_(local_ports))
                                ]
                                row_l = qt[router][row]
                                q_min = row_l[min_port - first_port]
                                q_best = row_l[rand_port - first_port]
                                if q_min <= 0.0:
                                    advantage = 0.0
                                else:
                                    advantage = (q_min - q_best) / q_min
                                temp_port = (min_port
                                             if advantage < q_thld2
                                             else rand_port)
                                if temp_port == min_port:
                                    c_int_min += 1
                                else:
                                    c_int_rr += 1
                                if (epsilon > 0.0 and local_ports
                                        and rand() < epsilon):
                                    out = local_ports[
                                        randrange(len_(local_ports))
                                    ]
                                else:
                                    out = temp_port
                        else:
                            out = min_next_r[dst_router]
                    else:  # KIND_QROUTING
                        # Mirror QRoutingAlgorithm.decide.
                        if pkt[6] >= max_q:
                            c_forced += 1
                            out = min_next_r[dst_router]
                        else:
                            row_l = qt[router][dst_router]
                            best_port = (row_l.index(min(row_l))
                                         + first_port)
                            candidates = explore[router]
                            if (epsilon > 0.0 and candidates
                                    and rand() < epsilon):
                                out = candidates[randrange(len_(candidates))]
                            else:
                                out = best_port
                    # ---- feedback (TabularMarlRouting._send_feedback): an
                    # EV_QFB event back to the tagged hop's router, one
                    # reverse-link latency away.
                    if learned:
                        qfb = pkt[11]
                        if qfb is not None:
                            pkt[11] = None
                            frow = qfb[1]
                            reward = pkt[9] - qfb[3]
                            if router == pkt[2]:
                                q_next = 0.0
                            elif onpolicy and out >= num_host_r:
                                q_next = qt[router][frow][out - first_port]
                            else:
                                q_next = min(qt[router][frow])
                            c_fb_sent += 1
                            s2 = nseq
                            nseq = s2 + 1
                            t2 = now + lat[fidx]
                            idx = int_(t2 * inv_w)
                            if idx > last_b:
                                idx = last_b
                            e = (t2, s2, 6, qfb, reward + q_next, None)  # EV_QFB
                            if idx == b:
                                insort(lst, e, i)
                                n_lst += 1
                            else:
                                cal[idx].append(e)
                    if learned and out >= num_host_r:
                        # routing.on_forward: tag the hop for the next
                        # router's feedback.  Every field is fixed by decide
                        # time and each routed head forwards exactly once, so
                        # tagging here (instead of at the forward step) is
                        # the same tag — and dst_group is already in hand.
                        if kind == 1:
                            pkt[11] = (router, dst_group * p_ + pkt[5],
                                       out - first_port, pkt[9])
                        else:
                            pkt[11] = (router, dst_router,
                                       out - first_port, pkt[9])
                    pkt[7] = out
                    if out < num_host_r:
                        out_vc = 0
                    else:
                        out_vc = pkt[6]
                        if out_vc > max_vc:
                            out_vc = max_vc
                    pkt[8] = out_vc
                    fo = base + out
                    cc = cred_l[fo]
                    if out_busy[fo] > now or not (cc is None or cc[out_vc] > 0):
                        waiting[fo].append((in_port, vc, pkt))
                        # A waiter joined: pended wakes of this port can now
                        # serve somebody — restore the unmatured ones with
                        # their reserved sequence numbers (a wake that scalar
                        # already executed fired on an empty waiter queue:
                        # count it instead).
                        pendw = pend_wakes[fo]
                        if pendw:
                            for t2, s2 in pendw:
                                if t2 > now or (t2 == now and s2 > cur_seq):
                                    idx = int_(t2 * inv_w)
                                    if idx > last_b:
                                        idx = last_b
                                    e = (t2, s2, 2, fo, 0, None)  # EV_SERVE
                                    if idx == b:
                                        insort(lst, e, i)
                                        n_lst += 1
                                    else:
                                        cal[idx].append(e)
                                else:
                                    elided += 1
                            del pendw[:]
                        break  # chain blocked
                # ---- forward (Router._forward) ----
                del buf[0]
                out_busy[fo] = now + ser
                if cc is not None:
                    cc[out_vc] -= 1
                # The credit return upstream: to the NIC behind a host
                # port, to the upstream router's output port otherwise.
                seq0 = nseq
                t2 = now + hop_delay[fidx]
                if in_port < num_host_r:
                    e = (t2, seq0, 4, node_at[fidx], 0, None)  # EV_CREDIT_N
                else:
                    e = (t2, seq0, 1, remote_idx[fidx], vc, None)  # EV_CREDIT_R
                idx = int_(t2 * inv_w)
                if idx > last_b:
                    idx = last_b
                if idx == b:
                    insort(lst, e, i)
                    n_lst += 1
                else:
                    cal[idx].append(e)
                if out < num_host_r:
                    # Delivery elision: the final wire hop only appends to
                    # the delivery log, and its timestamp is monotone over
                    # forwards.
                    deliver = now + hop_delay[fo]
                    if deliver <= horizon:
                        dl_create_append(pkt[0])
                        dl_deliver_append(deliver)
                        dl_hops_append(pkt[6])
                        elided += 1
                else:
                    pkt[6] += 1
                    t2 = now + hop_delay[fo]
                    idx = int_(t2 * inv_w)
                    if idx > last_b:
                        idx = last_b
                    e = (t2, seq0 + 1, 0, remote_idx[fo], out_vc, pkt)  # EV_RECV
                    if idx == b:
                        insort(lst, e, i)
                        n_lst += 1
                    else:
                        cal[idx].append(e)
                # Serve-waiting wake: reserve the sequence number, but only
                # schedule the event if a waiter already needs it.
                t2 = now + ser
                if waiting[fo]:
                    idx = int_(t2 * inv_w)
                    if idx > last_b:
                        idx = last_b
                    e = (t2, seq0 + 2, 2, fo, 0, None)  # EV_SERVE
                    if idx == b:
                        insort(lst, e, i)
                        n_lst += 1
                    else:
                        cal[idx].append(e)
                else:
                    pend_wakes[fo].append((t2, seq0 + 2))
                nseq = seq0 + 3
                if not buf:
                    break  # chain done: buffer drained
        # --- write back the cached cursor, counters and tallies ---
        st.cal_b = b
        st.cal_i = i
        st.seq = nseq
        st.executed = executed
        st.elided += elided
        st.c_src_min = c_src_min
        st.c_src_best = c_src_best
        st.c_int_min = c_int_min
        st.c_int_rr = c_int_rr
        st.c_fb_sent = c_fb_sent
        st.c_fb_app = c_fb_app
        st.c_forced = c_forced
