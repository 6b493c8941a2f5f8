"""Property test: every telemetry probe's reduction equals a per-event reference.

Each built-in probe is a reduction over typed run logs
(:mod:`repro.instrument.logs`).  The reference accumulators below keep the
per-event listener logic the probes had when they observed the run event by
event — dict updates, ``bisect_right`` epochs, a running ``TimeSeries`` —
the way ``_ReferenceGenerator`` in ``tests/test_traffic_generator.py`` keeps
the old traffic draws.  Generated logs put events on bin edges, deliveries
at exactly ``warmup_ns``, and generations and deliveries exactly at a failure
time (which belong to the later epoch); empty logs are drawn too.  Every
summary must serialize to the same JSON text, key order included.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument import ProbeContext, RunLogs, make_probe
from repro.instrument.logs import ForwardLog, JoinLog, QUpdateLog
from repro.instrument.probes import _series_payload, jain_fairness_index
from repro.stats.summary import summarize_latencies
from repro.stats.timeseries import TimeSeries

K = 4  # ports per router
ROUTERS = 3
NODE_GROUP = [0, 0, 1, 1, 2, 2]  # node -> routing group
SERIALIZATION_NS = 16.0
END_NS = 10_000.0


# ------------------------------------------------------- per-event references
class _RefSeries(TimeSeries):
    """A ``TimeSeries`` filled one sample at a time, as the listeners did."""

    def add(self, time_ns, value):
        idx = int(time_ns // self.bin_ns)
        self._sums[idx] = self._sums.get(idx, 0.0) + value
        self._counts[idx] = self._counts.get(idx, 0) + 1


class _RefLinkUtilization:
    def __init__(self, bin_ns, link_kind):
        self._busy_ns: Dict[Tuple[int, int], float] = {}
        self._packets: Dict[Tuple[int, int], int] = {}
        self._series = _RefSeries(bin_ns)
        self._link_kind = link_kind

    def on_link_busy(self, router_id, out_port, now, busy_ns):
        key = (router_id, out_port)
        self._busy_ns[key] = self._busy_ns.get(key, 0.0) + busy_ns
        self._packets[key] = self._packets.get(key, 0) + 1
        self._series.add(now, busy_ns)

    def summary(self, end_ns):
        window = float(end_ns) if end_ns > 0 else float("nan")
        links = []
        for (router_id, port), busy in sorted(
            self._busy_ns.items(), key=lambda item: (-item[1], item[0])
        ):
            links.append({
                "router": router_id,
                "port": port,
                "kind": self._link_kind.get((router_id, port)),
                "packets": self._packets[(router_id, port)],
                "busy_ns": busy,
                "busy_fraction": busy / window,
            })
        fractions = [link["busy_fraction"] for link in links]
        return {
            "probe": "link-util",
            "window_ns": window,
            "links_observed": len(links),
            "links_total": len(self._link_kind),
            "max_busy_fraction": max(fractions) if fractions else 0.0,
            "mean_busy_fraction": (sum(fractions) / len(fractions)) if fractions else 0.0,
            "links": links,
            "series": _series_payload(self._series),
        }


class _RefQueueOccupancy:
    MAX_ROUTERS = 16

    def __init__(self, bin_ns):
        self._routers: Dict[int, List[float]] = {}
        self._series = _RefSeries(bin_ns)
        self._samples = 0
        self._stalls = 0

    def on_queue_depth(self, router_id, out_port, depth, now):
        stats = self._routers.setdefault(router_id, [0, 0.0, 0, 0])
        stats[0] += 1
        stats[1] += depth
        if depth > stats[2]:
            stats[2] = depth
        self._samples += 1
        self._series.add(now, depth)

    def on_credit_stall(self, router_id, out_port, vc, now):
        stats = self._routers.setdefault(router_id, [0, 0.0, 0, 0])
        stats[3] += 1
        self._stalls += 1

    def summary(self, end_ns):
        ranked = sorted(
            self._routers.items(), key=lambda item: (-item[1][2], -item[1][1], item[0])
        )
        routers = [
            {
                "router": router_id,
                "samples": int(samples),
                "mean_depth": (depth_sum / samples) if samples else 0.0,
                "max_depth": int(max_depth),
                "credit_stalls": int(stalls),
            }
            for router_id, (samples, depth_sum, max_depth, stalls) in ranked[: self.MAX_ROUTERS]
        ]
        return {
            "probe": "queue-occupancy",
            "samples": self._samples,
            "credit_stalls": self._stalls,
            "routers_observed": len(self._routers),
            "max_depth": max((s[2] for s in self._routers.values()), default=0),
            "routers": routers,
            "series": _series_payload(self._series),
        }


class _RefSourceLatency:
    def __init__(self, warmup_ns):
        self.warmup_ns = warmup_ns
        self._latencies: Dict[int, List[float]] = {}

    def on_packet_delivered(self, packet, now):
        if now < self.warmup_ns:
            return
        self._latencies.setdefault(packet.src_group, []).append(now - packet.create_time_ns)

    def summary(self, end_ns):
        groups, means, p99s = [], [], []
        for group in sorted(self._latencies):
            stats = summarize_latencies(self._latencies[group])
            groups.append({"group": group, **stats.to_dict()})
            means.append(stats.mean)
            p99s.append(stats.p99)
        return {
            "probe": "source-latency",
            "groups_observed": len(groups),
            "measured_packets": sum(g["count"] for g in groups),
            "jain_fairness_mean": jain_fairness_index(means),
            "jain_fairness_p99": jain_fairness_index(p99s),
            "mean_spread": (max(means) / min(means))
            if means and min(means) > 0 else float("nan"),
            "groups": groups,
        }


class _RefQConvergence:
    MAX_SERIES = 16

    def __init__(self, bin_ns):
        self.bin_ns = bin_ns
        self._series: Dict[int, _RefSeries] = {}
        self._updates: Dict[int, int] = {}
        self._abs_delta: Dict[int, float] = {}
        self._global = _RefSeries(bin_ns)

    def on_q_update(self, router_id, row, column, old, new, now):
        delta = new - old
        if delta < 0.0:
            delta = -delta
        series = self._series.get(router_id)
        if series is None:
            series = self._series[router_id] = _RefSeries(self.bin_ns)
            self._updates[router_id] = 0
            self._abs_delta[router_id] = 0.0
        series.add(now, delta)
        self._updates[router_id] += 1
        self._abs_delta[router_id] += delta
        self._global.add(now, delta)

    def summary(self, end_ns):
        routers = [
            {"router": r, "updates": self._updates[r],
             "mean_abs_delta": self._abs_delta[r] / self._updates[r]}
            for r in sorted(self._updates)
        ]
        busiest = sorted(self._updates, key=lambda r: (-self._updates[r], r))
        return {
            "probe": "q-convergence",
            "updates": sum(self._updates.values()),
            "routers_learning": len(self._updates),
            "routers": routers,
            "series": _series_payload(self._global),
            "router_series": {
                str(r): _series_payload(self._series[r]) for r in busiest[: self.MAX_SERIES]
            },
        }


class _RefFaultDelivery:
    def __init__(self, boundaries, dropped):
        self._boundaries = list(boundaries)
        bins = len(self._boundaries) + 1
        self._generated = [0] * bins
        self._delivered = [0] * bins
        self._latency_sum = [0.0] * bins
        self._dropped = dropped

    def on_packet_generated(self, packet):
        self._generated[bisect_right(self._boundaries, packet.create_time_ns)] += 1

    def on_packet_delivered(self, packet, now):
        epoch = bisect_right(self._boundaries, now)
        self._delivered[epoch] += 1
        self._latency_sum[epoch] += now - packet.create_time_ns

    def summary(self, end_ns):
        starts = [0.0, *self._boundaries]
        ends = [*self._boundaries, float(end_ns)]
        epochs = []
        for index, (start, end) in enumerate(zip(starts, ends, strict=True)):
            generated = self._generated[index]
            delivered = self._delivered[index]
            epochs.append({
                "epoch": index,
                "start_ns": start,
                "end_ns": end,
                "generated": generated,
                "delivered": delivered,
                "delivery_rate": (delivered / generated) if generated else float("nan"),
                "mean_latency_ns": (self._latency_sum[index] / delivered)
                if delivered else float("nan"),
            })
        generated_total = sum(self._generated)
        delivered_total = sum(self._delivered)
        return {
            "probe": "fault-delivery",
            "fault_times_ns": list(self._boundaries),
            "packets_dropped": int(self._dropped),
            "generated": generated_total,
            "delivered": delivered_total,
            "overall_delivery_rate": (delivered_total / generated_total)
            if generated_total else float("nan"),
            "epochs": epochs,
        }


class _RefReconvergence:
    def __init__(self, bin_ns, warmup_ns, fault_times, band=0.25):
        self.warmup_ns = warmup_ns
        self.band = band
        self._series = _RefSeries(bin_ns)
        self._fault_times = list(fault_times)

    def on_packet_delivered(self, packet, now):
        self._series.add(now, now - packet.create_time_ns)

    def summary(self, end_ns):
        times = self._series.bin_times()
        means = self._series.means()
        counts = self._series.counts()
        first_failure = self._fault_times[0] if self._fault_times else float(end_ns)
        steady_bins = [
            float(mean)
            for time, mean, count in zip(times, means, counts, strict=True)
            if count > 0 and self.warmup_ns <= time < first_failure
        ]
        steady = (sum(steady_bins) / len(steady_bins)) if steady_bins else float("nan")
        threshold = steady * (1.0 + self.band)
        failures = []
        for fault_ns in self._fault_times:
            entry = {"fault_ns": fault_ns, "reconverged": False,
                     "reconvergence_ns": None, "peak_latency_ns": 0.0}
            for time, mean, count in zip(times, means, counts, strict=True):
                if count == 0 or time < fault_ns:
                    continue
                if mean > entry["peak_latency_ns"]:
                    entry["peak_latency_ns"] = float(mean)
                if mean <= threshold:
                    entry["reconverged"] = True
                    entry["reconvergence_ns"] = float(time) - fault_ns
                    break
            failures.append(entry)
        return {
            "probe": "reconvergence",
            "band": self.band,
            "steady_state_latency_ns": steady,
            "threshold_latency_ns": threshold,
            "fault_times_ns": list(self._fault_times),
            "failures": failures,
            "reconverged_all": all(f["reconverged"] for f in failures),
            "series": _series_payload(self._series),
        }


# ---------------------------------------------------------------- generated runs
@st.composite
def _runs(draw):
    bin_ns = draw(st.sampled_from([250.0, 1_000.0, 333.3]))
    warmup_ns = draw(st.sampled_from([0.0, 2_000.0, 2_500.0, 3_333.3]))
    fault_times = sorted(draw(st.sets(
        st.sampled_from([1_000.0, 2_500.0, 4_000.0, 5_000.0, 7_777.7]), max_size=3)))
    # Special times: bin edges, the warm-up boundary, every failure time.
    special = sorted({0.0, warmup_ns, *fault_times,
                      *(bin_ns * i for i in range(int(END_NS // bin_ns) + 1))})
    any_time = st.one_of(st.sampled_from(special),
                         st.floats(0.0, END_NS, allow_nan=False, allow_infinity=False))
    delay = st.floats(0.0, 3_000.0, allow_nan=False, allow_infinity=False)

    deliveries = sorted(draw(st.lists(
        st.tuples(any_time, delay, st.integers(0, len(NODE_GROUP) - 1)), max_size=40)))
    generations = sorted(draw(st.lists(any_time, max_size=40)))
    forwards = sorted(draw(st.lists(
        st.tuples(any_time, st.integers(0, ROUTERS * K - 1)), max_size=40)))
    joins = sorted(draw(st.lists(
        st.tuples(any_time, st.integers(0, ROUTERS * K - 1), st.integers(1, 12),
                  st.booleans()), max_size=40)))
    value = st.floats(0.0, 5_000.0, allow_nan=False, allow_infinity=False)
    q_updates = sorted(draw(st.lists(
        st.tuples(any_time, st.integers(0, ROUTERS - 1), value, value), max_size=40)))
    kinds = draw(st.lists(st.sampled_from(["host", "local", "global", None]),
                          min_size=ROUTERS * K, max_size=ROUTERS * K))
    return SimpleNamespace(
        bin_ns=bin_ns, warmup_ns=warmup_ns, fault_times=fault_times,
        dropped=draw(st.integers(0, 5)),
        deliveries=[(t - min(d, t), t, src) for t, d, src in deliveries],
        generations=generations, forwards=forwards, joins=joins, q_updates=q_updates,
        link_kind={(f // K, f % K): kind for f, kind in enumerate(kinds) if kind},
    )


def _logs(run) -> RunLogs:
    forward, join, q_update = ForwardLog.new(), JoinLog.new(), QUpdateLog.new()
    for time, port in run.forwards:
        forward.add(port, time)
    for time, port, depth, stalled in run.joins:
        join.add(port, depth, stalled, time)
    for time, router, old, new in run.q_updates:
        q_update.add(router, abs(new - old), time)
    return RunLogs(
        dl_create=array("d", [c for c, _, _ in run.deliveries]),
        dl_deliver=array("d", [t for _, t, _ in run.deliveries]),
        source=array("i", [src for _, _, src in run.deliveries]),
        generation=array("d", run.generations),
        forward=forward, join=join, q_update=q_update,
    )


def _context(run) -> ProbeContext:
    return ProbeContext(
        end_ns=END_NS, bin_ns=run.bin_ns, warmup_ns=run.warmup_ns, k=K,
        serialization_ns=SERIALIZATION_NS,
        link_kinds={r * K + p: kind for (r, p), kind in run.link_kind.items()},
        node_group=np.array(NODE_GROUP), fault_times=list(run.fault_times),
        packets_dropped=run.dropped,
    )


def _references(run) -> Dict[str, object]:
    """Feed every event to the per-event references, in log order."""
    refs = {
        "link-util": _RefLinkUtilization(run.bin_ns, run.link_kind),
        "queue-occupancy": _RefQueueOccupancy(run.bin_ns),
        "source-latency": _RefSourceLatency(run.warmup_ns),
        "q-convergence": _RefQConvergence(run.bin_ns),
        "fault-delivery": _RefFaultDelivery(run.fault_times, run.dropped),
        "reconvergence": _RefReconvergence(run.bin_ns, run.warmup_ns, run.fault_times),
    }
    for time, port in run.forwards:
        refs["link-util"].on_link_busy(port // K, port % K, time, SERIALIZATION_NS)
    for time, port, depth, stalled in run.joins:
        refs["queue-occupancy"].on_queue_depth(port // K, port % K, depth, time)
        if stalled:
            refs["queue-occupancy"].on_credit_stall(port // K, port % K, 0, time)
    for time, router, old, new in run.q_updates:
        refs["q-convergence"].on_q_update(router, 0, 0, old, new, time)
    for create in run.generations:
        refs["fault-delivery"].on_packet_generated(SimpleNamespace(create_time_ns=create))
    for create, deliver, src in run.deliveries:
        packet = SimpleNamespace(create_time_ns=create, src_group=NODE_GROUP[src])
        for name in ("source-latency", "fault-delivery", "reconvergence"):
            refs[name].on_packet_delivered(packet, deliver)
    return refs


@settings(max_examples=150, deadline=None)
@given(_runs())
def test_every_reduction_equals_the_per_event_reference(run):
    logs, context = _logs(run), _context(run)
    for name, reference in _references(run).items():
        got = json.dumps(make_probe(name).summary(logs, context))
        assert got == json.dumps(reference.summary(END_NS)), name


def test_empty_logs_reduce_like_an_idle_run():
    run = SimpleNamespace(bin_ns=1_000.0, warmup_ns=0.0, fault_times=[2_500.0], dropped=0,
                          deliveries=[], generations=[], forwards=[], joins=[],
                          q_updates=[], link_kind={(0, 0): "host"})
    logs, context = _logs(run), _context(run)
    for name, reference in _references(run).items():
        assert json.dumps(make_probe(name).summary(logs, context)) == \
            json.dumps(reference.summary(END_NS)), name
