"""Built-in telemetry probes and the probe registry.

Each probe measures one per-entity view the aggregate
:class:`~repro.stats.collectors.StatsCollector` cannot provide:

* :class:`LinkUtilizationProbe` — per-link busy fraction (which links
  saturate under adversarial traffic), plus a time-binned aggregate.
* :class:`QueueOccupancyProbe` — router output-queue depth and credit-stall
  counts (where backpressure builds).
* :class:`SourceLatencyProbe` — per-source-group latency summaries, the Jain
  fairness index across groups, and the Figure-6-style tail breakdown.
* :class:`QConvergenceProbe` — per-router |ΔQ| time series (how fast each
  agent's table settles, the Figure-7 transient per router).
* :class:`FaultDeliveryProbe` — per-failure-epoch delivery rate when the run
  carries a :mod:`repro.faults` schedule (how much traffic each outage costs).
* :class:`ReconvergenceProbe` — time until the post-failure latency returns
  within a band of the pre-failure steady state (how fast an algorithm
  *routes around* a failure — the paper-relevant resilience measurement).

A probe is a pure reduction: it declares the run logs it reads
(:attr:`InstrumentProbe.logs`, names from :mod:`repro.instrument.logs`), the
run keeps them, and :meth:`InstrumentProbe.summary` reduces them once at the
end of the run, given a :class:`ProbeContext` (bin width, warm-up, link kinds,
fault times, ...).  The harness does this for every probe named by
``ExperimentSpec.telemetry``; on a hand-built network::

    probe = make_probe("link-util")
    logs = net.record_logs(probe.logs)
    net.run(until=50_000.0)
    summary = probe.summary(logs, probe_context(net))

The reductions are :func:`np.bincount` (per-key and per-bin counts and
sums), masks and :func:`np.searchsorted` with ``side="right"`` (the
``bisect_right`` of an epoch) over the logs.  They are bit-identical to
accumulating one event at a time, the argument of
:mod:`repro.stats.collectors`: the logs hold the events in execution order,
numpy's float ``//`` is Python's, and :func:`np.bincount` adds its weights in
input order, so every per-key and per-bin float sum is the chronological
``+=`` a per-event listener computes.  Summaries are JSON-ready plain dicts
of numbers, strings and lists, safe to pickle across worker processes, cache
on disk and export with ``repro-sim report``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.instrument.logs import RunLogs
from repro.scenarios.registry import Registry
from repro.stats.summary import summarize_latencies
from repro.stats.timeseries import TimeSeries

if TYPE_CHECKING:  # typing only: the network layer imports the logs module
    from repro.network.network import Network

__all__ = [
    "PROBE_REGISTRY",
    "FaultDeliveryProbe",
    "InstrumentProbe",
    "LinkUtilizationProbe",
    "ProbeContext",
    "QConvergenceProbe",
    "QueueOccupancyProbe",
    "ReconvergenceProbe",
    "SourceLatencyProbe",
    "available_probes",
    "canonical_probe_name",
    "jain_fairness_index",
    "make_probe",
    "probe_context",
]


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` of a sample.

    1.0 means perfectly equal values; ``1/n`` means one value dominates.
    Returns NaN for an empty sample and 1.0 for an all-zero one (nothing is
    unfair about uniformly zero latencies).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    square_sum = float(np.square(arr).sum())
    if square_sum == 0.0:
        return 1.0
    return float(arr.sum()) ** 2 / (arr.size * square_sum)


def _series_payload(series: TimeSeries) -> Dict:
    """JSON-ready view of a :class:`TimeSeries`: bin centres, means, counts."""
    return {
        "bin_ns": series.bin_ns,
        "times_ns": [float(t) for t in series.bin_times()],
        "mean": [float(v) for v in series.means()],
        "count": [int(c) for c in series.counts()],
    }


class ProbeContext(NamedTuple):
    """What a reduction needs besides the logs (see :func:`probe_context`)."""

    end_ns: float  # the time the run ended
    bin_ns: float  # width of every time-binned series
    warmup_ns: float  # deliveries before it are outside the measurement window
    k: int  # ports per router: a port index is ``router * k + port``
    serialization_ns: float  # how long a forward keeps its output link busy
    link_kinds: Dict[int, str]  # port index -> link kind, for every link that exists
    node_group: np.ndarray  # node -> its routing group (Dragonfly group, pod, row)
    fault_times: List[float]  # ascending failure times of the fault schedule
    packets_dropped: int  # packets the fault layer dropped


def probe_context(network: "Network") -> ProbeContext:
    """The :class:`ProbeContext` of a network's run so far.

    Bins and warm-up are the collector's (the spec's ``stats_bin_ns`` and
    ``warmup_ns``), so a probe's bins line up with the statistics'.  Link
    kinds cover every host port and every connected network port: on
    irregular families (fat-tree, mesh) the same port index drives different
    link classes on different routers, and some ports are unconnected.
    """
    topo = network.topo
    k = topo.k
    link_kinds: Dict[int, str] = {}
    for router in topo.all_routers():
        for port in (*range(topo.num_host_ports(router)), *topo.network_ports_of(router)):
            link_kinds[router * k + port] = topo.link_kind(router, port).value
    node_routers = np.arange(topo.num_nodes) // topo.hosts_per_router
    controller = getattr(network, "fault_controller", None)
    return ProbeContext(
        end_ns=network.sim.now,
        bin_ns=network.collector.bin_ns,
        warmup_ns=network.collector.warmup_ns,
        k=k,
        serialization_ns=network.params.serialization_ns,
        link_kinds=link_kinds,
        node_group=np.asarray(topo.router_groups(), dtype=np.intp)[node_routers],
        fault_times=[] if controller is None else list(controller.schedule.failure_times()),
        packets_dropped=0 if controller is None else controller.packets_dropped,
    )


class InstrumentProbe:
    """Shared base of the built-in probes: a name, the logs it reads, and
    the reduction."""

    #: canonical registry name, set by each subclass.
    name = "probe"
    #: the run logs it reduces besides the delivery log every run keeps
    #: (names from :data:`repro.instrument.logs.LOG_NAMES`).
    logs: Tuple[str, ...] = ()

    def summary(self, logs: RunLogs, ctx: ProbeContext) -> Dict:  # pragma: no cover
        """JSON-ready summary of a finished run's ``logs``."""
        raise NotImplementedError


class LinkUtilizationProbe(InstrumentProbe):
    """Per-link busy fraction: how much of the run each output link spent
    serializing packets, plus a time-binned aggregate utilization."""

    name = "link-util"
    logs = ("forward",)

    def summary(self, logs: RunLogs, ctx: ProbeContext) -> Dict:
        ports = np.array(logs.forward.port, dtype=np.intp)
        times = np.array(logs.forward.time, dtype=float)
        busy_each = np.full(ports.size, ctx.serialization_ns)
        packets = np.bincount(ports).tolist()
        busy_ns = np.bincount(ports, weights=busy_each).tolist()
        window = float(ctx.end_ns) if ctx.end_ns > 0 else float("nan")
        k = ctx.k
        # A port index orders like its (router, port) pair.
        ranked = sorted((f for f, count in enumerate(packets) if count),
                        key=lambda f: (-busy_ns[f], f))
        links = [
            {
                "router": f // k,
                "port": f % k,
                "kind": ctx.link_kinds.get(f),
                "packets": packets[f],
                "busy_ns": busy_ns[f],
                "busy_fraction": busy_ns[f] / window,
            }
            for f in ranked
        ]
        fractions = [link["busy_fraction"] for link in links]
        return {
            "probe": self.name,
            "window_ns": window,
            "links_observed": len(links),
            "links_total": len(ctx.link_kinds),
            "max_busy_fraction": max(fractions) if fractions else 0.0,
            "mean_busy_fraction": (sum(fractions) / len(fractions)) if fractions else 0.0,
            "links": links,
            "series": _series_payload(TimeSeries.binned(times, busy_each, ctx.bin_ns)),
        }


class QueueOccupancyProbe(InstrumentProbe):
    """Router output-queue depth and credit stalls: where backpressure builds."""

    name = "queue-occupancy"
    logs = ("join",)

    #: routers listed individually in the summary (deepest queues first).
    MAX_ROUTERS = 16

    def summary(self, logs: RunLogs, ctx: ProbeContext) -> Dict:
        join = logs.join
        routers = np.array(join.port, dtype=np.intp) // ctx.k
        depth = np.array(join.depth, dtype=np.intp)
        stalled = np.array(join.stalled, dtype=bool)
        size = int(routers.max()) + 1 if routers.size else 0
        samples = np.bincount(routers, minlength=size).tolist()
        depth_sum = np.bincount(routers, weights=depth.astype(float), minlength=size).tolist()
        max_depth = np.zeros(size, dtype=np.intp)
        np.maximum.at(max_depth, routers, depth)
        max_depth = max_depth.tolist()
        stalls = np.bincount(routers[stalled], minlength=size).tolist()
        observed = [r for r in range(size) if samples[r]]
        ranked = sorted(observed, key=lambda r: (-max_depth[r], -depth_sum[r], r))
        return {
            "probe": self.name,
            "samples": int(routers.size),
            "credit_stalls": int(stalled.sum()),
            "routers_observed": len(observed),
            "max_depth": max((max_depth[r] for r in observed), default=0),
            "routers": [
                {
                    "router": r,
                    "samples": samples[r],
                    "mean_depth": depth_sum[r] / samples[r],
                    "max_depth": max_depth[r],
                    "credit_stalls": stalls[r],
                }
                for r in ranked[: self.MAX_ROUTERS]
            ],
            "series": _series_payload(TimeSeries.binned(
                np.array(join.time, dtype=float), depth.astype(float), ctx.bin_ns)),
        }


class SourceLatencyProbe(InstrumentProbe):
    """Per-source-group latency summaries and the Jain fairness index.

    Groups packets by the routing group of their source node (Dragonfly
    groups, fat-tree pods, mesh rows): under adversarial patterns some
    groups' traffic crosses the hotspot link while others' does not, so
    per-group tails expose the fairness behaviour behind the paper's Figure 6
    box plots.  Only packets delivered at or after ``warmup_ns`` count (the
    collector's measurement-window convention).
    """

    name = "source-latency"
    logs = ("source",)

    def summary(self, logs: RunLogs, ctx: ProbeContext) -> Dict:
        deliver = np.array(logs.dl_deliver, dtype=float)
        measured = deliver >= ctx.warmup_ns
        latency = (deliver - np.array(logs.dl_create, dtype=float))[measured]
        group_of = ctx.node_group[np.array(logs.source, dtype=np.intp)[measured]]
        groups: List[Dict] = []
        means: List[float] = []
        p99s: List[float] = []
        for group in np.unique(group_of).tolist():
            stats = summarize_latencies(latency[group_of == group])
            groups.append({"group": group, **stats.to_dict()})
            means.append(stats.mean)
            p99s.append(stats.p99)
        return {
            "probe": self.name,
            "groups_observed": len(groups),
            "measured_packets": sum(g["count"] for g in groups),
            "jain_fairness_mean": jain_fairness_index(means),
            "jain_fairness_p99": jain_fairness_index(p99s),
            "mean_spread": (max(means) / min(means))
            if means and min(means) > 0 else float("nan"),
            "groups": groups,
        }


class QConvergenceProbe(InstrumentProbe):
    """Per-router |ΔQ| time series: how fast each agent's table settles."""

    name = "q-convergence"
    logs = ("q_update",)

    #: routers whose full time series lands in the summary (busiest first);
    #: aggregate counters still cover every router.
    MAX_SERIES = 16

    def summary(self, logs: RunLogs, ctx: ProbeContext) -> Dict:
        routers = np.array(logs.q_update.router, dtype=np.intp)
        delta = np.array(logs.q_update.delta, dtype=float)
        times = np.array(logs.q_update.time, dtype=float)
        updates = np.bincount(routers).tolist()
        delta_sum = np.bincount(routers, weights=delta).tolist()
        learning = [r for r, count in enumerate(updates) if count]
        busiest = sorted(learning, key=lambda r: (-updates[r], r))
        router_series = {}
        for r in busiest[: self.MAX_SERIES]:
            own = routers == r
            series = TimeSeries.binned(times[own], delta[own], ctx.bin_ns)
            router_series[str(r)] = _series_payload(series)
        return {
            "probe": self.name,
            "updates": int(routers.size),
            "routers_learning": len(learning),
            "routers": [
                {"router": r, "updates": updates[r],
                 "mean_abs_delta": delta_sum[r] / updates[r]}
                for r in learning
            ],
            "series": _series_payload(TimeSeries.binned(times, delta, ctx.bin_ns)),
            "router_series": router_series,
        }


class FaultDeliveryProbe(InstrumentProbe):
    """Per-failure-epoch delivery rate of a fault-bearing run.

    The run is split into epochs at every scheduled failure time (the
    baseline epoch covers everything before the first failure; an event
    exactly at a failure time falls in the later epoch); packets are binned
    by *generation* time and by *delivery* time, so each epoch's delivery
    rate measures how much of the traffic offered during that outage window
    actually arrived.  On a faults-off run the probe degrades to one
    whole-run epoch.
    """

    name = "fault-delivery"
    logs = ("generation",)

    def summary(self, logs: RunLogs, ctx: ProbeContext) -> Dict:
        bounds = ctx.fault_times
        size = len(bounds) + 1
        deliver = np.array(logs.dl_deliver, dtype=float)
        epoch_of = np.searchsorted(np.array(bounds, dtype=float), deliver, side="right")
        generated = np.bincount(
            np.searchsorted(np.array(bounds, dtype=float),
                            np.array(logs.generation, dtype=float), side="right"),
            minlength=size).tolist()
        delivered = np.bincount(epoch_of, minlength=size).tolist()
        latency_sum = np.bincount(epoch_of, weights=deliver - np.array(logs.dl_create),
                                  minlength=size).tolist()
        starts = [0.0, *bounds]
        ends = [*bounds, float(ctx.end_ns)]
        epochs: List[Dict] = []
        for index, (start, end) in enumerate(zip(starts, ends, strict=True)):
            epochs.append({
                "epoch": index,
                "start_ns": start,
                "end_ns": end,
                "generated": generated[index],
                "delivered": delivered[index],
                "delivery_rate": (delivered[index] / generated[index])
                if generated[index] else float("nan"),
                "mean_latency_ns": (latency_sum[index] / delivered[index])
                if delivered[index] else float("nan"),
            })
        generated_total = sum(generated)
        delivered_total = sum(delivered)
        return {
            "probe": self.name,
            "fault_times_ns": list(bounds),
            "packets_dropped": int(ctx.packets_dropped),
            "generated": generated_total,
            "delivered": delivered_total,
            "overall_delivery_rate": (delivered_total / generated_total)
            if generated_total else float("nan"),
            "epochs": epochs,
        }


class ReconvergenceProbe(InstrumentProbe):
    """Re-convergence time after each failure: how long until the delivered
    latency returns within ``band`` of the pre-failure steady state.

    The steady state is the mean binned latency between ``warmup_ns`` and the
    first scheduled failure; a failure epoch counts as re-converged at the
    first subsequent bin whose mean latency falls back below
    ``steady * (1 + band)``.  A failure whose latency never returns within
    the band before the run ends reports ``reconverged: false`` — for the
    learned algorithms that distinguishes "re-routed and recovered" from
    "still thrashing", which is the paper-relevant resilience comparison.
    """

    name = "reconvergence"
    logs = ()

    def __init__(self, band: float = 0.25) -> None:
        if band <= 0.0:
            raise ValueError(f"the latency band must be positive, got {band}")
        self.band = float(band)

    def summary(self, logs: RunLogs, ctx: ProbeContext) -> Dict:
        deliver = np.array(logs.dl_deliver, dtype=float)
        series = TimeSeries.binned(deliver, deliver - np.array(logs.dl_create), ctx.bin_ns)
        times = series.bin_times()
        means = series.means()
        counts = series.counts()
        first_failure = ctx.fault_times[0] if ctx.fault_times else float(ctx.end_ns)
        steady_bins = [
            float(mean)
            for time, mean, count in zip(times, means, counts, strict=True)
            if count > 0 and ctx.warmup_ns <= time < first_failure
        ]
        steady = (sum(steady_bins) / len(steady_bins)) if steady_bins else float("nan")
        threshold = steady * (1.0 + self.band)
        failures: List[Dict] = []
        for fault_ns in ctx.fault_times:
            entry: Dict = {"fault_ns": fault_ns, "reconverged": False,
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
            "probe": self.name,
            "band": self.band,
            "steady_state_latency_ns": steady,
            "threshold_latency_ns": threshold,
            "fault_times_ns": list(ctx.fault_times),
            "failures": failures,
            "reconverged_all": all(f["reconverged"] for f in failures),
            "series": _series_payload(series),
        }


# -------------------------------------------------------------------- registry
#: registry of probe factories, keyed by canonical name (plus aliases).
PROBE_REGISTRY = Registry("telemetry probe")

PROBE_REGISTRY.register(
    LinkUtilizationProbe.name, LinkUtilizationProbe,
    aliases=("link-utilization", "links"),
    metadata={"summary": "per-link busy fraction, time-binned"},
)
PROBE_REGISTRY.register(
    QueueOccupancyProbe.name, QueueOccupancyProbe,
    aliases=("queues", "queue"),
    metadata={"summary": "router output-queue depth and credit stalls"},
)
PROBE_REGISTRY.register(
    SourceLatencyProbe.name, SourceLatencyProbe,
    aliases=("fairness", "source-groups"),
    metadata={"summary": "per-source-group latency + Jain fairness index"},
)
PROBE_REGISTRY.register(
    QConvergenceProbe.name, QConvergenceProbe,
    aliases=("q-conv", "convergence"),
    metadata={"summary": "per-router Q-table |delta| time series"},
)
PROBE_REGISTRY.register(
    FaultDeliveryProbe.name, FaultDeliveryProbe,
    aliases=("fault-epochs", "delivery"),
    metadata={"summary": "per-failure-epoch delivery rate under faults"},
)
PROBE_REGISTRY.register(
    ReconvergenceProbe.name, ReconvergenceProbe,
    aliases=("reconv", "recovery-time"),
    metadata={"summary": "post-failure latency re-convergence time"},
)


def canonical_probe_name(name: str) -> str:
    """Canonical display form of a probe name (``"Fairness"`` → ``"source-latency"``)."""
    return PROBE_REGISTRY.canonical_name(name)


def available_probes() -> Dict[str, str]:
    """``{name: summary}`` of every registered probe, in registration order."""
    return {row["name"]: row.get("summary", "") for row in PROBE_REGISTRY.describe()}


def make_probe(name: str, **kwargs) -> InstrumentProbe:
    """Instantiate a registered probe (``kwargs``: its own options, e.g. ``band``)."""
    return PROBE_REGISTRY.build(name, **kwargs)
