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

Probes are attached with
:meth:`~repro.network.network.Network.attach_probe` (or declared on
an :class:`~repro.experiments.harness.ExperimentSpec` via ``telemetry=...``)
and produce JSON-ready payloads from :meth:`summary` — plain dicts of
numbers/strings/lists only, safe to pickle across worker processes, cache on
disk and export with ``repro-sim report``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.scenarios.registry import Registry
from repro.stats.summary import summarize_latencies
from repro.stats.timeseries import TimeSeries

if TYPE_CHECKING:  # typing only: probes bind late, after the network exists
    from repro.network.network import Network
    from repro.network.packet import Packet

__all__ = [
    "PROBE_REGISTRY",
    "FaultDeliveryProbe",
    "InstrumentProbe",
    "LinkUtilizationProbe",
    "QConvergenceProbe",
    "QueueOccupancyProbe",
    "ReconvergenceProbe",
    "SourceLatencyProbe",
    "available_probes",
    "canonical_probe_name",
    "jain_fairness_index",
    "make_probe",
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


class InstrumentProbe:
    """Shared base of the built-in probes.

    ``bin_ns`` is the width of every time-binned series a probe records;
    ``warmup_ns`` excludes the transient from *measurement-window* statistics
    (time series always cover the whole run, like the collector's).  The
    harness passes the owning spec's ``stats_bin_ns`` / ``warmup_ns``, so a
    probe's bins line up with the collector's.
    """

    #: canonical registry name, set by each subclass.
    name = "probe"

    def __init__(self, bin_ns: float = 1_000.0, warmup_ns: float = 0.0) -> None:
        if bin_ns <= 0:
            raise ValueError("bin width must be positive")
        if warmup_ns < 0:
            raise ValueError("warmup_ns cannot be negative")
        self.bin_ns = float(bin_ns)
        self.warmup_ns = float(warmup_ns)

    # Subclasses override; declared here so the Probe protocol always holds.
    def subscriptions(self) -> Dict[str, Callable]:  # pragma: no cover - abstract
        raise NotImplementedError

    def summary(self, end_ns: float) -> Dict:  # pragma: no cover - abstract
        raise NotImplementedError


class LinkUtilizationProbe(InstrumentProbe):
    """Per-link busy fraction: how much of the run each output link spent
    serializing packets, plus a time-binned aggregate utilization."""

    name = "link-util"

    def __init__(self, bin_ns: float = 1_000.0, warmup_ns: float = 0.0) -> None:
        super().__init__(bin_ns, warmup_ns)
        self._busy_ns: Dict[Tuple[int, int], float] = {}
        self._packets: Dict[Tuple[int, int], int] = {}
        self._series = TimeSeries(self.bin_ns)
        self._link_kind: Optional[Dict[Tuple[int, int], str]] = None
        self._total_links: Optional[int] = None

    def bind(self, network: "Network") -> None:
        """Capture topology context for labels and normalization.

        Link kinds are keyed per ``(router, port)`` — on irregular families
        (fat-tree, mesh) the same port index drives different link classes on
        different routers, and some ports are unconnected.  ``links_total``
        counts only the links that exist.
        """
        topo = network.topo
        kinds: Dict[Tuple[int, int], str] = {}
        for router in topo.all_routers():
            for port in range(topo.num_host_ports(router)):
                kinds[(router, port)] = topo.link_kind(router, port).value
            for port in topo.network_ports_of(router):
                kinds[(router, port)] = topo.link_kind(router, port).value
        self._link_kind = kinds
        self._total_links = len(kinds)

    def subscriptions(self) -> Dict[str, Callable]:
        return {"link_busy": self.on_link_busy}

    def on_link_busy(self, router_id: int, out_port: int, now: float, busy_ns: float) -> None:
        key = (router_id, out_port)
        self._busy_ns[key] = self._busy_ns.get(key, 0.0) + busy_ns
        self._packets[key] = self._packets.get(key, 0) + 1
        self._series.add(now, busy_ns)

    def summary(self, end_ns: float) -> Dict:
        window = float(end_ns) if end_ns > 0 else float("nan")
        links: List[Dict] = []
        for (router_id, port), busy in sorted(
            self._busy_ns.items(), key=lambda item: (-item[1], item[0])
        ):
            links.append({
                "router": router_id,
                "port": port,
                "kind": (self._link_kind.get((router_id, port))
                         if self._link_kind is not None else None),
                "packets": self._packets[(router_id, port)],
                "busy_ns": busy,
                "busy_fraction": busy / window,
            })
        fractions = [link["busy_fraction"] for link in links]
        return {
            "probe": self.name,
            "window_ns": window,
            "links_observed": len(links),
            "links_total": self._total_links,
            "max_busy_fraction": max(fractions) if fractions else 0.0,
            "mean_busy_fraction": (sum(fractions) / len(fractions)) if fractions else 0.0,
            "links": links,
            "series": _series_payload(self._series),
        }


class QueueOccupancyProbe(InstrumentProbe):
    """Router output-queue depth and credit stalls: where backpressure builds."""

    name = "queue-occupancy"

    #: routers listed individually in the summary (deepest queues first).
    MAX_ROUTERS = 16

    def __init__(self, bin_ns: float = 1_000.0, warmup_ns: float = 0.0) -> None:
        super().__init__(bin_ns, warmup_ns)
        # per router: [samples, depth sum, max depth, credit stalls]
        self._routers: Dict[int, List[float]] = {}
        self._series = TimeSeries(self.bin_ns)
        self._samples = 0
        self._stalls = 0

    def subscriptions(self) -> Dict[str, Callable]:
        return {
            "queue_depth": self.on_queue_depth,
            "credit_stall": self.on_credit_stall,
        }

    def on_queue_depth(self, router_id: int, out_port: int, depth: int, now: float) -> None:
        stats = self._routers.get(router_id)
        if stats is None:
            stats = self._routers[router_id] = [0, 0.0, 0, 0]
        stats[0] += 1
        stats[1] += depth
        if depth > stats[2]:
            stats[2] = depth
        self._samples += 1
        self._series.add(now, depth)

    def on_credit_stall(self, router_id: int, out_port: int, vc: int, now: float) -> None:
        stats = self._routers.get(router_id)
        if stats is None:
            stats = self._routers[router_id] = [0, 0.0, 0, 0]
        stats[3] += 1
        self._stalls += 1

    def summary(self, end_ns: float) -> Dict:
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
            "probe": self.name,
            "samples": self._samples,
            "credit_stalls": self._stalls,
            "routers_observed": len(self._routers),
            "max_depth": max((s[2] for s in self._routers.values()), default=0),
            "routers": routers,
            "series": _series_payload(self._series),
        }


class SourceLatencyProbe(InstrumentProbe):
    """Per-source-group latency summaries and the Jain fairness index.

    Groups packets by their source routing group (``packet.src_group``:
    Dragonfly groups, fat-tree pods, mesh rows): under adversarial patterns
    some groups' traffic crosses the hotspot link while others' does not, so
    per-group tails expose the fairness behaviour behind the paper's Figure 6
    box plots.  Only packets delivered after ``warmup_ns`` count (the
    collector's measurement-window convention).
    """

    name = "source-latency"

    def __init__(self, bin_ns: float = 1_000.0, warmup_ns: float = 0.0) -> None:
        super().__init__(bin_ns, warmup_ns)
        self._latencies: Dict[int, List[float]] = {}

    def subscriptions(self) -> Dict[str, Callable]:
        return {"packet_delivered": self.on_packet_delivered}

    def on_packet_delivered(self, packet: "Packet", now: float) -> None:
        if now < self.warmup_ns:
            return
        self._latencies.setdefault(packet.src_group, []).append(
            now - packet.create_time_ns
        )

    def summary(self, end_ns: float) -> Dict:
        groups: List[Dict] = []
        means: List[float] = []
        p99s: List[float] = []
        for group in sorted(self._latencies):
            latencies = self._latencies[group]
            stats = summarize_latencies(latencies)
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

    #: routers whose full time series lands in the summary (busiest first);
    #: aggregate counters still cover every router.
    MAX_SERIES = 16

    def __init__(self, bin_ns: float = 1_000.0, warmup_ns: float = 0.0) -> None:
        super().__init__(bin_ns, warmup_ns)
        self._series: Dict[int, TimeSeries] = {}
        self._updates: Dict[int, int] = {}
        self._abs_delta: Dict[int, float] = {}
        self._global = TimeSeries(self.bin_ns)

    def subscriptions(self) -> Dict[str, Callable]:
        return {"q_update": self.on_q_update}

    def on_q_update(self, router_id: int, row: int, column: int,
                    old: float, new: float, now: float) -> None:
        delta = new - old
        if delta < 0.0:
            delta = -delta
        series = self._series.get(router_id)
        if series is None:
            series = self._series[router_id] = TimeSeries(self.bin_ns)
            self._updates[router_id] = 0
            self._abs_delta[router_id] = 0.0
        series.add(now, delta)
        self._updates[router_id] += 1
        self._abs_delta[router_id] += delta
        self._global.add(now, delta)

    def summary(self, end_ns: float) -> Dict:
        routers = [
            {
                "router": router_id,
                "updates": self._updates[router_id],
                "mean_abs_delta": self._abs_delta[router_id] / self._updates[router_id],
            }
            for router_id in sorted(self._updates)
        ]
        busiest = sorted(self._updates, key=lambda r: (-self._updates[r], r))
        return {
            "probe": self.name,
            "updates": sum(self._updates.values()),
            "routers_learning": len(self._updates),
            "routers": routers,
            "series": _series_payload(self._global),
            "router_series": {
                str(router_id): _series_payload(self._series[router_id])
                for router_id in busiest[: self.MAX_SERIES]
            },
        }


class FaultDeliveryProbe(InstrumentProbe):
    """Per-failure-epoch delivery rate of a fault-bearing run.

    The run is split into epochs at every scheduled failure time (the
    baseline epoch covers everything before the first failure); packets are
    binned by *generation* time and by *delivery* time, so each epoch's
    delivery rate measures how much of the traffic offered during that outage
    window actually arrived.  On a faults-off run the probe degrades to one
    whole-run epoch.
    """

    name = "fault-delivery"

    def __init__(self, bin_ns: float = 1_000.0, warmup_ns: float = 0.0) -> None:
        super().__init__(bin_ns, warmup_ns)
        self._boundaries: List[float] = []
        self._generated: List[int] = [0]
        self._delivered: List[int] = [0]
        self._latency_sum: List[float] = [0.0]
        self._controller: Optional[object] = None

    def bind(self, network: "Network") -> None:
        """Read the epoch boundaries off the run's fault controller (if any)."""
        controller = getattr(network, "fault_controller", None)
        self._controller = controller
        if controller is None:
            return
        self._boundaries = list(controller.schedule.failure_times())
        bins = len(self._boundaries) + 1
        self._generated = [0] * bins
        self._delivered = [0] * bins
        self._latency_sum = [0.0] * bins

    def subscriptions(self) -> Dict[str, Callable]:
        return {
            "packet_generated": self.on_packet_generated,
            "packet_delivered": self.on_packet_delivered,
        }

    def on_packet_generated(self, packet: "Packet") -> None:
        self._generated[bisect_right(self._boundaries, packet.create_time_ns)] += 1

    def on_packet_delivered(self, packet: "Packet", now: float) -> None:
        epoch = bisect_right(self._boundaries, now)
        self._delivered[epoch] += 1
        self._latency_sum[epoch] += now - packet.create_time_ns

    def summary(self, end_ns: float) -> Dict:
        starts = [0.0, *self._boundaries]
        ends = [*self._boundaries, float(end_ns)]
        epochs: List[Dict] = []
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
        dropped = getattr(self._controller, "packets_dropped", 0)
        return {
            "probe": self.name,
            "fault_times_ns": list(self._boundaries),
            "packets_dropped": int(dropped),
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

    def __init__(self, bin_ns: float = 1_000.0, warmup_ns: float = 0.0,
                 band: float = 0.25) -> None:
        super().__init__(bin_ns, warmup_ns)
        if band <= 0.0:
            raise ValueError(f"the latency band must be positive, got {band}")
        self.band = float(band)
        self._series = TimeSeries(self.bin_ns)
        self._fault_times: List[float] = []

    def bind(self, network: "Network") -> None:
        controller = getattr(network, "fault_controller", None)
        if controller is not None:
            self._fault_times = list(controller.schedule.failure_times())

    def subscriptions(self) -> Dict[str, Callable]:
        return {"packet_delivered": self.on_packet_delivered}

    def on_packet_delivered(self, packet: "Packet", now: float) -> None:
        self._series.add(now, now - packet.create_time_ns)

    def summary(self, end_ns: float) -> Dict:
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
        failures: List[Dict] = []
        for fault_ns in self._fault_times:
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
            "fault_times_ns": list(self._fault_times),
            "failures": failures,
            "reconverged_all": all(f["reconverged"] for f in failures),
            "series": _series_payload(self._series),
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


def make_probe(name: str, *, bin_ns: float = 1_000.0, warmup_ns: float = 0.0,
               **kwargs) -> InstrumentProbe:
    """Instantiate a registered probe with the run's binning/warm-up context."""
    return PROBE_REGISTRY.build(name, bin_ns=bin_ns, warmup_ns=warmup_ns, **kwargs)
