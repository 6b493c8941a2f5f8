"""Run-time measurement of packet delivery statistics.

One :class:`StatsCollector` is attached to a network as its default telemetry
probe (see :mod:`repro.instrument`): it subscribes to the ``packet_generated``
and ``packet_delivered`` hooks of the network's probe bus, so any number of
additional listeners can observe the same events.  Measurement-window
statistics (latency array, hop counts, throughput) only include packets
*generated and delivered* after the warm-up time; the binned time series
cover the whole run so that convergence (Figure 7) and dynamic-load
(Figure 8) plots can include the transient.

The per-packet record is typed: latencies are float64 (``'d'``) and hop
counts int16 (``'h'``), both while collecting (flat ``array.array``s, no
boxed object per packet) and in the arrays a result carries.  The batched
kernel's delivery log uses the same two typecodes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.network.packet import Packet
from repro.stats.summary import LatencySummary, summarize_latencies
from repro.stats.timeseries import TimeSeries

#: ``array`` typecodes of the per-packet record: a time or latency in ns is a
#: float64, a hop count an int16 (a path is a handful of router hops).
TIME_TYPECODE = "d"
HOPS_TYPECODE = "h"


@dataclass(frozen=True)
class RunStats:
    """Aggregated results of one simulation run."""

    generated_packets: int
    delivered_packets: int
    measured_packets: int
    mean_latency_ns: float
    mean_hops: float
    throughput: float
    offered_load: Optional[float]
    latency: LatencySummary
    measurement_window_ns: float

    def to_dict(self) -> Dict[str, float]:
        out = {
            "generated_packets": self.generated_packets,
            "delivered_packets": self.delivered_packets,
            "measured_packets": self.measured_packets,
            "mean_latency_ns": self.mean_latency_ns,
            "mean_latency_us": self.mean_latency_ns / 1_000.0,
            "mean_hops": self.mean_hops,
            "throughput": self.throughput,
            "offered_load": self.offered_load,
            "measurement_window_ns": self.measurement_window_ns,
        }
        out.update({f"latency_{k}": v for k, v in self.latency.to_dict().items()})
        return out


class StatsCollector:
    """Collects per-packet statistics for one simulation run."""

    def __init__(
        self,
        warmup_ns: float = 0.0,
        bin_ns: float = 1_000.0,
        num_nodes: int = 1,
        node_bandwidth_bytes_per_ns: float = 4.0,
    ) -> None:
        self.warmup_ns = float(warmup_ns)
        self.num_nodes = num_nodes
        self.node_bandwidth_bytes_per_ns = node_bandwidth_bytes_per_ns

        self.generated = 0
        self.generated_in_window = 0
        self.delivered = 0
        self.latencies_ns = array(TIME_TYPECODE)
        self.hop_counts = array(HOPS_TYPECODE)
        self.delivered_bytes_in_window = 0.0
        self.first_measured_delivery_ns: Optional[float] = None
        self.last_measured_delivery_ns: Optional[float] = None

        self.latency_series = TimeSeries(bin_ns)
        self.delivery_series = TimeSeries(bin_ns)
        self.hop_series = TimeSeries(bin_ns)

        self.offered_load: Optional[float] = None

    # ----------------------------------------------------------- probe wiring
    def subscriptions(self) -> Dict[str, Callable]:
        """Probe-bus hooks of the default collector (the ``Probe`` protocol)."""
        return {
            "packet_generated": self.record_generated,
            "packet_delivered": self.record_delivery,
        }

    # --------------------------------------------------------------- recording
    def record_generated(self, packet: Packet) -> None:
        self.generated += 1
        if packet.create_time_ns >= self.warmup_ns:
            self.generated_in_window += 1

    def record_delivery(self, packet: Packet, now: float) -> None:
        latency = now - packet.create_time_ns
        self.delivered += 1
        # All three series share one bin width: compute the bin index once
        # and update the underlying accumulators directly (this runs once per
        # delivered packet).
        idx = int(now // self.latency_series.bin_ns)
        self.latency_series.add_to_bin(idx, latency)
        self.delivery_series.add_to_bin(idx, packet.size_bytes)
        self.hop_series.add_to_bin(idx, packet.hops)
        # The measurement window is defined by the *delivery* time: this keeps
        # throughput an unbiased steady-state flux and lets saturated runs
        # (source queues growing without bound) still report the latency of
        # whatever the network managed to deliver, as the paper's plots do.
        if now >= self.warmup_ns:
            self.latencies_ns.append(latency)
            self.hop_counts.append(packet.hops)
            self.delivered_bytes_in_window += packet.size_bytes
            if self.first_measured_delivery_ns is None:
                self.first_measured_delivery_ns = now
            self.last_measured_delivery_ns = now

    # ------------------------------------------------------------ bulk replay
    def replay_generated(self, create_times_ns: List[float]) -> None:
        """Replay a chronological generation log in one call.

        Equivalent to :meth:`record_generated` once per packet: both paths
        only count, and the log is sorted by creation time, so the in-window
        tally is the length of the suffix at or past the warm-up.
        """
        self.count_generated(
            len(create_times_ns),
            len(create_times_ns) - bisect_left(create_times_ns, self.warmup_ns))

    def count_generated(self, total: int, in_window: int) -> None:
        """Add ``total`` generated packets, ``in_window`` of them created at or
        after the warm-up: all that :meth:`record_generated` keeps of them."""
        self.generated += total
        self.generated_in_window += in_window

    def replay_deliveries(
        self,
        entries: Iterable[Tuple[float, float, int]],
        size_bytes: float,
    ) -> None:
        """Replay a chronological ``(create_ns, deliver_ns, hops)`` log.

        Performs exactly the per-packet work of :meth:`record_delivery`, in
        log order, with every float accumulated in the same sequence — one
        call instead of one per packet (the batched backend's assembly path).
        Any iterable of triples works: the batched kernel passes
        ``zip(dl_create, dl_deliver, dl_hops)`` over its three flat delivery
        arrays, so no triple is ever stored.
        """
        bin_ns = self.latency_series.bin_ns
        lat_sums, lat_counts = self.latency_series.accumulators()
        del_sums, del_counts = self.delivery_series.accumulators()
        hop_sums, hop_counts = self.hop_series.accumulators()
        warmup = self.warmup_ns
        lat_append = self.latencies_ns.append
        hops_append = self.hop_counts.append
        delivered = self.delivered
        delivered_bytes = self.delivered_bytes_in_window
        first = self.first_measured_delivery_ns
        last = self.last_measured_delivery_ns
        for create, now, hops in entries:
            latency = now - create
            delivered += 1
            idx = int(now // bin_ns)
            lat_sums[idx] = lat_sums.get(idx, 0.0) + latency
            lat_counts[idx] = lat_counts.get(idx, 0) + 1
            del_sums[idx] = del_sums.get(idx, 0.0) + size_bytes
            del_counts[idx] = del_counts.get(idx, 0) + 1
            hop_sums[idx] = hop_sums.get(idx, 0.0) + hops
            hop_counts[idx] = hop_counts.get(idx, 0) + 1
            if now >= warmup:
                lat_append(latency)
                hops_append(hops)
                delivered_bytes += size_bytes
                if first is None:
                    first = now
                last = now
        self.delivered = delivered
        self.delivered_bytes_in_window = delivered_bytes
        self.first_measured_delivery_ns = first
        self.last_measured_delivery_ns = last

    # ------------------------------------------------------------------ output
    # Copies, never views: an exported buffer would make the next append to
    # the collecting array raise BufferError (a run may be finalized, then
    # continued).
    def latency_array_ns(self) -> np.ndarray:
        """Measured latencies in delivery order, as a float64 copy."""
        return np.array(self.latencies_ns, dtype=np.float64)

    def hops_array(self) -> np.ndarray:
        """Measured hop counts in delivery order, as an int16 copy."""
        return np.array(self.hop_counts, dtype=np.int16)

    def throughput(self, window_ns: float) -> float:
        """Delivered fraction of the system injection bandwidth over ``window_ns``."""
        if window_ns <= 0:
            return float("nan")
        capacity = self.num_nodes * self.node_bandwidth_bytes_per_ns * window_ns
        return self.delivered_bytes_in_window / capacity

    def throughput_series(self) -> np.ndarray:
        """Normalized throughput per time bin (whole run, including warm-up)."""
        sums = self.delivery_series.sums()
        capacity = self.num_nodes * self.node_bandwidth_bytes_per_ns * self.delivery_series.bin_ns
        return sums / capacity

    def finalize(self, sim_end_ns: float) -> RunStats:
        """Build the aggregated :class:`RunStats` for a run that ended at ``sim_end_ns``."""
        window = sim_end_ns - self.warmup_ns
        latencies = self.latency_array_ns()
        hops = self.hops_array()
        return RunStats(
            generated_packets=self.generated,
            delivered_packets=self.delivered,
            measured_packets=int(latencies.size),
            mean_latency_ns=float(latencies.mean()) if latencies.size else float("nan"),
            mean_hops=float(hops.mean()) if hops.size else float("nan"),
            throughput=self.throughput(window),
            offered_load=self.offered_load,
            latency=summarize_latencies(latencies),
            measurement_window_ns=window,
        )
