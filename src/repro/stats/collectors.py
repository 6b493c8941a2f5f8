"""Run-time measurement of packet delivery statistics.

Every network owns one :class:`StatsCollector`; its packet creation calls
:meth:`StatsCollector.record_generated` and every NIC calls
:meth:`StatsCollector.record_delivery`, through plain slots set when the
network is built.

The collector keeps the run's delivery log and nothing derived from it: a
generated-packet count and three typed arrays, one entry per delivered
packet in delivery order — create time and delivery time in ns (float64,
``'d'``) and hop count (int16, ``'h'``).  These are exactly the batched
kernel's ``dl_create`` / ``dl_deliver`` / ``dl_hops``, which its assembly
hands over as they are.  Two more columns are kept only when a telemetry
probe reads them (see :mod:`repro.instrument.logs`), and are ``None``
otherwise: ``dl_src``, the source node of each delivered packet, and
``gen_create``, the create time of each generated packet.  Every statistic
is a numpy reduction over the log at read time:

* the measurement window is the mask ``deliver >= warmup_ns`` (the latency
  and hop arrays, throughput and :class:`RunStats` only count those
  packets);
* the binned series (Figure 7's latency timeline, Figure 8's throughput
  timeline) cover the whole run, transient included: the bin of a delivery
  is ``deliver // bin_ns`` and :func:`np.bincount` gives the per-bin counts
  and latency sums;
* every packet of a run is ``packet_bytes`` long, so delivered bytes are a
  packet count times that size.

These are bit-identical to accumulating one packet at a time: numpy's float
``//`` is Python's, and :func:`np.bincount` adds its weights in input order,
so each bin's sum is the chronological sum a per-packet loop computes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.stats.summary import LatencySummary, summarize_latencies
from repro.stats.timeseries import TimeSeries, bin_sums

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
    """The delivery log of one simulation run, and the statistics over it."""

    def __init__(
        self,
        warmup_ns: float = 0.0,
        bin_ns: float = 1_000.0,
        num_nodes: int = 1,
        node_bandwidth_bytes_per_ns: float = 4.0,
        packet_bytes: int = NetworkParams.packet_bytes,
    ) -> None:
        if bin_ns <= 0:
            raise ValueError("bin width must be positive")
        self.warmup_ns = float(warmup_ns)
        self.bin_ns = float(bin_ns)
        self.num_nodes = num_nodes
        self.node_bandwidth_bytes_per_ns = node_bandwidth_bytes_per_ns
        self.packet_bytes = packet_bytes

        self.generated = 0
        self.dl_create = array(TIME_TYPECODE)
        self.dl_deliver = array(TIME_TYPECODE)
        self.dl_hops = array(HOPS_TYPECODE)
        self.dl_src: Optional[array] = None
        self.gen_create: Optional[array] = None

        self.offered_load: Optional[float] = None

    # --------------------------------------------------------------- recording
    def record_generated(self, packet: Packet) -> None:
        self.generated += 1
        if self.gen_create is not None:
            self.gen_create.append(packet.create_time_ns)

    def record_delivery(self, packet: Packet, now: float) -> None:
        self.dl_create.append(packet.create_time_ns)
        self.dl_deliver.append(now)
        self.dl_hops.append(packet.hops)
        if self.dl_src is not None:
            self.dl_src.append(packet.src_node)

    def adopt_log(self, generated: int, dl_create: array, dl_deliver: array,
                  dl_hops: array) -> None:
        """Take over a finished run's generated count and delivery log.

        The arrays are held, not copied (the batched kernel's assembly hands
        over its own); every output below is a copy of what it reads.
        """
        self.generated = generated
        self.dl_create, self.dl_deliver, self.dl_hops = dl_create, dl_deliver, dl_hops

    # The two replays stay only for the ledger's ``stats.replay_s`` probe,
    # which feeds a fresh collector the kernel's derived ``glog`` / ``dlog``;
    # they go with ROADMAP 1(g).
    def replay_generated(self, create_times_ns: List[float]) -> None:
        """Count a generation log (one create time per packet)."""
        self.generated += len(create_times_ns)

    def replay_deliveries(
        self,
        entries: Iterable[Tuple[float, float, int]],
        size_bytes: int,
    ) -> None:
        """Append a chronological ``(create_ns, deliver_ns, hops)`` log of
        ``size_bytes`` packets."""
        self.packet_bytes = size_bytes
        for log, column in zip((self.dl_create, self.dl_deliver, self.dl_hops),
                               zip(*entries)):
            log.extend(column)

    # ------------------------------------------------------------------ output
    @property
    def delivered(self) -> int:
        return len(self.dl_deliver)

    # Copies, never views: an exported buffer would make the next append to
    # the log raise BufferError (a run may be finalized, then continued).
    # The ``np.frombuffer`` views below never outlive the call that makes them.
    def _measured(self) -> np.ndarray:
        """Mask of the log entries delivered in the measurement window."""
        # The window is defined by the *delivery* time: this keeps throughput
        # an unbiased steady-state flux and lets saturated runs (source queues
        # growing without bound) still report the latency of whatever the
        # network managed to deliver, as the paper's plots do.
        return np.frombuffer(self.dl_deliver) >= self.warmup_ns

    def _latencies(self) -> np.ndarray:
        """Latency of every logged packet, in delivery order."""
        return np.frombuffer(self.dl_deliver) - np.frombuffer(self.dl_create)

    def latency_array_ns(self) -> np.ndarray:
        """Measured latencies in delivery order, as a float64 copy."""
        return self._latencies()[self._measured()]

    def hops_array(self) -> np.ndarray:
        """Measured hop counts in delivery order, as an int16 copy."""
        return np.frombuffer(self.dl_hops, dtype=np.int16)[self._measured()]

    def throughput(self, window_ns: float) -> float:
        """Delivered fraction of the system injection bandwidth over ``window_ns``."""
        if window_ns <= 0:
            return float("nan")
        capacity = self.num_nodes * self.node_bandwidth_bytes_per_ns * window_ns
        measured = int(np.count_nonzero(self._measured()))
        return measured * self.packet_bytes / capacity

    def _bins(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(index, latency sums, counts)`` of every non-empty bin, ascending."""
        return bin_sums(np.frombuffer(self.dl_deliver), self._latencies(), self.bin_ns)

    @property
    def latency_series(self) -> TimeSeries:
        """Latency per time bin over the whole run (Figure 7's timeline)."""
        return TimeSeries.from_bins(self.bin_ns, *self._bins())

    @property
    def delivery_series(self) -> TimeSeries:
        """Delivered bytes per time bin over the whole run."""
        index, _, counts = self._bins()
        return TimeSeries.from_bins(self.bin_ns, index, counts * self.packet_bytes, counts)

    def throughput_series(self) -> np.ndarray:
        """Normalized throughput per time bin (whole run, including warm-up)."""
        _, _, counts = self._bins()
        capacity = self.num_nodes * self.node_bandwidth_bytes_per_ns * self.bin_ns
        return counts * self.packet_bytes / capacity

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
