"""The collector's statistics are reductions over its delivery log.

Every output of :class:`StatsCollector` — the :class:`RunStats`, the measured
per-packet arrays and both timelines — is checked bit for bit against a
reference that accumulates one packet at a time, as packets arrive: the
per-bin dict sums and the window's appended latencies, hop counts and bytes
that the array reductions replace.  Logs include deliveries exactly on a bin
edge and exactly at the warm-up instant, logs entirely before warm-up and the
empty log; every log is also finalized part-way and then continued.
"""

from __future__ import annotations

import json
from array import array
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.packet import Packet
from repro.stats.collectors import RunStats, StatsCollector
from repro.stats.summary import summarize_latencies

Entry = Tuple[float, float, int]  # (create ns, deliver ns, hops)

BANDWIDTH = 4.0


class _Reference:
    """Per-packet accumulation, in delivery order."""

    def __init__(self, warmup_ns: float, bin_ns: float, num_nodes: int,
                 packet_bytes: int) -> None:
        self.warmup_ns = warmup_ns
        self.bin_ns = bin_ns
        self.num_nodes = num_nodes
        self.packet_bytes = packet_bytes
        self.generated = 0
        self.delivered = 0
        self.lat_sums: Dict[int, float] = {}
        self.lat_counts: Dict[int, int] = {}
        self.byte_sums: Dict[int, float] = {}
        self.latencies: List[float] = []
        self.hops: List[int] = []
        self.window_bytes = 0.0

    def deliver(self, create: float, now: float, hops: int) -> None:
        latency = now - create
        self.delivered += 1
        idx = int(now // self.bin_ns)
        self.lat_sums[idx] = self.lat_sums.get(idx, 0.0) + latency
        self.lat_counts[idx] = self.lat_counts.get(idx, 0) + 1
        self.byte_sums[idx] = self.byte_sums.get(idx, 0.0) + self.packet_bytes
        if now >= self.warmup_ns:
            self.latencies.append(latency)
            self.hops.append(hops)
            self.window_bytes += self.packet_bytes

    def outputs(self, sim_end_ns: float) -> Dict:
        latencies = np.array(self.latencies, dtype=np.float64)
        hops = np.array(self.hops, dtype=np.int16)
        window = sim_end_ns - self.warmup_ns
        rate = self.num_nodes * BANDWIDTH
        stats = RunStats(
            generated_packets=self.generated,
            delivered_packets=self.delivered,
            measured_packets=len(self.latencies),
            mean_latency_ns=float(latencies.mean()) if latencies.size else float("nan"),
            mean_hops=float(hops.mean()) if hops.size else float("nan"),
            throughput=self.window_bytes / (rate * window) if window > 0 else float("nan"),
            offered_load=None,
            latency=summarize_latencies(latencies),
            measurement_window_ns=window,
        )
        bins = sorted(self.lat_counts)
        times = (np.array(bins, dtype=float) + 0.5) * self.bin_ns
        means = np.array([self.lat_sums[i] / self.lat_counts[i] for i in bins], dtype=float)
        sums = np.array([self.byte_sums[i] for i in bins], dtype=float)
        return {
            "stats": json.dumps(stats.to_dict()),
            "latencies": latencies,
            "hops": hops,
            "latency_timeline": (times, means),
            "throughput_timeline": (times, sums / (rate * self.bin_ns)),
        }


def _outputs(collector: StatsCollector, sim_end_ns: float) -> Dict:
    latency_series = collector.latency_series
    return {
        "stats": json.dumps(collector.finalize(sim_end_ns).to_dict()),
        "latencies": collector.latency_array_ns(),
        "hops": collector.hops_array(),
        "latency_timeline": (latency_series.bin_times(), latency_series.means()),
        "throughput_timeline": (collector.delivery_series.bin_times(),
                                collector.throughput_series()),
    }


def _assert_identical(got: Dict, expected: Dict) -> None:
    assert got["stats"] == expected["stats"]
    pairs = [(got[k], expected[k]) for k in ("latencies", "hops")]
    for key in ("latency_timeline", "throughput_timeline"):
        pairs += list(zip(got[key], expected[key]))
    for a, b in pairs:
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _packet(create: float, hops: int, size_bytes: int) -> Packet:
    packet = Packet(pid=0, src_node=0, dst_node=1, src_router=0, dst_router=1,
                    src_group=0, src_node_local=0, size_bytes=size_bytes,
                    create_time_ns=create)
    packet.hops = hops
    return packet


def _check(warmup_ns: float, bin_ns: float, num_nodes: int, packet_bytes: int,
           log: List[Entry], split: int, sim_end_ns: float) -> None:
    """Record ``log`` packet by packet, finalizing after ``split`` entries and
    at the end, and hand the same log over whole: every output must equal the
    reference's at the same point."""
    kwargs = dict(warmup_ns=warmup_ns, bin_ns=bin_ns, num_nodes=num_nodes,
                  node_bandwidth_bytes_per_ns=BANDWIDTH, packet_bytes=packet_bytes)
    collector = StatsCollector(**kwargs)
    reference = _Reference(warmup_ns, bin_ns, num_nodes, packet_bytes)
    held = []
    for stop, end in ((split, sim_end_ns / 2), (len(log), sim_end_ns)):
        for create, now, hops in log[reference.delivered:stop]:
            packet = _packet(create, hops, packet_bytes)
            collector.record_generated(packet)
            collector.record_delivery(packet, now)
            reference.generated += 1
            reference.deliver(create, now, hops)
        # The held outputs of the first pass must not pin the log.
        held.append(_outputs(collector, end))
        _assert_identical(held[-1], reference.outputs(end))

    adopted = StatsCollector(**kwargs)
    columns = [list(column) for column in zip(*log)] or [[], [], []]
    adopted.adopt_log(len(log), array("d", columns[0]), array("d", columns[1]),
                      array("h", columns[2]))
    _assert_identical(_outputs(adopted, sim_end_ns), reference.outputs(sim_end_ns))


@st.composite
def _runs(draw):
    bin_ns = draw(st.sampled_from([0.1, 1.0, 7.5, 100.0, 1_000.0]))
    warmup_ns = draw(st.sampled_from([0.0, 250.0, 1_000.0, 3_000.0, 1e6]))
    instants = st.one_of(
        st.floats(min_value=0.0, max_value=5_000.0),
        st.integers(min_value=0, max_value=60).map(lambda k: k * bin_ns),  # a bin edge
        st.just(warmup_ns),
    )
    delivered = sorted(draw(st.lists(instants, max_size=60)))
    log = [
        (now - draw(st.floats(min_value=0.0, max_value=2_000.0)), now,
         draw(st.integers(min_value=0, max_value=12)))
        for now in delivered
    ]
    split = draw(st.integers(min_value=0, max_value=len(log)))
    sim_end_ns = draw(st.sampled_from([0.0, 2_000.0, 5_000.0, 10_000.0]))
    num_nodes = draw(st.sampled_from([1, 72]))
    packet_bytes = draw(st.sampled_from([64, 128]))
    return warmup_ns, bin_ns, num_nodes, packet_bytes, log, split, sim_end_ns


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_reductions_equal_the_per_packet_loop(run):
    _check(*run)


@pytest.mark.parametrize("log, warmup_ns", [
    ([], 1_000.0),  # the empty log
    ([(0.0, 100.0, 3), (50.0, 900.0, 5)], 1_000.0),  # all before warm-up
    # on a bin edge, at the warm-up instant, and both at once
    ([(0.0, 500.0, 3), (100.0, 1_000.0, 4), (700.0, 1_000.0, 2), (900.0, 2_000.0, 6)],
     1_000.0),
])
def test_reductions_at_the_edges(log, warmup_ns):
    _check(warmup_ns, 500.0, 72, 128, log, len(log) // 2, 4_000.0)
