"""Tests for the statistics layer: summaries, time series, collectors."""

import numpy as np
import pytest

from repro.network.packet import Packet
from repro.stats.collectors import StatsCollector
from repro.stats.summary import (
    EMPTY_SUMMARY,
    fraction_below,
    summarize_latencies,
)
from repro.stats.timeseries import TimeSeries
from repro.stats.report import comparison_table, format_series, format_table


def _packet(pid=0, create=0.0, size=128, hops=3):
    packet = Packet(
        pid=pid, src_node=0, dst_node=1, src_router=0, dst_router=1, src_group=0,
        src_node_local=0, size_bytes=size, create_time_ns=create,
    )
    packet.hops = hops
    return packet


# -------------------------------------------------------------------- summary
def test_summary_matches_numpy_percentiles():
    values = np.arange(1, 1001, dtype=float)
    summary = summarize_latencies(values)
    assert summary.count == 1000
    assert summary.mean == pytest.approx(values.mean())
    assert summary.median == pytest.approx(np.percentile(values, 50))
    assert summary.p95 == pytest.approx(np.percentile(values, 95))
    assert summary.p99 == pytest.approx(np.percentile(values, 99))
    assert summary.minimum == 1.0 and summary.maximum == 1000.0


def test_summary_whiskers_clamped_to_data():
    values = list(range(100)) + [10_000.0]  # one far outlier
    summary = summarize_latencies(values)
    assert summary.whisker_high < 10_000.0
    assert summary.whisker_low == 0.0
    assert summary.q1 < summary.median < summary.q3


def test_empty_summary_is_nan():
    summary = summarize_latencies([])
    assert summary.count == 0
    assert np.isnan(summary.mean)
    assert summary == EMPTY_SUMMARY


def test_summary_unit_conversion():
    summary = summarize_latencies([1_000.0, 3_000.0])
    micro = summary.as_microseconds()
    assert micro["mean"] == pytest.approx(2.0)
    assert micro["count"] == 2


def test_fraction_below():
    assert fraction_below([1.0, 2.0, 3.0, 4.0], 2.5) == pytest.approx(0.5)
    assert np.isnan(fraction_below([], 1.0))


# ----------------------------------------------------------------- timeseries
def test_timeseries_binning_and_means():
    series = TimeSeries(bin_ns=100.0)
    series.add(10.0, 2.0)
    series.add(20.0, 4.0)
    series.add(150.0, 10.0)
    assert len(series) == 2
    assert series.bins() == [0, 1]
    assert series.means() == pytest.approx([3.0, 10.0])
    assert series.sums() == pytest.approx([6.0, 10.0])
    assert series.counts() == pytest.approx([2.0, 1.0])
    assert series.bin_times() == pytest.approx([50.0, 150.0])


def test_timeseries_invalid_bin():
    with pytest.raises(ValueError):
        TimeSeries(bin_ns=0.0)


# ------------------------------------------------------------------ collector
def test_collector_warmup_excludes_early_deliveries():
    collector = StatsCollector(warmup_ns=1_000.0, num_nodes=2,
                               node_bandwidth_bytes_per_ns=4.0)
    early = _packet(0, create=0.0)
    late = _packet(1, create=1_500.0)
    collector.record_generated(early)
    collector.record_generated(late)
    collector.record_delivery(early, now=500.0)      # before warm-up: excluded
    collector.record_delivery(late, now=2_000.0)     # measured
    assert collector.delivered == 2
    assert len(collector.latency_array_ns()) == 1
    assert collector.latency_array_ns()[0] == pytest.approx(500.0)
    assert collector.generated == 2


def test_collector_throughput_normalisation():
    collector = StatsCollector(warmup_ns=0.0, num_nodes=4, node_bandwidth_bytes_per_ns=4.0)
    # deliver 8 packets of 128 B over a 1 µs window on a 4-node system
    for i in range(8):
        packet = _packet(i, create=float(i))
        collector.record_generated(packet)
        collector.record_delivery(packet, now=100.0 + i)
    window = 1_000.0
    expected = 8 * 128 / (4 * 4.0 * window)
    assert collector.throughput(window) == pytest.approx(expected)


def test_collector_finalize_builds_runstats():
    collector = StatsCollector(warmup_ns=0.0, num_nodes=1, node_bandwidth_bytes_per_ns=4.0)
    for i in range(10):
        packet = _packet(i, create=i * 10.0, hops=2 + (i % 2))
        collector.record_generated(packet)
        collector.record_delivery(packet, now=i * 10.0 + 400.0)
    stats = collector.finalize(sim_end_ns=1_000.0)
    assert stats.delivered_packets == 10
    assert stats.measured_packets == 10
    assert stats.mean_latency_ns == pytest.approx(400.0)
    assert stats.mean_hops == pytest.approx(2.5)
    assert 0.0 < stats.throughput < 1.0
    d = stats.to_dict()
    assert d["mean_latency_us"] == pytest.approx(0.4)
    assert "latency_p99" in d


# --------------------------------------------------------------------- report
def test_format_table_alignment_and_floats():
    rows = [{"a": 1, "b": 0.5}, {"a": 20, "b": 1.25}]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["a", "b"]
    assert "0.500" in text and "1.250" in text
    assert format_table([]) == "(no data)"


def test_format_series_and_comparison_table():
    text = format_series("MIN", [0.1, 0.2], [1.0, 2.0], "load", "latency")
    assert "MIN" in text and "(0.1, 1)" in text
    table = comparison_table({"MIN": {"latency": 1.0}, "PAR": {"latency": 2.0}}, ["latency"])
    assert "algorithm" in table and "PAR" in table


def test_summary_single_fused_percentile_call(monkeypatch):
    """summarize_latencies partitions the sample exactly once."""
    import repro.stats.summary as summary_module

    calls = []
    real_percentile = np.percentile

    def counting_percentile(arr, q, *args, **kwargs):
        calls.append(list(np.atleast_1d(q)))
        return real_percentile(arr, q, *args, **kwargs)

    monkeypatch.setattr(summary_module.np, "percentile", counting_percentile)
    summarize_latencies(np.arange(1, 101, dtype=float))
    assert len(calls) == 1
    assert calls[0] == [25, 50, 75, 95, 99]


def test_json_safe_serializes_nan_as_null():
    from repro.stats.report import json_safe

    import json as json_module

    payload = {
        "summary": EMPTY_SUMMARY.to_dict(),
        "fraction": fraction_below([], 1.0),
        "inf": float("inf"),
        "nested": [float("nan"), {"deep": float("-inf")}, (1.0, 2.5)],
        "fine": {"int": 3, "float": 1.5, "text": "x", "flag": True, "none": None},
    }
    text = json_module.dumps(json_safe(payload))

    def reject(token):
        raise ValueError(f"non-strict JSON token {token!r}")

    decoded = json_module.loads(text, parse_constant=reject)
    assert decoded["summary"]["mean"] is None
    assert decoded["fraction"] is None and decoded["inf"] is None
    assert decoded["nested"][0] is None and decoded["nested"][1]["deep"] is None
    assert decoded["nested"][2] == [1.0, 2.5]
    assert decoded["fine"] == {"int": 3, "float": 1.5, "text": "x",
                               "flag": True, "none": None}
