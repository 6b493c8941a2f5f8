"""Measurement: packet latency, throughput, hop counts, and time series."""

from repro.stats.collectors import StatsCollector
from repro.stats.summary import LatencySummary, summarize_latencies
from repro.stats.timeseries import TimeSeries

__all__ = [
    "LatencySummary",
    "StatsCollector",
    "TimeSeries",
    "summarize_latencies",
]
