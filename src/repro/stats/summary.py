"""Latency summaries: mean, percentiles and box-plot statistics.

The paper's Figure 6 / Figure 9 report the latency distribution as a box plot
(quartiles, 1.5×IQR whiskers) annotated with the mean, 95th and 99th
percentile; :func:`summarize_latencies` computes exactly those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of packet latencies (nanoseconds)."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    minimum: float
    maximum: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
            "q1": self.q1,
            "q3": self.q3,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
            "min": self.minimum,
            "max": self.maximum,
        }

    def as_microseconds(self) -> Dict[str, float]:
        """Same summary scaled to microseconds (the unit the paper plots)."""
        out = self.to_dict()
        return {k: (v / 1_000.0 if k != "count" else v) for k, v in out.items()}


EMPTY_SUMMARY = LatencySummary(
    count=0, mean=float("nan"), median=float("nan"), p95=float("nan"), p99=float("nan"),
    q1=float("nan"), q3=float("nan"), whisker_low=float("nan"), whisker_high=float("nan"),
    minimum=float("nan"), maximum=float("nan"),
)


def summarize_latencies(values: Sequence[float]) -> LatencySummary:
    """Full latency summary (mean, p95, p99, quartiles, whiskers, extremes).

    One fused :func:`np.percentile` call covers all five quantiles (two
    calls would each re-partition the sample); the whiskers are the data
    extremes within 1.5×IQR of the quartiles, clamped to observed data.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return EMPTY_SUMMARY
    q1, median, q3, p95, p99 = np.percentile(arr, [25, 50, 75, 95, 99])
    iqr = q3 - q1
    inside = arr[(arr >= q1 - 1.5 * iqr) & (arr <= q3 + 1.5 * iqr)]
    minimum, maximum = arr.min(), arr.max()
    whisker_low = float(inside.min()) if inside.size else float(minimum)
    whisker_high = float(inside.max()) if inside.size else float(maximum)
    return LatencySummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        median=float(median),
        p95=float(p95),
        p99=float(p99),
        q1=float(q1),
        q3=float(q3),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        minimum=float(minimum),
        maximum=float(maximum),
    )


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of values strictly below ``threshold`` (e.g. "80.99% of packets < 2 µs")."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float((arr < threshold).mean())
