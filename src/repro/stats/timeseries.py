"""Binned time series used for convergence and dynamic-load studies."""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class TimeSeries:
    """Accumulates (value, count) pairs into fixed-width time bins.

    Used for two of the paper's plots:

    * Figure 7 (convergence): mean packet latency per time bin;
    * Figure 8 (dynamic load): delivered bytes per time bin → throughput.
    """

    __slots__ = ("bin_ns", "_sums", "_counts")

    def __init__(self, bin_ns: float = 1_000.0) -> None:
        if bin_ns <= 0:
            raise ValueError("bin width must be positive")
        self.bin_ns = float(bin_ns)
        self._sums: Dict[int, float] = {}
        self._counts: Dict[int, int] = {}

    def add(self, time_ns: float, value: float) -> None:
        """Record ``value`` at ``time_ns``."""
        idx = int(time_ns // self.bin_ns)
        self._sums[idx] = self._sums.get(idx, 0.0) + value
        self._counts[idx] = self._counts.get(idx, 0) + 1

    @classmethod
    def from_bins(cls, bin_ns: float, index: np.ndarray, sums: np.ndarray,
                  counts: np.ndarray) -> "TimeSeries":
        """The series whose non-empty bins ``index`` hold ``sums`` / ``counts``
        (the statistics collector's views of its delivery log)."""
        series = cls(bin_ns)
        bins = index.tolist()
        series._sums = dict(zip(bins, sums.tolist()))
        series._counts = dict(zip(bins, counts.tolist()))
        return series

    def __len__(self) -> int:
        return len(self._counts)

    # ------------------------------------------------------------------ views
    def bins(self) -> List[int]:
        return sorted(self._counts)

    def bin_times(self) -> np.ndarray:
        """Centre time (ns) of every non-empty bin, ascending."""
        return (np.array(self.bins(), dtype=float) + 0.5) * self.bin_ns

    def means(self) -> np.ndarray:
        """Mean of recorded values per non-empty bin, ascending by time."""
        idx = self.bins()
        return np.array([self._sums[i] / self._counts[i] for i in idx], dtype=float)

    def sums(self) -> np.ndarray:
        """Sum of recorded values per non-empty bin, ascending by time."""
        return np.array([self._sums[i] for i in self.bins()], dtype=float)

    def counts(self) -> np.ndarray:
        """Number of records per non-empty bin, ascending by time."""
        return np.array([self._counts[i] for i in self.bins()], dtype=float)
