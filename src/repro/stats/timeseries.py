"""Binned time series used for convergence and dynamic-load studies."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def bin_sums(times: np.ndarray, values: np.ndarray,
             bin_ns: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(index, value sums, sample counts)`` of every non-empty bin, ascending.

    The bin of a sample at ``t`` is ``t // bin_ns``.  The sums equal adding
    the samples one at a time in input order: numpy's float ``//`` is
    Python's, and :func:`np.bincount` adds its weights in input order.
    """
    # Cast while dividing: no float temporary beside ``times`` and
    # ``values``, so a run's peak memory does not grow by a log-sized array.
    idx = np.empty(len(times), dtype=np.intp)
    np.floor_divide(times, bin_ns, out=idx, casting="unsafe")
    counts = np.bincount(idx)
    sums = np.bincount(idx, weights=values)
    index = np.flatnonzero(counts)
    return index, sums[index], counts[index]


class TimeSeries:
    """Sums and sample counts in fixed-width time bins.

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

    @classmethod
    def from_bins(cls, bin_ns: float, index: np.ndarray, sums: np.ndarray,
                  counts: np.ndarray) -> "TimeSeries":
        """The series whose non-empty bins ``index`` hold ``sums`` / ``counts``
        (see :func:`bin_sums`)."""
        series = cls(bin_ns)
        bins = index.tolist()
        series._sums = dict(zip(bins, sums.tolist()))
        series._counts = dict(zip(bins, counts.tolist()))
        return series

    @classmethod
    def binned(cls, times: np.ndarray, values: np.ndarray, bin_ns: float) -> "TimeSeries":
        """The series of ``values`` recorded at ``times``, one sample each."""
        return cls.from_bins(bin_ns, *bin_sums(times, values, bin_ns))

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
