"""Binned time series used for convergence and dynamic-load studies."""

from __future__ import annotations

from typing import List, Tuple

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

    Only the non-empty bins are kept, as three aligned arrays: their indices
    (ascending), value sums and sample counts (see :func:`bin_sums`).
    """

    __slots__ = ("bin_ns", "_index", "_sums", "_counts")

    def __init__(self, bin_ns: float = 1_000.0) -> None:
        if bin_ns <= 0:
            raise ValueError("bin width must be positive")
        self.bin_ns = float(bin_ns)
        self._index = np.zeros(0, dtype=np.intp)
        self._sums = np.zeros(0)
        self._counts = np.zeros(0, dtype=np.intp)

    @classmethod
    def from_bins(cls, bin_ns: float, index: np.ndarray, sums: np.ndarray,
                  counts: np.ndarray) -> "TimeSeries":
        """The series whose non-empty bins ``index`` hold ``sums`` / ``counts``
        (see :func:`bin_sums`)."""
        series = cls(bin_ns)
        series._index, series._sums, series._counts = index, sums, counts
        return series

    @classmethod
    def binned(cls, times: np.ndarray, values: np.ndarray, bin_ns: float) -> "TimeSeries":
        """The series of ``values`` recorded at ``times``, one sample each."""
        return cls.from_bins(bin_ns, *bin_sums(times, values, bin_ns))

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------ views
    def bins(self) -> List[int]:
        return self._index.tolist()

    def bin_times(self) -> np.ndarray:
        """Centre time (ns) of every non-empty bin, ascending."""
        return (self._index + 0.5) * self.bin_ns

    def means(self) -> np.ndarray:
        """Mean of recorded values per non-empty bin, ascending by time."""
        return self._sums / self._counts

    def sums(self) -> np.ndarray:
        """Sum of recorded values per non-empty bin, ascending by time."""
        return self._sums.astype(float)

    def counts(self) -> np.ndarray:
        """Number of records per non-empty bin, ascending by time."""
        return self._counts.astype(float)
