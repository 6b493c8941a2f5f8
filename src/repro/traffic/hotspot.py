"""Hot-spot traffic (an extra stress pattern, not in the paper's set).

A configurable fraction of every node's messages targets a small set of
hot-spot nodes; the remainder is uniform random.  Useful for studying how the
learned routing reacts to ejection-side contention, which neither UR nor
ADV+i exercises.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.scenarios.serialize import POSITIVE_FRACTION, Number, _check_fields
from repro.traffic.base import TrafficPattern


class HotspotTraffic(TrafficPattern):
    """A fraction of traffic converges on a few hot nodes, the rest is uniform."""

    name = "Hotspot"
    _NUMBERS = {"hotspot_fraction": POSITIVE_FRACTION, "num_hotspots": Number(int, 1)}

    def __init__(
        self,
        hotspot_fraction: float = 0.2,
        num_hotspots: int = 4,
        hotspot_nodes: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__()
        self.hotspot_fraction = hotspot_fraction
        self.num_hotspots = num_hotspots
        _check_fields(self)
        self._requested_hotspots = list(hotspot_nodes) if hotspot_nodes is not None else None
        self.hotspots: List[int] = []

    def _setup(self) -> None:
        num_nodes = self.topo.num_nodes
        if self._requested_hotspots is not None:
            for node in self._requested_hotspots:
                if not 0 <= node < num_nodes:
                    raise ValueError(f"hotspot node {node} out of range")
            self.hotspots = list(self._requested_hotspots)
        else:
            count = min(self.num_hotspots, num_nodes)
            chosen = set()
            while len(chosen) < count:
                chosen.add(self.rng.randrange(num_nodes))
            self.hotspots = sorted(chosen)

    def destination(self, src_node: int) -> int:
        if self.rng.random() < self.hotspot_fraction:
            candidates = [n for n in self.hotspots if n != src_node]
            if candidates:
                return candidates[self.rng.randrange(len(candidates))]
        num_nodes = self.topo.num_nodes
        dest = self.rng.randrange(num_nodes - 1)
        if dest >= src_node:
            dest += 1
        return dest
