"""Random Neighbors communication pattern (Section 6 case study).

Mimics the computation-aware load balancing of applications such as NAMD:
each node picks, once at start-up, between ``min_targets`` and ``max_targets``
random peer nodes (6–20 in the paper) and spreads its messages uniformly over
that fixed set.  Traffic is statistically uniform across the system but each
node only talks to a small, fixed neighbourhood.
"""

from __future__ import annotations

from typing import List

from repro.scenarios.serialize import Number, _check_fields
from repro.traffic.base import TrafficPattern


class RandomNeighborsTraffic(TrafficPattern):
    """Each node communicates with a fixed random set of 6–20 targets."""

    name = "Random Neighbors"
    _NUMBERS = {"min_targets": Number(int, 1), "max_targets": Number(int, 1)}

    def __init__(self, min_targets: int = 6, max_targets: int = 20) -> None:
        super().__init__()
        self.min_targets = min_targets
        self.max_targets = max_targets
        _check_fields(self)
        if self.max_targets < self.min_targets:
            raise ValueError("need min_targets <= max_targets")
        self._targets: List[List[int]] = []

    def _setup(self) -> None:
        num_nodes = self.topo.num_nodes
        if num_nodes <= self.min_targets:
            raise ValueError(
                f"system of {num_nodes} nodes is too small for {self.min_targets} targets per node"
            )
        max_targets = min(self.max_targets, num_nodes - 1)
        self._targets = []
        for node in range(num_nodes):
            count = self.rng.randint(self.min_targets, max_targets)
            peers = set()
            while len(peers) < count:
                candidate = self.rng.randrange(num_nodes)
                if candidate != node:
                    peers.add(candidate)
            self._targets.append(sorted(peers))

    def targets_of(self, node: int) -> List[int]:
        """The fixed target set of ``node``."""
        return list(self._targets[node])

    def destination(self, src_node: int) -> int:
        targets = self._targets[src_node]
        return targets[self.rng.randrange(len(targets))]
