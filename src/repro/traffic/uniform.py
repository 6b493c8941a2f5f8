"""Uniform random (UR) traffic — the paper's best-case pattern.

Every message goes to a node chosen uniformly at random among all other
nodes.  Traffic is perfectly balanced, so minimal routing is optimal and the
system should approach 100% throughput.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.engine.rng import bulk_randrange
from repro.traffic.base import TrafficPattern

_Nodes = Union[int, np.ndarray]


class UniformRandomTraffic(TrafficPattern):
    """UR: destination drawn uniformly from all nodes except the source."""

    name = "UR"

    def destination(self, src_node: int) -> int:
        return _skip_source(src_node, self.rng.randrange(self.topo.num_nodes - 1))

    def destinations(self, src_nodes: np.ndarray) -> np.ndarray:
        draws = bulk_randrange(self.rng, self.topo.num_nodes - 1, len(src_nodes))
        return _skip_source(src_nodes, draws)


def _skip_source(src: _Nodes, draw: _Nodes) -> _Nodes:
    """Node ``draw`` of all nodes but ``src`` (scalars or arrays alike)."""
    return draw + (draw >= src)
