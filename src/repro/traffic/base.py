"""Traffic pattern interface.

A traffic pattern answers one question: *given a source node, which node does
the next message go to?*  Patterns are pure destination selectors — message
timing (offered load) is the job of
:class:`~repro.traffic.generator.WakeupRecorder`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology

if TYPE_CHECKING:  # typing only: sim code draws via RngFactory streams
    import random


class TrafficPattern(abc.ABC):
    """Destination selector for synthetic traffic."""

    #: short name used in result tables (e.g. "UR", "ADV+1", "3D Stencil")
    name: str = "pattern"

    def __init__(self) -> None:
        self.topo: Optional[Topology] = None
        self.rng: Optional["random.Random"] = None

    def setup(self, topo: Topology, rng: "random.Random") -> None:
        """Bind the pattern to a topology and a random stream (idempotent)."""
        self.topo = topo
        self.rng = rng
        self._setup()

    def _setup(self) -> None:
        """Hook for patterns that precompute per-node state (grids, target sets)."""

    @abc.abstractmethod
    def destination(self, src_node: int) -> int:
        """Destination node of the next message generated by ``src_node``.

        Must return a node different from ``src_node``.
        """

    def destinations(self, src_nodes: np.ndarray) -> np.ndarray:
        """``[destination(node) for node in src_nodes]`` as an int array,
        drawing exactly as those calls would, in order.

        Patterns whose draw is one ``randrange`` override it with
        :func:`~repro.engine.rng.bulk_randrange`.
        """
        destination = self.destination
        return np.array([destination(node) for node in src_nodes.tolist()], dtype=np.intc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} name={self.name!r}>"


def default_grid_dims(topo: DragonflyTopology) -> Tuple[int, int, int]:
    """The 3D grid the paper arranges nodes into: ``p × a × g`` (e.g. 5×10×51)."""
    return (topo.p, topo.a, topo.g)
