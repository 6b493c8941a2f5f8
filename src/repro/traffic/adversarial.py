"""Adversarial (ADV+i) traffic — the paper's worst-case pattern.

Every node of group ``G`` sends to a random node of group ``G + i`` (modulo
the group count).  All traffic between a pair of groups has to share the
single minimal global link between them, so minimal routing collapses and
non-minimal (Valiant) routing is required.

The shift ``i`` also controls how much *local* link congestion appears in the
intermediate groups when packets are routed non-minimally (Figure 3): for the
1,056-node system ADV+4 produces the most intermediate-group local congestion
and ADV+1 the least.
"""

from __future__ import annotations

import numpy as np

from repro.engine.rng import bulk_randrange
from repro.scenarios.serialize import Number, _check_fields
from repro.traffic.base import TrafficPattern


class AdversarialTraffic(TrafficPattern):
    """ADV+i: group ``G`` sends to random nodes of group ``(G + i) mod g``."""

    #: family default; instances carry their concrete shift (``ADV+<i>``).
    name = "ADV+1"
    _NUMBERS = {"shift": Number(int, 1)}

    def __init__(self, shift: int = 1) -> None:
        super().__init__()
        self.shift = shift
        _check_fields(self)
        self.name = f"ADV+{self.shift}"

    def _setup(self) -> None:
        topo = self.topo
        if self.shift >= topo.g:
            raise ValueError(
                f"adversarial shift {self.shift} must be smaller than the group count {topo.g}"
            )
        # Per-source target range, so a draw costs no topology calls.
        targets = [topo.nodes_in_group((g + self.shift) % topo.g) for g in topo.all_groups()]
        for group, target_nodes in zip(topo.all_groups(), targets):
            if not target_nodes and topo.nodes_in_group(group):
                raise ValueError(
                    f"{self.name} sends group {group} to group {(group + self.shift) % topo.g}, "
                    f"which has no nodes on this {topo.family} topology"
                )
        groups = [topo.group_of_node(n) for n in topo.all_nodes()]
        self._targets = [targets[g] for g in groups]
        # The same ranges as a table for bulk draws (row = the source's
        # group, column = the draw), when every group targets as many nodes.
        self._table = self._row = None
        if all(targets) and len({len(nodes) for nodes in targets}) == 1:
            self._table = np.array([list(nodes) for nodes in targets], dtype=np.intc)
            self._row = np.array(groups, dtype=np.intp)

    def destination(self, src_node: int) -> int:
        nodes = self._targets[src_node]
        return nodes[self.rng.randrange(len(nodes))]

    def destinations(self, src_nodes: np.ndarray) -> np.ndarray:
        table = self._table
        if table is None:
            return super().destinations(src_nodes)
        draws = bulk_randrange(self.rng, table.shape[1], len(src_nodes))
        return table[self._row[src_nodes], draws]
