"""Original Q-routing (Boyan & Littman, 1993) adapted to Dragonfly.

Q-routing keeps one row per destination *router* (an ``m × (k-p)`` table) and
always forwards through the port with the smallest estimated delivery time,
exploring with ε-greedy.  Applied naively to a Dragonfly it suffers from
livelock and deadlock, so — as discussed in Section 2.3.2 of the paper — this
implementation adds the *naive fix*: once a packet has taken ``maxQ``
router-to-router hops it is routed minimally to its destination, bounding the
path length to ``maxQ + diameter`` hops (and the VC demand accordingly).

Q-routing is topology-generic: the per-destination-router table and the
ε-greedy exploration only need the generic
:class:`~repro.topology.base.Topology` protocol, so it runs on fat-tree and
mesh/torus networks as well as on the paper's Dragonfly.

This algorithm exists as the learning baseline / ablation: the paper shows
there is no single ``maxQ`` value that works for both UR and ADV+i patterns,
and that the per-destination-router table converges slowly on large systems
because rarely used destinations hold stale values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.hysteretic import HystereticParams
from repro.core.marl import TabularMarlRouting
from repro.core.policy import epsilon_greedy
from repro.core.qtable import qrouting_initial_values
from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.network.router import Router
from repro.scenarios.serialize import FRACTION, POSITIVE_FRACTION, Codec, Number, _check_fields
from repro.topology.base import Topology


@dataclass(frozen=True)
class QRoutingParams(Codec):
    """Hyper-parameters of the Q-routing baseline.

    ``beta=None`` uses a single learning rate (the original algorithm);
    setting it enables the same hysteretic update Q-adaptive uses.
    """

    alpha: float = 0.2
    beta: Optional[float] = None
    epsilon: float = 0.001
    max_q: int = 5
    #: see :class:`repro.core.qadaptive.QAdaptiveParams.feedback`
    feedback: str = "greedy"

    _NUMBERS = {"alpha": POSITIVE_FRACTION, "beta": FRACTION.or_none(), "epsilon": FRACTION,
                "max_q": Number(int, 0)}

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.feedback not in ("greedy", "onpolicy"):
            raise ValueError("feedback must be 'greedy' or 'onpolicy'")

    def hysteretic(self) -> HystereticParams:
        beta = self.alpha if self.beta is None else self.beta
        return HystereticParams(self.alpha, beta)


class QRoutingAlgorithm(TabularMarlRouting):
    """Q-routing with the naive ``maxQ`` hop threshold (the paper's baseline)."""

    name = "Q-routing"
    table_kind = "QRoutingTable"
    #: topology-generic: learns per-port Q-values over any family's ports.
    supported_topologies = None

    def __init__(self, params: Optional[QRoutingParams] = None, **overrides) -> None:
        if params is None:
            params = QRoutingParams(**overrides)
        elif overrides:
            raise ValueError("pass either a QRoutingParams instance or keyword overrides")
        self.params = params
        super().__init__(hysteretic=params.hysteretic(), feedback_mode=params.feedback)
        self.forced_minimal = 0
        self.greedy_decisions = 0

    def max_hops(self, topo: Topology) -> int:
        return self.params.max_q + topo.diameter

    # ------------------------------------------------------------------ tables
    def initial_values(self, topo: Topology, params: NetworkParams) -> np.ndarray:
        return qrouting_initial_values(topo, params.timing())

    def _row_for(self, packet: Packet) -> int:
        return packet.dst_router

    # ----------------------------------------------------------------- routing
    def decide(self, router: Router, packet: Packet, in_port: int) -> int:
        if packet.hops >= self.params.max_q:
            # Naive livelock/deadlock fix: fall back to minimal routing.
            self.forced_minimal += 1
            return self._min_next(router.id, packet.dst_router)
        first_port = self.first_port
        # list.index(min(...)) matches argmin's first-occurrence tie-breaking.
        row_values = self.values[router.id, packet.dst_router].tolist()
        if self._fault_live is None:
            best_port = row_values.index(min(row_values)) + first_port
        else:
            # Degraded mode: the greedy argmin only ranks surviving ports
            # (dead ports hold stale estimates that no feedback refreshes).
            ports = self._explore_ports[router.id]
            best_port = ports[0]
            best_value = row_values[best_port - first_port]
            for port in ports[1:]:
                value = row_values[port - first_port]
                if value < best_value:
                    best_port, best_value = port, value
        self.greedy_decisions += 1
        return epsilon_greedy(
            self.rng, best_port, self._explore_ports[router.id], self.params.epsilon
        )
