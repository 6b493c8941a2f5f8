"""Q-adaptive routing — the paper's contribution (Section 4).

Q-adaptive is a fully distributed multi-agent reinforcement-learning routing
scheme.  Each router is an independent agent guided by a *two-level Q-table*
indexed by ``(destination group, source node index)``; there is no shared
state between routers, and feedback flows only between direct neighbours.

Per-packet behaviour (the flow chart of Figure 4):

* routers in the **destination group** always forward minimally (and eject at
  the destination router);
* the **source router** compares the minimal forwarding port against the best
  port of the whole Q-table row using the ΔV rule with threshold ``q_thld1``,
  then applies ε-greedy exploration over all network ports;
* the **first router the packet visits in an intermediate group** forwards
  minimally when it owns a direct global link to the destination group;
  otherwise it compares the minimal forwarding port against a *random local
  port* using threshold ``q_thld2`` (ε-greedy over local ports) — this is the
  dynamic in-intermediate-group re-route that lets Q-adaptive dodge local-link
  congestion without always paying VALn's extra hop;
* every other router forwards minimally.

Only two routers on any path make adaptive decisions, so packets are delivered
within five hops: livelock is impossible and five VCs (one per hop) make the
configuration deadlock free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.hysteretic import HystereticParams
from repro.core.marl import TabularMarlRouting
from repro.core.policy import epsilon_greedy, select_with_threshold
from repro.core.qtable import two_level_initial_values
from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.network.router import Router
from repro.scenarios.serialize import FRACTION, Codec, _check_fields
from repro.topology.dragonfly import DragonflyTopology


@dataclass(frozen=True)
class QAdaptiveParams(Codec):
    """Hyper-parameters of Q-adaptive routing.

    Defaults are the 1,056-node values of Section 5.1 (α=0.2, β=0.04,
    ε=0.001, q_thld1=0.2, q_thld2=0.35); Section 6 uses q_thld1=0.05,
    q_thld2=0.4 on the 2,550-node system.
    """

    alpha: float = 0.2
    beta: float = 0.04
    epsilon: float = 0.001
    q_thld1: float = 0.2
    q_thld2: float = 0.35
    #: "greedy" → the feedback value Q_y is the row minimum (as in Q-routing);
    #: "onpolicy" → Q_y is the value of the port the downstream router selected.
    #: The default is "onpolicy": because most routers on a Q-adaptive path are
    #: constrained to forward minimally, the row minimum is an estimate of a
    #: path the downstream router will not actually take, and in our simulator
    #: the on-policy value reproduces the paper's qualitative results (fast
    #: convergence under ADV+i, near-optimal UR behaviour) much more closely.
    #: Use "greedy" to recover the literal Q-routing rule (see the
    #: ``ablation-hyperparams`` figure: ``repro-sim figure ablation-hyperparams``).
    feedback: str = "onpolicy"

    _NUMBERS = {**HystereticParams._NUMBERS,
                "epsilon": FRACTION, "q_thld1": FRACTION, "q_thld2": FRACTION}

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.feedback not in ("greedy", "onpolicy"):
            raise ValueError("feedback must be 'greedy' or 'onpolicy'")

    def hysteretic(self) -> HystereticParams:
        return HystereticParams(self.alpha, self.beta)

    @classmethod
    def paper_1056(cls) -> "QAdaptiveParams":
        return cls(alpha=0.2, beta=0.04, epsilon=0.001, q_thld1=0.2, q_thld2=0.35)

    @classmethod
    def paper_2550(cls) -> "QAdaptiveParams":
        return cls(alpha=0.2, beta=0.04, epsilon=0.001, q_thld1=0.05, q_thld2=0.4)


class QAdaptiveRouting(TabularMarlRouting):
    """Q-adaptive routing with the two-level Q-table (the paper's "Q-adp")."""

    name = "Q-adp"
    table_kind = "TwoLevelQTable"

    #: the two-level table rows and the intermediate-group re-route are
    #: defined in terms of Dragonfly group structure
    supported_topologies = ("dragonfly",)

    def __init__(self, params: Optional[QAdaptiveParams] = None, **overrides) -> None:
        if params is None:
            params = QAdaptiveParams(**overrides)
        elif overrides:
            raise ValueError("pass either a QAdaptiveParams instance or keyword overrides")
        self.params = params
        super().__init__(hysteretic=params.hysteretic(), feedback_mode=params.feedback)
        self.source_minimal_decisions = 0
        self.source_best_decisions = 0
        self.intermediate_reroutes = 0
        self.intermediate_minimal = 0

    # -------------------------------------------------------------- VC budget
    def max_hops(self, topo: DragonflyTopology) -> int:
        return 5

    # ------------------------------------------------------------------ tables
    def _setup(self) -> None:
        super()._setup()
        # Local-port candidates for the intermediate-group ε-greedy decision.
        # Every router shares one list; the per-router indirection exists so
        # the fault controller can mask dead ports per router without
        # touching the shared (faults-off) list.
        self._local_ports = list(self.topo.local_ports)
        self._local_ports_of = [self._local_ports] * self.topo.num_routers
        self._dead_ports = None
        self._router_group = self.topo.router_groups()

    def initial_values(self, topo: DragonflyTopology, params: NetworkParams) -> np.ndarray:
        return two_level_initial_values(topo, params.timing())

    def _row_for(self, packet: Packet) -> int:
        return self._router_group[packet.dst_router] * self.topo.p + packet.src_node_local

    # ------------------------------------------------------------ degradation
    def on_fault_update(self, live_ports: Optional[List[List[int]]],
                        dead_routers: "frozenset[int]") -> None:
        """Additionally mask the local-port re-route and direct-global checks."""
        super().on_fault_update(live_ports, dead_routers)
        topo = self.topo
        if live_ports is None:
            self._local_ports_of = [self._local_ports] * topo.num_routers
            self._dead_ports = None
            return
        self._local_ports_of = []
        self._dead_ports = set()
        local_set = set(self._local_ports)
        for router in topo.all_routers():
            live = [p for p in live_ports[router] if p in local_set]
            # A router with no live local port keeps the shared candidates:
            # its re-routes drain into the controller's sinks.
            self._local_ports_of.append(live if live else self._local_ports)
            alive = set(live_ports[router])
            for port in topo.network_ports_of(router):
                if port not in alive:
                    self._dead_ports.add((router, port))

    # ----------------------------------------------------------------- routing
    def decide(self, router: Router, packet: Packet, in_port: int) -> int:
        topo = self.topo
        dst_group = self._router_group[packet.dst_router]
        # (1) Destination group: always forward minimally.
        if router.group == dst_group:
            return self._min_next(router.id, packet.dst_router)

        row = self._row_for(packet)

        # (2) Source router: ΔV rule over the whole row with threshold q_thld1.
        if router.id == packet.src_router and packet.hops == 0:
            min_port = self._min_next(router.id, packet.dst_router)
            # One bulk tolist() is cheaper than separate numpy scalar reads
            # for q_min and the row argmin; list.index(min(...)) matches
            # argmin's first-occurrence tie-breaking exactly.
            first_port = self.first_port
            row_values = self.values[router.id, row].tolist()
            q_min = row_values[min_port - first_port]
            if self._fault_live is None:
                q_best = min(row_values)
                best_port = row_values.index(q_best) + first_port
            else:
                # Degraded mode: rank surviving ports only (dead ports hold
                # stale estimates that no feedback refreshes).
                ports = self._explore_ports[router.id]
                best_port = ports[0]
                q_best = row_values[best_port - first_port]
                for port in ports[1:]:
                    value = row_values[port - first_port]
                    if value < q_best:
                        best_port, q_best = port, value
            temp_port, _ = select_with_threshold(
                min_port, q_min, best_port, q_best, self.params.q_thld1
            )
            if temp_port == min_port:
                self.source_minimal_decisions += 1
            else:
                self.source_best_decisions += 1
            return epsilon_greedy(
                self.rng, temp_port, self._explore_ports[router.id], self.params.epsilon
            )

        # (3) First intermediate-group router visited by the packet.  The
        # one-shot flag travels in packet.scratch (None until this decision).
        if packet.scratch is None and router.group != packet.src_group:
            packet.scratch = True
            direct = topo.global_port_to_group(router.id, dst_group)
            if direct is not None and (
                self._dead_ports is None or (router.id, direct) not in self._dead_ports
            ):
                self.intermediate_minimal += 1
                return direct
            min_port = self._min_next(router.id, packet.dst_router)
            local_ports = self._local_ports_of[router.id]
            best_port = local_ports[self.rng.randrange(len(local_ports))]
            values = self.values
            first_port = self.first_port
            q_min = values.item(router.id, row, min_port - first_port)
            q_best = values.item(router.id, row, best_port - first_port)
            temp_port, _ = select_with_threshold(
                min_port, q_min, best_port, q_best, self.params.q_thld2
            )
            if temp_port == min_port:
                self.intermediate_minimal += 1
            else:
                self.intermediate_reroutes += 1
            return epsilon_greedy(self.rng, temp_port, local_ports, self.params.epsilon)

        # (4) Everywhere else: minimal forwarding.
        return self._min_next(router.id, packet.dst_router)

    # ------------------------------------------------------------- diagnostics
    def decision_counts(self) -> dict:
        return {
            "source_minimal": self.source_minimal_decisions,
            "source_best": self.source_best_decisions,
            "intermediate_minimal": self.intermediate_minimal,
            "intermediate_reroutes": self.intermediate_reroutes,
            "feedback_sent": self.feedback_sent,
            "feedback_applied": self.feedback_applied,
        }
