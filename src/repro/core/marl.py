"""Shared machinery of the table-based multi-agent RL routing algorithms.

Both Q-routing (Boyan & Littman) and the paper's Q-adaptive routing follow the
same cooperative independent-learner protocol:

1. every router owns a private value table estimating delivery times;
2. when router *x* forwards a packet to neighbour *y* through port *q*, it
   tags the packet with ``(x, row, q, arrival_time_at_x)``;
3. when *y* makes its own forwarding (or ejection) decision for that packet it
   computes the reward ``r`` — the packet travelling time from *x* to *y* —
   and its best remaining estimate ``Q_y`` (zero if *y* is the destination
   router), and sends ``r + Q_y`` back to *x*;
4. *x* folds the target into its table with the hysteretic update of
   Equation 3.

The feedback travels against the link direction, so it is applied after the
reverse-link latency — mimicking a value piggy-backed on credit/control flits,
which is how the paper argues the scheme needs no extra bandwidth.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.hysteretic import HystereticParams
from repro.core.qtable import TABLE_STATE_VERSION, _PortQTable
from repro.network.packet import Packet
from repro.network.router import Router
from repro.routing.base import RoutingAlgorithm
from repro.topology.registry import config_to_dict

#: version of the ``export_state`` payload of a tabular MARL algorithm.
ROUTING_STATE_VERSION = 1


class TabularMarlRouting(RoutingAlgorithm):
    """Base class for Q-routing / Q-adaptive: owns the tables and the feedback loop."""

    #: ``q_update`` telemetry emitter (see :mod:`repro.instrument.bus`),
    #: resolved by the network after every probe attach/detach; the class
    #: default keeps the probes-off fast path at one None check per update.
    _ev_q_update = None

    #: live network ports per router while faults are active (see
    #: :mod:`repro.faults`); the class default keeps faults-off decisions on
    #: the unmasked fast path at one attribute check.
    _fault_live = None

    def __init__(
        self,
        hysteretic: HystereticParams,
        learning_enabled: bool = True,
        feedback_mode: str = "greedy",
    ) -> None:
        super().__init__()
        if feedback_mode not in ("greedy", "onpolicy"):
            raise ValueError("feedback_mode must be 'greedy' or 'onpolicy'")
        self.hysteretic = hysteretic
        self.learning_enabled = learning_enabled
        #: "greedy" sends min-over-row (Q-routing's "smallest Q-value");
        #: "onpolicy" sends the Q-value of the port actually selected, which
        #: reflects the constrained (mostly minimal) behaviour of downstream
        #: routers more accurately.
        self.feedback_mode = feedback_mode
        self.tables: List[_PortQTable] = []
        self.feedback_sent = 0
        self.feedback_applied = 0
        #: when True, feedback is applied immediately instead of after the
        #: reverse-link latency (useful for deterministic unit tests)
        self.instant_feedback = False

    # ------------------------------------------------------- subclass contract
    def _build_table(self, router_id: int) -> _PortQTable:  # pragma: no cover - abstract
        raise NotImplementedError

    def _initial_values(self) -> np.ndarray:  # pragma: no cover - abstract
        """``[routers, rows, cols]`` initial values of every router's table."""
        raise NotImplementedError

    def _row_for(self, packet: Packet) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    # ----------------------------------------------------------------- wiring
    def _setup(self) -> None:
        topo = self.topo
        # One ``[routers, rows, cols]`` block holds every value of the system;
        # each router's table is a view of its slice.
        self.values = self._initial_values()
        self.tables = [self._build_table(r) for r in topo.all_routers()]
        for table, values in zip(self.tables, self.values, strict=True):
            table.values = values
        # Hot-path caches: host-port math and the unchecked Simulator.push
        # for the delayed feedback.
        self._hosts_per_router = topo.hosts_per_router
        self._num_host_ports = [topo.num_host_ports(r) for r in topo.all_routers()]
        self._sim = self.network.sim
        self._push = self.network.sim.push
        # Per-router candidate lists for ε-greedy exploration: built once
        # instead of per decision (on Dragonfly every router shares one list).
        self._explore_ports = [topo.network_ports_of(r) for r in topo.all_routers()]

    def on_fault_update(self, live_ports: Optional[List[List[int]]],
                        dead_routers: "frozenset[int]") -> None:
        """Mask dead ports out of the ε-greedy exploration candidates.

        Learning itself stays on — the tables keep updating through the
        degraded topology, so the re-route is *learned*.  A router whose
        network ports all died keeps its original candidates: its packets
        drain into the controller's sinks (the physical outcome) instead of
        crashing the exploration draw.
        """
        topo = self.topo
        if live_ports is None:  # last fault recovered: pristine candidates
            self._explore_ports = [topo.network_ports_of(r) for r in topo.all_routers()]
            self._fault_live = None
            return
        self._explore_ports = [
            live_ports[r] if live_ports[r] else topo.network_ports_of(r)
            for r in topo.all_routers()
        ]
        self._fault_live = live_ports

    def table(self, router_id: int) -> _PortQTable:
        """Value table of one router (inspection / tests)."""
        return self.tables[router_id]

    def total_table_memory_bytes(self) -> int:
        """Router memory consumed by all value tables in the system."""
        return sum(t.memory_bytes() for t in self.tables)

    # -------------------------------------------------------------- RL updates
    def route(self, router: Router, packet: Packet, in_port: int) -> int:
        """Routing decision plus the feedback for the previous hop.

        The paper's protocol sends the feedback *after* the next hop has been
        selected ("After R_y selects next hop, its smallest Q-value Q_y and a
        reward r will be sent back to R_x"), so the decision is made first and
        the feedback value can optionally reflect the selected port
        (``feedback_mode="onpolicy"``).
        """
        if packet.dst_router == router.id:
            out_port = packet.dst_node % self._hosts_per_router  # the ejection host port
        else:
            out_port = self.decide(router, packet, in_port)
        if packet.qfeedback is not None:
            self._send_feedback(router, packet, in_port, out_port)
        return out_port

    def _send_feedback(self, router: Router, packet: Packet, in_port: int,
                       out_port: int) -> None:
        """Send the pending feedback of the previous hop back to its router."""
        feedback = packet.qfeedback
        if feedback is None or not self.learning_enabled:
            return
        packet.qfeedback = None
        prev_router, row, column, prev_arrival_ns = feedback
        reward = packet.router_arrival_ns - prev_arrival_ns
        if router.id == packet.dst_router:
            q_next = 0.0
        elif self.feedback_mode == "onpolicy" and out_port >= self._num_host_ports[router.id]:
            q_next = self.tables[router.id].value(row, out_port)
        else:
            q_next = self.tables[router.id].min_value(row)
        target = reward + q_next
        self.feedback_sent += 1
        if self.instant_feedback:
            self._apply_feedback(prev_router, row, column, target)
            return
        reverse_latency = router._lat[in_port]
        self._push(self._sim._now + reverse_latency, self._apply_feedback,
                   (prev_router, row, column, target))

    def _apply_feedback(self, router_id: int, row: int, column: int, target: float) -> None:
        """Hysteretic update of one table entry (Equation 3)."""
        table = self.tables[router_id]
        values = table.values
        current = values.item(row, column)
        delta = target - current
        rate = self.hysteretic.alpha if delta < 0.0 else self.hysteretic.beta
        new = current + rate * delta
        values[row, column] = new
        table.updates += 1
        self.feedback_applied += 1
        if self._ev_q_update is not None:
            self._ev_q_update(router_id, row, column, current, new, self._sim._now)

    def on_forward(self, router: Router, packet: Packet, in_port: int, out_port: int,
                   now: float) -> None:
        """Tag the packet so the next router can send feedback for this hop."""
        if not self.learning_enabled or out_port < self._num_host_ports[router.id]:
            return  # ejection needs no further estimate
        table = self.tables[router.id]
        packet.qfeedback = (
            router.id,
            self._row_for(packet),
            table.column_of_port(out_port),
            packet.router_arrival_ns,
        )

    # ------------------------------------------------------------- diagnostics
    def freeze(self) -> None:
        """Stop learning (tables stay fixed); useful for ablations."""
        self.learning_enabled = False

    def unfreeze(self) -> None:
        self.learning_enabled = True

    def table_snapshot(self, router_id: Optional[int] = None) -> Any:
        """Copy of one router's table, or the mean Q-value per router when ``None``."""
        if router_id is not None:
            return self.tables[router_id].snapshot()
        return [float(t.values.mean()) for t in self.tables]

    # ------------------------------------------------- learned-state lifecycle
    def export_state(self) -> Dict[str, Any]:
        """Snapshot of all learned state (the :class:`CheckpointableRouting`
        contract of :mod:`repro.routing.base`).

        The payload bundles every per-router value table (stacked into one
        ``(num_routers, rows, cols)`` array), the per-table update counters,
        the feedback counters, and the learning hyper-parameters — enough to
        resume, inspect, or transfer a trained policy.  Only valid after
        :meth:`~repro.routing.base.RoutingAlgorithm.attach`.
        """
        if not self.tables:
            raise RuntimeError(
                f"{self.name}: cannot export state before the algorithm is "
                "attached to a network (no tables exist yet)"
            )
        table_states = [table.state_dict() for table in self.tables]
        params = getattr(self, "params", None)
        return {
            "version": ROUTING_STATE_VERSION,
            "routing": self.name,
            "topology": config_to_dict(self.topo.config),
            "table_version": TABLE_STATE_VERSION,
            "table_kind": table_states[0]["kind"],
            "first_port": table_states[0]["first_port"],
            "hyperparams": params.to_dict() if params is not None else {},
            "values": np.stack([state["values"] for state in table_states]),
            "updates": np.array([state["updates"] for state in table_states],
                                dtype=np.int64),
            "feedback_sent": int(self.feedback_sent),
            "feedback_applied": int(self.feedback_applied),
        }

    def import_state(self, state: Mapping[str, Any]) -> None:
        """Restore an :meth:`export_state` payload into this attached algorithm.

        Validation is layered: the routing-level checks (payload version,
        routing name, topology, table count) produce errors naming what was
        trained vs. what is being loaded, then every per-router table is
        restored through :meth:`_PortQTable.load_state`, which re-validates
        design and shape.  Hyper-parameters are *not* overwritten — the live
        algorithm keeps its own (so a policy trained with exploration can be
        evaluated greedily) — but a mismatch is visible in the payload.
        """
        if not self.tables:
            raise RuntimeError(
                f"{self.name}: cannot import state before the algorithm is "
                "attached to a network (no tables exist yet)"
            )
        version = state.get("version")
        if version != ROUTING_STATE_VERSION:
            raise ValueError(
                f"routing state version {version!r} is not supported "
                f"(this build reads version {ROUTING_STATE_VERSION})"
            )
        routing = state.get("routing")
        if routing != self.name:
            raise ValueError(
                f"checkpoint was trained with routing {routing!r}; it cannot "
                f"be loaded into {self.name!r}"
            )
        topology = dict(state.get("topology", {}))
        own_topology = config_to_dict(self.topo.config)
        if topology != own_topology:
            raise ValueError(
                f"checkpoint was trained on topology {topology}; this network "
                f"is {own_topology} — learned tables do not transfer across "
                "topologies"
            )
        values = np.asarray(state["values"], dtype=np.float64)
        if values.ndim != 3 or values.shape[0] != len(self.tables):
            raise ValueError(
                f"checkpoint holds tables for {values.shape[0] if values.ndim == 3 else '?'} "
                f"routers; this network has {len(self.tables)}"
            )
        updates = np.asarray(state.get("updates", np.zeros(len(self.tables))),
                             dtype=np.int64)
        if updates.shape != (len(self.tables),):
            raise ValueError(
                f"checkpoint holds update counters for {updates.shape} routers; "
                f"this network has {len(self.tables)} — the payload is "
                "truncated or corrupted"
            )
        table_version = state.get("table_version", TABLE_STATE_VERSION)
        table_kind = state.get("table_kind")
        first_port = state.get("first_port", self.tables[0].first_port)
        for table, table_values, table_updates in zip(self.tables, values, updates,
                                                       strict=True):
            table.load_state({
                "version": table_version,
                "kind": table_kind,
                "first_port": first_port,
                "values": table_values,
                "updates": int(table_updates),
            })
        self.feedback_sent = int(state.get("feedback_sent", 0))
        self.feedback_applied = int(state.get("feedback_applied", 0))
