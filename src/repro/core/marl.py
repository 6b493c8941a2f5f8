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

Every router's table is its slice of one ``values[router, row, col]`` block
(the layout of :mod:`repro.core.qtable`, shared with the flat kernel): column
``col`` is network port ``first_port + col``, and the subclass defines what a
row is (:meth:`TabularMarlRouting._row_for`).  There is no per-router table
object; decisions and updates index the block directly.

The feedback travels against the link direction, so it is applied after the
reverse-link latency — mimicking a value piggy-backed on credit/control flits,
which is how the paper argues the scheme needs no extra bandwidth.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.hysteretic import HystereticParams
from repro.core.qtable import TABLE_STATE_VERSION
from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.network.router import Router
from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Topology
from repro.topology.registry import config_to_dict

#: version of the ``export_state`` payload of a tabular MARL algorithm.
ROUTING_STATE_VERSION = 1


class TabularMarlRouting(RoutingAlgorithm):
    """Base class for Q-routing / Q-adaptive: owns the value block and the feedback loop."""

    #: table design recorded as ``table_kind`` in checkpoints: a fixed
    #: string, since checkpoints on disk carry it and it enters their
    #: ``state_digest``.
    table_kind = ""

    #: Q-update log (see :mod:`repro.instrument.logs`), set by the network
    #: when a probe reads it; the class default keeps the probes-off fast
    #: path at one None check per update.
    _q_log = None

    #: live network ports per router while faults are active (see
    #: :mod:`repro.faults`); the class default keeps faults-off decisions on
    #: the unmasked fast path at one attribute check.
    _fault_live = None

    #: ``[routers, rows, cols]`` learned values, built on attach.
    values: np.ndarray
    #: network port of column 0 (``Topology.table_port_span``).
    first_port: int

    def __init__(self, hysteretic: HystereticParams, feedback_mode: str = "greedy") -> None:
        super().__init__()
        if feedback_mode not in ("greedy", "onpolicy"):
            raise ValueError("feedback_mode must be 'greedy' or 'onpolicy'")
        self.hysteretic = hysteretic
        #: "greedy" sends min-over-row (Q-routing's "smallest Q-value");
        #: "onpolicy" sends the Q-value of the port actually selected, which
        #: reflects the constrained (mostly minimal) behaviour of downstream
        #: routers more accurately.
        self.feedback_mode = feedback_mode
        #: applied updates per router
        self.updates: List[int] = []
        self.feedback_sent = 0
        self.feedback_applied = 0

    # ------------------------------------------------------- subclass contract
    def initial_values(self, topo: Topology, params: NetworkParams) -> np.ndarray:
        """``[routers, rows, cols]`` initial values of every router's table.

        A function of ``(topo, params)`` alone: the attached algorithm learns
        in this block, and the flat kernel's model takes it without attaching
        anything.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def _row_for(self, packet: Packet) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    # ----------------------------------------------------------------- wiring
    def check_topology(self, topo: Topology) -> None:
        """Also refuse a topology whose network ports do not all fall inside
        ``table_port_span()``: such a port's column ``port - first_port``
        would index another port's entry (or none)."""
        super().check_topology(topo)
        first_port, num_ports = topo.table_port_span()
        end = first_port + num_ports
        for router in topo.all_routers():
            ports = topo.network_ports_of(router)  # ascending
            if ports and (ports[0] < first_port or ports[-1] >= end):
                raise ValueError(
                    f"routing algorithm {self.name!r} learns one table column per "
                    f"port in [{first_port}, {end}), but router {router} of this "
                    f"{topo.family} topology has network ports {list(ports)}"
                )

    def _setup(self) -> None:
        topo = self.topo
        self.values = self.initial_values(topo, self.network.params)
        self.first_port = topo.table_port_span()[0]
        self.updates = [0] * topo.num_routers
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

    def total_table_memory_bytes(self) -> int:
        """Router memory consumed by all value tables in the system."""
        return self.values.nbytes

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
        prev_router, row, column, prev_arrival_ns = packet.qfeedback
        packet.qfeedback = None
        reward = packet.router_arrival_ns - prev_arrival_ns
        router_id = router.id
        if router_id == packet.dst_router:
            q_next = 0.0
        elif self.feedback_mode == "onpolicy" and out_port >= self._num_host_ports[router_id]:
            q_next = self.values.item(router_id, row, out_port - self.first_port)
        else:
            q_next = min(self.values[router_id, row].tolist())
        self.feedback_sent += 1
        self._push(self._sim._now + router._lat[in_port], self._apply_feedback,
                   (prev_router, row, column, reward + q_next))

    def _apply_feedback(self, router_id: int, row: int, column: int, target: float) -> None:
        """Hysteretic update of one table entry (Equation 3)."""
        values = self.values
        current = values.item(router_id, row, column)
        delta = target - current
        rate = self.hysteretic.alpha if delta < 0.0 else self.hysteretic.beta
        new = current + rate * delta
        values[router_id, row, column] = new
        self.updates[router_id] += 1
        self.feedback_applied += 1
        if self._q_log is not None:
            self._q_log.add(router_id, abs(new - current), self._sim._now)

    def on_forward(self, router: Router, packet: Packet, in_port: int, out_port: int,
                   now: float) -> None:
        """Tag the packet so the next router can send feedback for this hop."""
        if out_port < self._num_host_ports[router.id]:
            return  # ejection needs no further estimate
        packet.qfeedback = (
            router.id,
            self._row_for(packet),
            out_port - self.first_port,
            packet.router_arrival_ns,
        )

    # ------------------------------------------------- learned-state lifecycle
    def _require_attached(self, action: str) -> None:
        if self.network is None:
            raise RuntimeError(
                f"{self.name}: cannot {action} state before the algorithm is "
                "attached to a network (no tables exist yet)"
            )

    def export_state(self) -> Dict[str, Any]:
        """:meth:`state_payload` of the live block and counters, the
        learned-state half :class:`repro.store.Checkpoint` persists."""
        self._require_attached("export")
        return self.state_payload(self.topo, self.values, self.updates,
                                  self.feedback_sent, self.feedback_applied)

    def state_payload(self, topo: Topology, values: Any, updates: Sequence[int],
                      feedback_sent: int, feedback_applied: int) -> Dict[str, Any]:
        """The learned-state payload of either engine, attached or not: a
        float64 copy of the ``[routers, rows, cols]`` block (any nested
        sequence), per-router update and feedback counters and
        hyper-parameters — enough to resume, inspect, or transfer a policy."""
        params = getattr(self, "params", None)
        return {
            "version": ROUTING_STATE_VERSION,
            "routing": self.name,
            "topology": config_to_dict(topo.config),
            "table_version": TABLE_STATE_VERSION,
            "table_kind": self.table_kind,
            "first_port": topo.table_port_span()[0],
            "hyperparams": params.to_dict() if params is not None else {},
            "values": np.array(values, dtype=np.float64),
            "updates": np.array(updates, dtype=np.int64),
            "feedback_sent": int(feedback_sent),
            "feedback_applied": int(feedback_applied),
        }

    def import_state(self, state: Mapping[str, Any]) -> None:
        """Restore a payload :meth:`checked_state` accepts.  Hyper-parameters
        are *not* overwritten: a policy trained with exploration can be
        evaluated greedily."""
        self._require_attached("import")
        values, (self.updates, self.feedback_sent, self.feedback_applied) = \
            self.checked_state(state, self.topo, self.values.shape)
        self.values[...] = values

    def checked_state(self, state: Mapping[str, Any], topo: Topology, shape: Tuple[int, ...]
                      ) -> Tuple[np.ndarray, Tuple[List[int], int, int]]:
        """``(values, (updates, feedback_sent, feedback_applied))`` of a payload
        this algorithm may load on ``topo`` into a ``shape`` block, or a
        :class:`ValueError` naming what was trained vs. what is loading:
        versions, routing, topology, update counters, table design, block
        shape (router count included) or column offset."""
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
        own_topology = config_to_dict(topo.config)
        if topology != own_topology:
            raise ValueError(
                f"checkpoint was trained on topology {topology}; this network "
                f"is {own_topology} — learned tables do not transfer across "
                "topologies"
            )
        num_routers = shape[0]
        values = np.asarray(state["values"], dtype=np.float64)
        updates = np.asarray(state.get("updates", np.zeros(num_routers)), dtype=np.int64)
        if updates.shape != (num_routers,):
            raise ValueError(
                f"checkpoint holds update counters for {updates.shape} routers; "
                f"this network has {num_routers} — the payload is "
                "truncated or corrupted"
            )
        table_version = state.get("table_version", TABLE_STATE_VERSION)
        if table_version != TABLE_STATE_VERSION:
            raise ValueError(
                f"Q-table state version {table_version!r} is not supported "
                f"(this build reads version {TABLE_STATE_VERSION})"
            )
        kind = state.get("table_kind")
        if kind != self.table_kind:
            raise ValueError(
                f"cannot load {kind!r} state into a {self.table_kind} "
                "(different table design)"
            )
        if values.shape != tuple(shape):
            raise ValueError(
                f"Q-table shape mismatch: state has {values.shape}, this network "
                f"expects {tuple(shape)} — the checkpoint was trained on a "
                "different topology or table configuration"
            )
        own_first_port = topo.table_port_span()[0]
        first_port = int(state.get("first_port", own_first_port))
        if first_port != own_first_port:
            raise ValueError(
                f"Q-table port-offset mismatch: state maps columns from port "
                f"{first_port}, this network from port {own_first_port}"
            )
        return values, (updates.tolist(), int(state.get("feedback_sent", 0)),
                        int(state.get("feedback_applied", 0)))
