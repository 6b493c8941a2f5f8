"""Replicate-independent precompute shared by every run of one batch.

Every replicate of a batch runs the *same* spec under a different seed, so
everything that does not depend on the seed — topology wiring, per-port
delays, credit capacities, minimal-route tables, routing hyper-parameters,
and the initial (uncongested) Q-tables — is computed once per batch, as
plain lists, by the same pure functions the object graph is built from.  No
:class:`~repro.network.network.Network` is built: the per-port wiring is
:func:`~repro.network.network.port_table` (indexed ``router * k + port``,
the lists a network wires its routers and NICs from), ``min_next`` is the
topology's own ``minimal_next_table()`` and ``init_values`` a read-only
block from the learned routing's ``initial_values(topo, params)`` — the
same ``[routers, rows, cols]`` Q-value block the object graph learns in.
The kernel then only pays per-replicate cost for state that actually
diverges between seeds.

The block lives only until the first replicate: :meth:`BatchModel.initial_tables`
turns it into shared rows (one tuple per distinct row) and drops it, so a
run holds no 3 MB array that nothing reads.  ``build_model`` does not do this
itself, so a pooled batch's parent never pays for rows only its workers read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch.errors import UnsupportedByBackend

if TYPE_CHECKING:  # typing only
    from repro.experiments.harness import ExperimentSpec
    from repro.network.params import NetworkParams
    from repro.topology.base import Topology

#: decision kinds the kernel implements.  MIN and the two learned kinds are
#: routed inline by ``BatchKernel._advance``; the rest are rows of the decision
#: table in :mod:`repro.engine.batch.decisions`.
KIND_MIN = 0
KIND_QADP = 1
KIND_QROUTING = 2
KIND_VALG = 3
KIND_VALN = 4
KIND_VAL = 5
KIND_UGALG = 6
KIND_UGALN = 7
KIND_PAR = 8

#: the closed routing set: every name of ``repro.routing.ROUTING_REGISTRY``
#: and the decision kind that runs it.
_KIND_OF_ROUTING = {
    "MIN": KIND_MIN, "Q-adp": KIND_QADP, "Q-routing": KIND_QROUTING,
    "VALg": KIND_VALG, "VALn": KIND_VALN, "VAL": KIND_VAL,
    "UGALg": KIND_UGALG, "UGALn": KIND_UGALN, "PAR": KIND_PAR,
}
_LEARNED_KINDS = (KIND_QADP, KIND_QROUTING)
#: kinds whose decisions read the Dragonfly port/gateway tables below (VALn
#: needs neither: it only routes minimally towards routers).
_GROUP_TABLE_KINDS = (KIND_QADP, KIND_VALG, KIND_UGALG, KIND_UGALN, KIND_PAR)


def _kind_of(routing: str) -> int:
    """The decision kind that runs ``routing`` (any accepted spelling).

    A name registered from outside the nine built-ins has none: the routing
    set is closed, and such a name is refused with a ``ValueError``.
    """
    from repro.routing import canonical_routing_name

    name = canonical_routing_name(routing)
    kind = _KIND_OF_ROUTING.get(name)
    if kind is None:
        raise ValueError(
            f"routing {name!r} is not one of the nine built-in routings "
            f"({', '.join(_KIND_OF_ROUTING)}): the routing set is closed, each "
            "built-in runs as a decision kind of the kernel")
    return kind


def is_learned(routing: str) -> bool:
    """Whether ``routing`` (any accepted spelling) keeps learned state, a
    Q-table to train, save and warm-start from: Q-adp and Q-routing.  A fact
    of the name in the closed routing set; nothing is built."""
    return _kind_of(routing) in _LEARNED_KINDS


def check_batchable(spec: "ExperimentSpec") -> None:
    """Refuse every spec feature the kernel does not reproduce bit-identically.

    Every routing is a decision kind, so only two spec fields send a spec to
    the object-graph engine: ``telemetry`` and ``faults``.  The check runs
    before any simulation work: a spec either raises
    :class:`UnsupportedByBackend` here (``run_experiment`` then runs it on the
    object-graph engine) or produces exactly that engine's per-replicate
    results, a warm start's too.  Calling it asks which engine a spec gets.
    """
    if spec.telemetry:
        raise UnsupportedByBackend(
            "the flat kernel runs probes-off only; telemetry probes "
            f"{list(spec.telemetry)} are published by the object-graph engine"
        )
    if spec.faults is not None:
        raise UnsupportedByBackend(
            "fault schedules (degraded-mode routing) are only simulated by "
            "the object-graph engine"
        )


@dataclass
class BatchModel:
    """Flattened static state of one batch (see module docstring)."""

    spec: "ExperimentSpec"
    topo: "Topology"
    params: "NetworkParams"  # num_vcs resolved
    kind: int
    offered_load: float
    # --- geometry (flat index f = router * k + port) ---
    k: int = 0
    num_routers: int = 0
    num_nodes: int = 0
    num_vcs: int = 0
    max_vc: int = 0
    ser: float = 0.0
    hpr: int = 0  # hosts per router (node id = router * hpr + local index)
    num_host: List[int] = field(default_factory=list)  # host ports per router
    group: List[int] = field(default_factory=list)  # group of each router
    hop_delay: List[float] = field(default_factory=list)  # [f] ser + link latency
    lat: List[float] = field(default_factory=list)  # [f] link latency only
    node_at: List[int] = field(default_factory=list)  # [f] node of a host port, -1
    remote_idx: List[int] = field(default_factory=list)  # [f] neighbor flat idx, -1
    cred_cap: List[Optional[int]] = field(default_factory=list)  # [f] None = infinite
    min_next: List[List[int]] = field(default_factory=list)  # [router][dst_router]
    # --- NIC wiring ---
    nic_fidx: List[int] = field(default_factory=list)  # [node] router*k + host port
    nic_router: List[int] = field(default_factory=list)
    nic_hop_delay: float = 0.0
    nic_cred_cap: int = 0  # credits towards the router host input (vc 0)
    # --- learned routing (Q-adp, Q-routing) ---
    learned: bool = False
    # [routers, rows, cols] float64 until the first replicate, then None
    init_values: Optional[np.ndarray] = None
    init_tables: List[List[Tuple[float, ...]]] = field(default_factory=list)  # shared rows
    init_counters: Tuple[List[int], int, int] = ([], 0, 0)  # updates/router, fb sent, applied
    first_port: int = 0
    explore: List[List[int]] = field(default_factory=list)  # [router] candidates
    onpolicy: bool = False
    alpha: float = 0.0
    beta: float = 0.0
    epsilon: float = 0.0
    table_memory_bytes: int = 0
    # --- Q-adp only ---
    p: int = 0
    q_thld1: float = 0.0
    q_thld2: float = 0.0
    local_ports: List[int] = field(default_factory=list)
    # --- Q-routing only ---
    max_q: int = 0
    # --- Dragonfly tables (Q-adp: ``direct`` only; VALg / UGALg / UGALn /
    # PAR: both) ---
    direct: List[List[int]] = field(default_factory=list)  # [router][group] port, -1
    gateway: List[List[int]] = field(default_factory=list)  # [group][to_group] router, -1
    bias: float = 0.0  # UGALg / UGALn / PAR: added to the non-minimal side
    # --- VAL only ---
    host_routers: List[int] = field(default_factory=list)  # intermediate candidates

    def initial_tables(self) -> List[List[Sequence[float]]]:
        """A fresh replicate's Q-tables ``[router][row]``: its own per-router
        lists of the shared initial rows (``[]`` for a routing that learns
        nothing).  The first call builds the rows from ``init_values`` and
        drops the block; every later replicate reuses them."""
        values = self.init_values
        if values is not None:
            self.init_tables = _table_lists(values)
            self.init_values = None
        return [table[:] for table in self.init_tables]


def _table_lists(values: np.ndarray) -> List[List[Tuple[float, ...]]]:
    """``values.tolist()``, with one shared tuple per distinct row.

    The initial block holds a handful of distinct rows (23 for the 34 848
    rows of the paper's 1 056-node Q-adp tables), so the tables share them
    instead of boxing every entry.  A learning write first replaces its tuple
    row with a private list (``list(row)``), then updates one slot of it.
    """
    routers, rows, cols = values.shape
    raw = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    width = 8 * cols
    shared: Dict[bytes, Tuple[float, ...]] = {}
    flat: List[Tuple[float, ...]] = []
    append = flat.append
    for start in range(0, len(raw), width):
        key = raw[start:start + width]
        row = shared.get(key)
        if row is None:
            row = shared[key] = tuple(np.frombuffer(key).tolist())
        append(row)
    return [flat[router * rows:(router + 1) * rows] for router in range(routers)]


def build_model(spec: "ExperimentSpec") -> BatchModel:
    """Build the shared model of one batch (raises for unsupported specs)."""
    check_batchable(spec)
    # The same pure functions the object graph is built from — the port
    # table, the resolved parameters, the routing's initial value block —
    # applied to the cached topology; no Network, router or NIC is built
    # and no routing is attached.
    from repro.network.network import port_table, resolve_params
    from repro.routing import make_routing
    from repro.topology.registry import config_to_dict, topology_for

    routing = make_routing(spec.routing, **spec.routing_kwargs)
    topo = topology_for(spec.config)
    routing.check_topology(topo)
    params = resolve_params(spec.network_params, routing, topo)
    checkpoint = None
    if spec.warm_start is not None:  # loaded and checked as build_network does
        from repro.store import Checkpoint

        checkpoint = Checkpoint.load(spec.warm_start)
        checkpoint.check_compatible(spec.routing, config_to_dict(spec.config))
    kind = _kind_of(spec.routing)
    schedule = spec.schedule
    offered = schedule.phases[0].load if schedule is not None else spec.offered_load

    k = topo.k
    num_routers = topo.num_routers
    table = port_table(topo, params)
    model = BatchModel(spec=spec, topo=topo, params=params, kind=kind,
                       offered_load=offered, **table._asdict())
    model.k = k
    model.num_routers = num_routers
    model.num_nodes = topo.num_nodes
    model.num_vcs = params.num_vcs
    model.max_vc = params.num_vcs - 1
    model.ser = params.serialization_ns
    model.hpr = topo.hosts_per_router
    model.num_host = [topo.num_host_ports(r) for r in range(num_routers)]
    model.group = list(topo.router_groups())
    model.min_next = topo.minimal_next_table()
    model.nic_router = [f // k for f in model.nic_fidx]

    if kind in _LEARNED_KINDS:
        model.learned = True
        init_values = routing.initial_values(topo, params)
        model.init_counters = ([0] * num_routers, 0, 0)
        if checkpoint is not None:  # the tables and counters it carries over
            init_values, model.init_counters = routing.checked_state(
                checkpoint.state(), topo, init_values.shape)
        # Read-only: the first replicate reads its rows (initial_tables).
        init_values.setflags(write=False)
        model.init_values = init_values
        model.first_port = topo.table_port_span()[0]
        model.explore = [list(topo.network_ports_of(r)) for r in range(num_routers)]
        model.onpolicy = routing.feedback_mode == "onpolicy"
        model.alpha = routing.hysteretic.alpha
        model.beta = routing.hysteretic.beta
        model.epsilon = routing.params.epsilon
        model.table_memory_bytes = init_values.nbytes
    elif checkpoint is not None:
        checkpoint.apply(routing)  # raises: nothing to restore into
    if kind == KIND_QADP:
        model.p = topo.p
        model.q_thld1 = routing.params.q_thld1
        model.q_thld2 = routing.params.q_thld2
        model.local_ports = list(topo.local_ports)
    elif kind == KIND_QROUTING:
        model.max_q = routing.params.max_q
    elif kind == KIND_VAL:
        model.host_routers = list(topo.host_routers())
    if kind in _GROUP_TABLE_KINDS:
        groups = range(topo.g)
        model.direct = [
            [
                -1 if (port := topo.global_port_to_group(r, g)) is None else port
                for g in groups
            ]
            for r in range(num_routers)
        ]
        if kind != KIND_QADP:
            model.gateway = [
                [-1 if i == j else topo.gateway_router(i, j) for j in groups]
                for i in groups
            ]
            model.bias = getattr(routing, "bias", 0.0)  # VALg has none
    return model
