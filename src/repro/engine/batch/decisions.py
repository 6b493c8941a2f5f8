"""The flat kernel's decision table: the paper's non-learning baselines.

``BatchKernel._advance`` routes MIN and the two learned kinds inline; every
other decision kind is one row of :data:`DECISION_TABLE` — a factory that binds
the batch model and one replicate's state and returns a plain function

    ``decide(router, pkt) -> out_port``

called for each head packet that has not reached its destination router.

Each function mirrors its scalar class in :mod:`repro.routing` draw for draw:
the same ``routing:<name>`` stream (``st.rng``) read through the scalar
classes' own ``choose_intermediate_*`` helpers, the same comparisons on the
same integer congestion counts.
Algorithm-private packet state travels in ``pkt[10]``, laid out exactly like
the scalar ``packet.scratch``:

====== ================================================================
VALg   intermediate group id
VALn   ``[intermediate_router, second_phase]``
VAL    ``[intermediate_router, second_phase]``
UGALg  ``None`` (minimal) or ``[-1, intermediate_group, False]``
UGALn  ``None`` (minimal) or ``[intermediate_router, group, second_phase]``
PAR    as UGALn, plus ``False`` = "re-evaluated, still minimal"
====== ================================================================

so "committed to a non-minimal path" (the scalar ``packet.nonminimal``) is the
truth value of ``pkt[10]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, cast

from repro.engine.batch.model import (
    KIND_PAR,
    KIND_UGALG,
    KIND_UGALN,
    KIND_VAL,
    KIND_VALG,
    KIND_VALN,
    BatchModel,
)

if TYPE_CHECKING:  # typing only: the kernel imports this module
    from repro.engine.batch.kernel import ReplicateState
    from repro.topology.dragonfly import DragonflyTopology

#: ``decide(router, pkt) -> out_port`` (``pkt``: a packet record).
Decide = Callable[[int, List[Any]], int]


def valg(m: BatchModel, st: "ReplicateState") -> Decide:
    """VALg: mirrors ``ValiantGlobalRouting.decide``."""
    from repro.routing.valiant import choose_intermediate_group

    group = m.group
    min_next = m.min_next
    direct = m.direct
    gateway = m.gateway
    num_groups = m.topo.g
    rng = st.rng

    def decide(router: int, pkt: List[Any]) -> int:
        imd_group = pkt[10]
        dst_router = pkt[2]
        dst_group = group[dst_router]
        if imd_group is None and router == pkt[3]:
            imd_group = dst_group  # intra-group traffic: the direct local hop
            if pkt[4] != dst_group:
                imd_group = choose_intermediate_group(rng, num_groups, pkt[4],
                                                      dst_group)
            pkt[10] = imd_group
        here = group[router]
        if here == dst_group or here == imd_group:
            return min_next[router][dst_router]  # second phase
        port = direct[router][imd_group]
        if port >= 0:
            return port
        return min_next[router][gateway[imd_group][here]]

    return decide


def valn(m: BatchModel, st: "ReplicateState") -> Decide:
    """VALn: mirrors ``ValiantNodeRouting.decide``."""
    from repro.routing.valiant import choose_intermediate_router

    group = m.group
    min_next = m.min_next
    topo = cast("DragonflyTopology", m.topo)  # VALn attaches to no other family
    rng = st.rng

    def decide(router: int, pkt: List[Any]) -> int:
        state = pkt[10]
        dst_router = pkt[2]
        if state is None and router == pkt[3]:
            imd_router = dst_router
            dst_group = group[dst_router]
            if pkt[4] != dst_group:
                imd_router = choose_intermediate_router(rng, topo, pkt[4], dst_group)
            state = [imd_router, False]
            pkt[10] = state
        if not state[1] and router == state[0]:
            state[1] = True  # the intermediate router was reached
        if state[1] or group[router] == group[dst_router]:
            return min_next[router][dst_router]
        return min_next[router][state[0]]

    return decide


def val(m: BatchModel, st: "ReplicateState") -> Decide:
    """VAL (any topology): mirrors ``ValiantRouterRouting.decide``."""
    min_next = m.min_next
    hosts = m.host_routers
    count = len(hosts)
    randrange = st.rng.randrange

    def decide(router: int, pkt: List[Any]) -> int:
        state = pkt[10]
        dst_router = pkt[2]
        if state is None and router == pkt[3]:
            imd_router = dst_router
            if count > 2:
                while True:
                    imd_router = hosts[randrange(count)]
                    if imd_router != router and imd_router != dst_router:
                        break
            state = [imd_router, False]
            pkt[10] = state
        if not state[1] and router == state[0]:
            state[1] = True  # the intermediate router was reached
        if state[1]:
            return min_next[router][dst_router]
        return min_next[router][state[0]]

    return decide


def _ugal(m: BatchModel, st: "ReplicateState", node_valiant: bool,
          progressive: bool) -> Decide:
    """UGALg / UGALn / PAR: mirrors ``_UgalBase`` and ``ParRouting.decide``.

    ``node_valiant`` picks the candidate detour (a router, VALn style, or a
    group, VALg style); ``progressive`` adds PAR's one re-evaluation inside
    the source group.
    """
    from repro.routing.valiant import (
        choose_intermediate_group,
        choose_intermediate_router,
    )

    k = m.k
    num_vcs = m.num_vcs
    cred_cap = m.cred_cap
    group = m.group
    min_next = m.min_next
    direct = m.direct
    gateway = m.gateway
    topo = cast("DragonflyTopology", m.topo)  # UGAL/PAR attach to no other family
    num_groups = topo.g
    bias = m.bias
    waiting = st.waiting
    cred = st.cred
    rng = st.rng

    def congestion(fo: int) -> int:
        """``Router.port_congestion``: queued waiters (stale entries included,
        as ``len(router.waiting[port])`` counts them; ``None`` before the
        port's first waiter) plus credits in use."""
        waiters = waiting[fo]
        queued = len(waiters) if waiters else 0
        cc = cred[fo]
        cap = cred_cap[fo]
        if cc is None or cap is None:
            return queued
        return queued + cap * num_vcs - sum(cc)

    def diverts(router: int, pkt: List[Any]) -> bool:
        """``_adaptive_choice``: sample one Valiant candidate, compare the two
        first-hop ports, and commit ``pkt`` to the detour when it wins.

        Only reached with the router in the source group and the destination
        in another one, so every hop count is the inter-group closed form of
        ``DragonflyTopology.minimal_hops``: the global hop plus one local hop
        at each end that is not the groups' gateway.
        """
        dst_router = pkt[2]
        here = group[router]
        dst_group = group[dst_router]
        min_hops = (1 + (gateway[here][dst_group] != router)
                    + (gateway[dst_group][here] != dst_router))
        if node_valiant:
            imd_router = choose_intermediate_router(rng, topo, here, dst_group)
            imd_group = group[imd_router]
            nm_hops = (2 + (gateway[here][imd_group] != router)
                       + (gateway[imd_group][here] != imd_router)
                       + (gateway[imd_group][dst_group] != imd_router)
                       + (gateway[dst_group][imd_group] != dst_router))
            nm_port = min_next[router][imd_router]
        else:
            imd_router = -1
            imd_group = choose_intermediate_group(rng, num_groups, here, dst_group)
            entry_router = gateway[imd_group][here]
            nm_hops = (2 + (gateway[here][imd_group] != router)
                       + (gateway[imd_group][dst_group] != entry_router)
                       + (gateway[dst_group][imd_group] != dst_router))
            nm_port = direct[router][imd_group]
            if nm_port < 0:
                nm_port = min_next[router][entry_router]
        base = router * k
        q_min = congestion(base + min_next[router][dst_router])
        q_nonmin = congestion(base + nm_port)
        if q_min * min_hops <= q_nonmin * nm_hops + bias:
            st.c_minimal += 1
            return False
        st.c_nonminimal += 1
        pkt[10] = [imd_router, imd_group, False]
        return True

    def decide(router: int, pkt: List[Any]) -> int:
        state = pkt[10]
        dst_router = pkt[2]
        if not state:  # still minimal: None, or PAR's False
            if router == pkt[3] and pkt[6] == 0:
                if (pkt[4] == group[dst_router]
                        or not diverts(router, pkt)):
                    return min_next[router][dst_router]
            elif (progressive and state is None and group[router] == pkt[4]
                  and pkt[4] != group[dst_router]):
                # PAR: one chance to divert while still in the source group.
                pkt[10] = False
                st.c_reevaluations += 1
                if not diverts(router, pkt):
                    return min_next[router][dst_router]
                st.c_diverted += 1
            else:
                return min_next[router][dst_router]
            state = pkt[10]
        # _follow_nonminimal: [imd_router, imd_group, second_phase]
        here = group[router]
        dst_group = group[dst_router]
        if node_valiant:
            if not state[2] and router == state[0]:
                state[2] = True  # the intermediate router was reached
            if state[2] or here == dst_group:
                return min_next[router][dst_router]
            return min_next[router][state[0]]
        imd_group = state[1]
        if here == dst_group or here == imd_group:
            return min_next[router][dst_router]
        port = direct[router][imd_group]
        if port >= 0:
            return port
        return min_next[router][gateway[imd_group][here]]

    return decide


def ugalg(m: BatchModel, st: "ReplicateState") -> Decide:
    """UGALg: MIN against one VALg candidate, decided at the source router."""
    return _ugal(m, st, node_valiant=False, progressive=False)


def ugaln(m: BatchModel, st: "ReplicateState") -> Decide:
    """UGALn: MIN against one VALn candidate, decided at the source router."""
    return _ugal(m, st, node_valiant=True, progressive=False)


def par(m: BatchModel, st: "ReplicateState") -> Decide:
    """PAR: UGALn plus one re-evaluation inside the source group."""
    return _ugal(m, st, node_valiant=True, progressive=True)


#: decision kind -> factory of its ``decide`` function.
DECISION_TABLE: Dict[int, Callable[[BatchModel, "ReplicateState"], Decide]] = {
    KIND_VALG: valg,
    KIND_VALN: valn,
    KIND_VAL: val,
    KIND_UGALG: ugalg,
    KIND_UGALN: ugaln,
    KIND_PAR: par,
}


def decision_for(m: BatchModel, st: "ReplicateState") -> Optional[Decide]:
    """The replicate's ``decide`` function; ``None`` for the kinds ``_advance``
    routes inline."""
    factory = DECISION_TABLE.get(m.kind)
    return None if factory is None else factory(m, st)
