"""Routing algorithms.

Baselines implemented here (all but VAL evaluated in the paper):

======== =============================================================
name     algorithm
======== =============================================================
MIN      minimal routing (topology-generic)
VAL      Valiant routing through a random host router (topology-generic)
VALg     Valiant routing through a random intermediate group
VALn     Valiant routing through a random intermediate router
UGALg    adaptive choice between MIN and a VALg candidate (source router)
UGALn    adaptive choice between MIN and a VALn candidate (source router)
PAR      UGALn plus one in-source-group re-evaluation
======== =============================================================

MIN, VAL and Q-routing type against the generic
:class:`~repro.topology.base.Topology` protocol and run on every registered
topology family; the Dragonfly-specific algorithms declare
``supported_topologies = ("dragonfly",)`` and refuse to attach elsewhere.

The learned algorithms (Q-adaptive, Q-routing) live in :mod:`repro.core` and
are registered here *lazily* — their entries carry an import callback instead
of the class, so listing algorithms never triggers the
``repro.core`` → ``repro.routing.base`` circular import and
:func:`make_routing` can still build them by paper name.

The registry itself (:data:`ROUTING_REGISTRY`) is a
:class:`repro.scenarios.registry.Registry` holding exactly these nine
algorithms, the seven baselines and the two learned ones: the set is closed.
Each is a decision kind of the flat kernel (:mod:`repro.engine.batch.model`),
so a routing's name says which kernel code runs it and whether it learns.
"""

from __future__ import annotations

from typing import Callable, List

from repro.routing.base import RoutingAlgorithm
from repro.routing.minimal import MinimalRouting
from repro.routing.par import ParRouting
from repro.routing.ugal import UgalGRouting, UgalNRouting
from repro.routing.valiant import (
    ValiantGlobalRouting,
    ValiantNodeRouting,
    ValiantRouterRouting,
)
from repro.scenarios.registry import Registry

__all__ = [
    "MinimalRouting",
    "ParRouting",
    "ROUTING_REGISTRY",
    "RoutingAlgorithm",
    "UgalGRouting",
    "UgalNRouting",
    "ValiantGlobalRouting",
    "ValiantNodeRouting",
    "ValiantRouterRouting",
    "available_algorithms",
    "canonical_routing_name",
    "make_routing",
]

#: the single source of truth for routing algorithm names.
ROUTING_REGISTRY = Registry("routing algorithm")


def available_algorithms() -> List[str]:
    """Names accepted by :func:`make_routing` (canonical capitalisation).

    Purely a registry listing: no factory is imported or instantiated, and
    the learned algorithms (``Q-adp``, ``Q-routing``) are present from the
    first call, before any :func:`make_routing` build.
    """
    return sorted(ROUTING_REGISTRY.names())


def canonical_routing_name(name: str) -> str:
    """Canonical display name for any accepted spelling (``"qadp"`` → ``"Q-adp"``)."""
    return ROUTING_REGISTRY.canonical_name(name)


def make_routing(name: str, **kwargs) -> RoutingAlgorithm:
    """Build a fresh routing algorithm instance from its paper name.

    Accepted names (case/space/hyphen-insensitive): ``MIN``, ``VALg``,
    ``VALn``, ``UGALg``, ``UGALn``, ``PAR``, ``Q-adp`` (aliases
    ``Q-adaptive``, ``qadaptive``) and ``Q-routing`` (alias ``qrouting``).
    """
    return ROUTING_REGISTRY.build(name, **kwargs)


def _load_qadaptive() -> Callable[..., RoutingAlgorithm]:
    from repro.core.qadaptive import QAdaptiveRouting

    return QAdaptiveRouting


def _load_qrouting() -> Callable[..., RoutingAlgorithm]:
    from repro.core.qrouting import QRoutingAlgorithm

    return QRoutingAlgorithm


ROUTING_REGISTRY.register("MIN", MinimalRouting, aliases=("minimal",),
                          metadata={"summary": "minimal (shortest-path) routing"})
ROUTING_REGISTRY.register("VAL", ValiantRouterRouting, aliases=("valiant",),
                          metadata={"summary": "Valiant via a random host router (any topology)"})
ROUTING_REGISTRY.register("VALg", ValiantGlobalRouting,
                          metadata={"summary": "Valiant via a random intermediate group"})
ROUTING_REGISTRY.register("VALn", ValiantNodeRouting,
                          metadata={"summary": "Valiant via a random intermediate router"})
ROUTING_REGISTRY.register("UGALg", UgalGRouting,
                          metadata={"summary": "adaptive MIN vs VALg at the source router"})
ROUTING_REGISTRY.register("UGALn", UgalNRouting,
                          metadata={"summary": "adaptive MIN vs VALn at the source router"})
ROUTING_REGISTRY.register("PAR", ParRouting,
                          metadata={"summary": "UGALn plus one in-source-group re-evaluation"})
ROUTING_REGISTRY.register("Q-adp", loader=_load_qadaptive,
                          aliases=("Q-adaptive", "qadaptive"),
                          metadata={"summary": "Q-adaptive multi-agent RL routing (the paper)"})
ROUTING_REGISTRY.register("Q-routing", loader=_load_qrouting, aliases=("qrouting",),
                          metadata={"summary": "naive Q-routing with a maxQ hop threshold"})
