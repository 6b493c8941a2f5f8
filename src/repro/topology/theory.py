"""Analytic performance bounds for Dragonfly routing.

These closed-form estimates follow the standard channel-load arguments of
Kim et al. (ISCA'08) and the paper's Section 2.2 discussion.  They serve two
purposes in this repository:

* **validation** — the simulator's measured saturation throughput must not
  exceed these bounds (tests assert this), and
* **interpretation** — they explain where the reduced 72-node system of the
  ``headline`` study saturates relative to the paper's 1,056-node system.

All throughputs are expressed as a fraction of the aggregate node injection
bandwidth (the same normalisation the paper uses for "offered load" and
"system throughput").

The channel-load arguments are Dragonfly-specific (single inter-group global
links, ``a*(a-1)`` local links per group): every bound function validates its
config and raises :class:`ValueError` naming the offending topology family
when handed a fat-tree or mesh config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.topology.config import DragonflyConfig


def _require_dragonfly(config: object, context: str) -> DragonflyConfig:
    """Reject non-Dragonfly configs with the family named in the error."""
    if isinstance(config, DragonflyConfig):
        return config
    from repro.topology.registry import family_of_config

    try:
        family = family_of_config(config).family
    except ValueError:
        family = type(config).__name__
    raise ValueError(
        f"{context} is a Dragonfly channel-load bound; it does not apply to "
        f"the {family!r} topology family (got {config!r})"
    )


@dataclass(frozen=True)
class ThroughputBounds:
    """Upper bounds on sustainable offered load for one (pattern, routing) pair:
    a report row, exported by ``to_dict`` and never read back."""

    pattern: str
    routing: str
    bound: float
    limiting_resource: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern,
            "routing": self.routing,
            "bound": self.bound,
            "limiting_resource": self.limiting_resource,
        }


def minimal_adv_bound(config: DragonflyConfig) -> ThroughputBounds:
    """MIN under ADV+i: the single global link between the group pair.

    A group injects ``a*p`` node-loads of traffic, all of which must cross one
    global link of unit (node) bandwidth, so the sustainable load is
    ``1 / (a*p)`` — 1/32 for the paper's 1,056-node system, 1/8 for the
    72-node reduced system.
    """
    config = _require_dragonfly(config, "minimal_adv_bound")
    bound = 1.0 / (config.a * config.p)
    return ThroughputBounds("ADV+i", "MIN", bound, "single minimal global link")


def valiant_adv_bound(config: DragonflyConfig) -> ThroughputBounds:
    """Valiant routing under ADV+i: each packet crosses two global links.

    The classic Valiant result: non-minimal routing halves the per-packet
    global bandwidth, giving at most 50% throughput when global links are the
    binding resource.
    """
    _require_dragonfly(config, "valiant_adv_bound")
    return ThroughputBounds("ADV+i", "VAL", 0.5, "two global hops per packet")


def minimal_ur_global_bound(config: DragonflyConfig) -> ThroughputBounds:
    """MIN under UR: average global-channel load.

    Under uniform traffic a fraction ``(g-1)*a*p / (N-1)`` of packets leave
    their source group and each crosses exactly one of the group's ``a*h``
    global links, so the mean global-channel load per unit offered load is
    ``inter_group_fraction * (a*p) / (a*h)``; for a balanced Dragonfly
    (``a = 2p = 2h``) this is ≈1 and UR throughput approaches 100%.
    """
    config = _require_dragonfly(config, "minimal_ur_global_bound")
    n = config.num_nodes
    inter_group_fraction = (n - config.a * config.p) / (n - 1)
    load_per_global = inter_group_fraction * (config.a * config.p) / (config.a * config.h)
    bound = min(1.0, 1.0 / load_per_global)
    return ThroughputBounds("UR", "MIN", bound, "global links (average load)")


def minimal_ur_local_bound(config: DragonflyConfig) -> ThroughputBounds:
    """MIN under UR: average local-channel load.

    An inter-group minimal path uses a local hop in the source group with
    probability ``(a-1)/a`` (the source router is not the gateway) and a local
    hop in the destination group with probability ``(a-1)/a``; intra-group
    traffic uses one local hop.  Dividing the per-group local traffic by the
    ``a*(a-1)`` directed local links gives the mean load per offered unit.
    For a balanced Dragonfly this is also ≈1 at full load, which is why the
    paper's UR saturation sits near (but slightly below) 100%.
    """
    config = _require_dragonfly(config, "minimal_ur_local_bound")
    n = config.num_nodes
    a, p = config.a, config.p
    same_router = (p - 1) / (n - 1)
    same_group = (a * p - p) / (n - 1)
    inter_group = 1.0 - same_router - same_group
    expected_local_hops = same_group * 1.0 + inter_group * (2.0 * (a - 1) / a)
    # per-group local traffic (node-loads) spread over a*(a-1) directed local links
    load_per_local = (a * p) * expected_local_hops / (a * (a - 1))
    bound = min(1.0, 1.0 / load_per_local) if load_per_local > 0 else 1.0
    return ThroughputBounds("UR", "MIN", bound, "local links (average load)")


def ur_saturation_bound(config: DragonflyConfig) -> float:
    """Tightest analytic UR bound for minimal routing (global vs local links)."""
    return min(minimal_ur_global_bound(config).bound, minimal_ur_local_bound(config).bound)


def adv_saturation_bound(config: DragonflyConfig, routing: str) -> float:
    """Analytic ADV+i bound for a routing family (``"MIN"`` or anything Valiant-like)."""
    if routing.upper() == "MIN":
        return minimal_adv_bound(config).bound
    return valiant_adv_bound(config).bound


def all_bounds(config: DragonflyConfig) -> Dict[str, float]:
    """Summary of every analytic bound for ``config`` (used by docs and tests)."""
    return {
        "UR/MIN (global)": minimal_ur_global_bound(config).bound,
        "UR/MIN (local)": minimal_ur_local_bound(config).bound,
        "UR/MIN": ur_saturation_bound(config),
        "ADV/MIN": minimal_adv_bound(config).bound,
        "ADV/VAL": valiant_adv_bound(config).bound,
    }
