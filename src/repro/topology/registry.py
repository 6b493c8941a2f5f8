"""Registry of topology families: Dragonfly, fat-tree, mesh/torus, plugins.

Each registered entry is a :class:`TopologyFamily` descriptor bundling the
family's config dataclass, its :class:`~repro.topology.base.Topology`
implementation, a default config and the CLI ``--config`` parser.  Lookup
reuses the :class:`repro.scenarios.registry.Registry` idiom (aliases,
case/hyphen-insensitive names, lazy loaders), so ``"fat-tree"``, ``"FatTree"``
and ``"fattree"`` all resolve to the same entry.

Serialized configs are family-tagged: :func:`config_to_dict` adds a
``"family"`` key next to the config's own fields and :func:`config_from_dict`
dispatches on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.scenarios.registry import Registry
from repro.topology.base import Topology

__all__ = [
    "TOPOLOGIES",
    "TopologyFamily",
    "available_topologies",
    "canonical_family",
    "config_from_dict",
    "config_to_dict",
    "default_config",
    "family_by_name",
    "family_of_config",
    "parse_config",
    "register_topology",
    "topology_for",
]


@dataclass(frozen=True)
class TopologyFamily:
    """Descriptor of one registered topology entry.

    Attributes
    ----------
    name:
        Registry entry name (``"dragonfly"``, ``"fattree"``, ``"mesh"``,
        ``"torus"``).  Usually equals :attr:`family`, but several entries may
        share one family: ``"torus"`` is a convenience entry of the
        ``"mesh"`` family with wrap-around defaults.
    family:
        Canonical family string; matches ``Topology.family`` and the
        ``"family"`` key of serialized configs.
    config_cls:
        Frozen config dataclass with ``to_dict``/``from_dict``.
    topology_for:
        ``config -> Topology`` factory (typically the class's cached
        ``for_config``).
    default:
        Zero-argument factory for the entry's default config.
    parse:
        ``str -> config`` parser for CLI ``--config`` values (preset names
        or comma-separated dimensions); raises ``ValueError`` on bad input.
    presets:
        ``{preset name: factory}`` accepted by :attr:`parse` — listed in CLI
        help and error messages.
    """

    name: str
    family: str
    config_cls: type
    topology_for: Callable[[Any], Topology]
    default: Callable[[], Any]
    parse: Callable[[str], Any]
    presets: Dict[str, Callable[[], Any]] = field(default_factory=dict)


#: the process-wide topology family registry.
TOPOLOGIES = Registry("topology")

#: config type → its family, as :func:`family_of_config` found it.
_FAMILY_OF_TYPE: Dict[type, "TopologyFamily"] = {}


def register_topology(
    descriptor: TopologyFamily,
    *,
    aliases: Sequence[str] = (),
    metadata: Optional[Dict[str, Any]] = None,
    replace: bool = False,
) -> None:
    """Register a topology descriptor under its ``name``."""
    _FAMILY_OF_TYPE.clear()
    TOPOLOGIES.register(
        descriptor.name,
        lambda: descriptor,
        aliases=aliases,
        metadata=dict(metadata or {}),
        replace=replace,
    )


def family_by_name(name: str) -> TopologyFamily:
    """The :class:`TopologyFamily` descriptor behind ``name`` (or an alias)."""
    return TOPOLOGIES.build(name)


def canonical_family(name: str) -> str:
    """Canonical family string for a (possibly aliased) topology name."""
    return family_by_name(name).family


def available_topologies() -> List[str]:
    """Registered topology entry names in registration order."""
    return TOPOLOGIES.names()


def family_of_config(config: Any) -> TopologyFamily:
    """The descriptor whose ``config_cls`` matches ``config``'s exact type
    (the first registered, remembered per type until the next registration)."""
    descriptor = _FAMILY_OF_TYPE.get(type(config))
    if descriptor is not None:
        return descriptor
    for name in TOPOLOGIES.names():
        descriptor = family_by_name(name)
        if type(config) is descriptor.config_cls:
            _FAMILY_OF_TYPE[type(config)] = descriptor
            return descriptor
    raise ValueError(
        f"no registered topology family accepts a {type(config).__name__}; "
        f"known families: {available_topologies()}"
    )


def topology_for(config: Any) -> Topology:
    """Build (or fetch the cached) :class:`Topology` for any registered config."""
    return family_of_config(config).topology_for(config)


def default_config(name: str) -> Any:
    """The default config of topology family ``name``."""
    return family_by_name(name).default()


def parse_config(name: str, text: str) -> Any:
    """Parse a CLI ``--config`` value in the context of topology ``name``."""
    return family_by_name(name).parse(text)


# --------------------------------------------------------------- serialization
def config_to_dict(config: Any) -> Dict[str, Any]:
    """Family-tagged dict form of any registered config."""
    descriptor = family_of_config(config)
    data = {"family": descriptor.family}
    data.update(config.to_dict())
    return data


def config_from_dict(data: Dict[str, Any]) -> Any:
    """Rebuild a config from its family-tagged dict form."""
    payload = dict(data)
    if "family" not in payload:
        raise ValueError(
            f"topology block {data!r} is missing required field 'family'; "
            f"known: {available_topologies()}"
        )
    family = payload.pop("family")
    if not isinstance(family, str):
        raise ValueError(f"topology 'family' must be a string, got {family!r}")
    try:
        descriptor = family_by_name(family)
    except ValueError as exc:
        raise ValueError(
            f"unknown topology family {family!r}; known: {available_topologies()}"
        ) from exc
    return descriptor.config_cls.from_dict(payload)


# ------------------------------------------------------- built-in registrations
def _parse_dims(text: str, field_names: Tuple[str, ...]) -> List[int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != len(field_names):
        raise ValueError(
            f"expected {len(field_names)} comma-separated integers "
            f"({','.join(field_names)}), got {text!r}"
        )
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"non-integer dimension in {text!r}") from None


def _make_parser(
    presets: Dict[str, Callable[[], Any]],
    field_names: Tuple[str, ...],
    build: Callable[..., Any],
) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        factory = presets.get(text.strip().lower())
        if factory is not None:
            return factory()
        return build(*_parse_dims(text, field_names))

    return parse


def _register_builtins() -> None:
    from repro.topology.config import DragonflyConfig
    from repro.topology.dragonfly import DragonflyTopology
    from repro.topology.fattree import FatTreeConfig, FatTreeTopology
    from repro.topology.mesh import MeshConfig, MeshTopology

    dragonfly_presets = {
        "tiny": DragonflyConfig.tiny,
        "small": DragonflyConfig.small_72,
        "medium": DragonflyConfig.medium_342,
        "paper-1056": DragonflyConfig.paper_1056,
        "paper-2550": DragonflyConfig.paper_2550,
    }
    register_topology(
        TopologyFamily(
            name="dragonfly",
            family="dragonfly",
            config_cls=DragonflyConfig,
            topology_for=DragonflyTopology.for_config,
            default=DragonflyConfig.small_72,
            parse=_make_parser(dragonfly_presets, ("p", "a", "h"), DragonflyConfig),
            presets=dragonfly_presets,
        ),
        aliases=("dfly",),
        metadata={
            "dims": "p,a,h",
            "summary": "1D Dragonfly: g=a*h+1 all-to-all groups of a routers",
        },
    )

    fattree_presets = {
        "tiny": FatTreeConfig.tiny,
        "small": FatTreeConfig.small_54,
    }
    register_topology(
        TopologyFamily(
            name="fattree",
            family="fattree",
            config_cls=FatTreeConfig,
            topology_for=FatTreeTopology.for_config,
            default=FatTreeConfig.tiny,
            parse=_make_parser(fattree_presets, ("k",), FatTreeConfig),
            presets=fattree_presets,
        ),
        aliases=("fat-tree", "clos"),
        metadata={
            "dims": "k",
            "summary": "k-ary fat-tree: k pods, 3 switch layers, k^3/4 hosts",
        },
    )

    mesh_presets = {
        "tiny": MeshConfig.tiny,
        "small": MeshConfig.small_72,
    }
    register_topology(
        TopologyFamily(
            name="mesh",
            family="mesh",
            config_cls=MeshConfig,
            topology_for=MeshTopology.for_config,
            default=MeshConfig.small_72,
            parse=_make_parser(mesh_presets, ("rows", "cols", "p"), MeshConfig),
            presets=mesh_presets,
        ),
        metadata={
            "dims": "rows,cols,p",
            "summary": "2D mesh, dimension-order routed, groups = rows",
        },
    )

    # Torus is a convenience entry of the mesh family: same config class and
    # topology, wrap-around defaults.  Serialized configs stay family="mesh"
    # with an explicit "wrap" flag.
    torus_presets = {
        "tiny": lambda: MeshConfig(rows=4, cols=4, p=1, wrap=True),
        "small": MeshConfig.small_72_torus,
    }
    register_topology(
        TopologyFamily(
            name="torus",
            family="mesh",
            config_cls=MeshConfig,
            topology_for=MeshTopology.for_config,
            default=MeshConfig.small_72_torus,
            parse=_make_parser(
                torus_presets,
                ("rows", "cols", "p"),
                lambda rows, cols, p: MeshConfig(rows, cols, p, wrap=True),
            ),
            presets=torus_presets,
        ),
        metadata={
            "dims": "rows,cols,p",
            "summary": "2D torus: the mesh family with wrap-around links",
        },
    )


_register_builtins()
