"""R rules: everything registered declares its contract completely.

The registries (:data:`repro.routing.ROUTING_REGISTRY`,
:data:`repro.traffic.PATTERN_REGISTRY`,
:data:`repro.instrument.probes.PROBE_REGISTRY`) are the single source of
truth for what a scenario file may name.  A registered class with a missing
protocol method fails at simulation time — possibly hours into a sweep — and
a routing algorithm that never declares ``supported_topologies`` silently
attaches to topologies it was never validated on.

====== ====================================================================
R401   every registered routing algorithm declares ``supported_topologies``
       explicitly (in its own body or a project base *below*
       ``RoutingAlgorithm``) — ``None`` means "any topology", but it must be
       said, not inherited from the abstract default
R402   ``export_state``/``import_state`` come in pairs: a class defining one
       without the other produces checkpoints that cannot restore (or
       restores that cannot save)
R403   every registered class declares its canonical ``name`` (the abstract
       bases' placeholder defaults do not count)
R404   every registered class implements its registry's protocol: routing →
       ``decide``; traffic patterns → ``destination``; probes → ``summary``
       and an explicit ``logs`` declaration (the abstract root's
       ``NotImplementedError`` stub and empty default do not count)
====== ====================================================================

Registrations are collected from the call sites themselves —
``ROUTING_REGISTRY.register(...)``, ``register_pattern(...)``,
``PROBE_REGISTRY.register(...)`` — and lazily-registered entries
(``loader=_load_qadaptive``) are resolved by following the loader function to
its ``ImportFrom`` + ``return``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.core import (
    ClassInfo,
    Finding,
    Project,
    RULE_REGISTRY,
    SourceModule,
    dotted_name,
    rule,
)

#: registry kind -> (abstract root whose defaults don't count, required
#: methods, required class attributes)
_KIND_PROTOCOLS: Dict[str, Tuple[str, FrozenSet[str], FrozenSet[str]]] = {
    "routing": ("RoutingAlgorithm", frozenset({"decide"}), frozenset()),
    "pattern": ("TrafficPattern", frozenset({"destination"}), frozenset()),
    # A probe reduces run logs, so it must say which ones the run keeps.
    "probe": ("InstrumentProbe", frozenset({"summary"}), frozenset({"logs"})),
}


@dataclass(frozen=True)
class Registration:
    """One registry call site, resolved to the class it registers (if possible)."""

    kind: str  # "routing" | "pattern" | "probe"
    display: str  # registered name as written at the call site
    module: SourceModule
    node: ast.Call
    target: Optional[ClassInfo]


def _registration_kind(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    if name.endswith("ROUTING_REGISTRY.register"):
        return "routing"
    if name.split(".")[-1] == "register_pattern":
        return "pattern"
    if name.endswith("PROBE_REGISTRY.register"):
        return "probe"
    return None


def _display_name(call: ast.Call) -> str:
    if not call.args:
        return "<unnamed>"
    first = call.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return dotted_name(first) or "<unnamed>"


def _resolve_loader(project: Project, module: SourceModule,
                    loader_name: str) -> Optional[ClassInfo]:
    """Follow ``loader=_load_x`` to the class its function imports and returns."""
    func = next(
        (node for node in ast.walk(module.tree)
         if isinstance(node, ast.FunctionDef) and node.name == loader_name),
        None,
    )
    if func is None:
        return None
    imported: Dict[str, str] = {}
    returned: Optional[str] = None
    for node in ast.walk(func):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            returned = node.value.id
    if returned is None:
        return None
    qualified = imported.get(returned)
    if qualified is not None:
        info = project.classes.get(qualified)
        if info is not None:
            return info
    return project.resolve_class(module.module, returned)


def _resolve_target(project: Project, module: SourceModule,
                    call: ast.Call) -> Optional[ClassInfo]:
    factory: Optional[ast.expr] = call.args[1] if len(call.args) > 1 else None
    loader: Optional[ast.expr] = None
    for kw in call.keywords:
        if kw.arg == "factory":
            factory = kw.value
        elif kw.arg == "loader":
            loader = kw.value
    if isinstance(factory, ast.Name):
        return project.resolve_class(module.module, factory.id)
    if isinstance(loader, ast.Name):
        return _resolve_loader(project, module, loader.id)
    return None


def collect_registrations(project: Project) -> List[Registration]:
    """Every registry call site in the project, in file order."""
    found: List[Registration] = []
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = _registration_kind(node)
            if kind is None:
                continue
            # Skip the registration *wrappers* themselves (they forward a
            # parameter, not a class) by requiring a resolvable first arg.
            if not node.args:
                continue
            found.append(Registration(
                kind=kind,
                display=_display_name(node),
                module=module,
                node=node,
                target=_resolve_target(project, module, node),
            ))
    return found


def _mro_attrs_below(project: Project, info: ClassInfo, stop: str,
                     seen: Optional[set] = None) -> FrozenSet[str]:
    """Class attrs through project bases, excluding ``stop`` and above."""
    if seen is None:
        seen = set()
    key = f"{info.module}.{info.name}"
    if key in seen or info.name == stop:
        return frozenset()
    seen.add(key)
    attrs = set(info.class_attrs)
    for base in info.bases:
        base_info = project.resolve_class(info.module, base.split(".")[-1])
        if base_info is not None:
            attrs |= _mro_attrs_below(project, base_info, stop, seen)
    return frozenset(attrs)


def _mro_methods_below(project: Project, info: ClassInfo, stop: str,
                       seen: Optional[set] = None) -> FrozenSet[str]:
    """Methods through project bases, excluding ``stop`` and above."""
    if seen is None:
        seen = set()
    key = f"{info.module}.{info.name}"
    if key in seen or info.name == stop:
        return frozenset()
    seen.add(key)
    methods = set(info.methods)
    for base in info.bases:
        base_info = project.resolve_class(info.module, base.split(".")[-1])
        if base_info is not None:
            methods |= _mro_methods_below(project, base_info, stop, seen)
    return frozenset(methods)


@rule("R401", "undeclared-topologies", "error",
      "registered routing algorithms must declare supported_topologies explicitly")
def check_supported_topologies(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["R401"]
    for reg in collect_registrations(project):
        if reg.kind != "routing" or reg.target is None:
            continue
        declared = _mro_attrs_below(project, reg.target, "RoutingAlgorithm")
        if "supported_topologies" not in declared:
            yield reg.module.finding(
                rule_obj, reg.node,
                f"routing algorithm {reg.display!r} ({reg.target.name}) never "
                "declares supported_topologies: say `supported_topologies = "
                "None` for topology-generic algorithms or name the families "
                "it was validated on — inheriting the abstract default is how "
                "Dragonfly-only logic ends up attached to a mesh",
            )


@rule("R402", "one-way-checkpoint-state", "error",
      "export_state/import_state must come in pairs")
def check_state_pairs(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["R402"]
    for info in project.classes.values():
        has_export = "export_state" in info.methods
        has_import = "import_state" in info.methods
        if has_export == has_import:
            continue
        module = project.by_module.get(info.module)
        if module is None:
            continue
        missing, present = (("import_state", "export_state") if has_export
                            else ("export_state", "import_state"))
        yield module.finding(
            rule_obj, info.node,
            f"{info.name} defines {present} but not {missing}: checkpoints it "
            "writes cannot restore (or restores cannot round-trip back to "
            "disk) — implement both halves of the learned-state round trip",
        )


@rule("R403", "unnamed-registration", "error",
      "registered classes must declare their canonical `name`")
def check_registered_name(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["R403"]
    for reg in collect_registrations(project):
        if reg.target is None:
            continue
        root = _KIND_PROTOCOLS[reg.kind][0]
        declared = _mro_attrs_below(project, reg.target, root)
        if "name" not in declared:
            yield reg.module.finding(
                rule_obj, reg.node,
                f"registered {reg.kind} {reg.display!r} ({reg.target.name}) "
                "never sets its `name` class attribute: reports and study "
                "files would show the abstract placeholder instead of the "
                "canonical registry name",
            )


@rule("R404", "incomplete-protocol", "error",
      "registered classes must implement their registry's protocol methods")
def check_protocol_complete(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["R404"]
    for reg in collect_registrations(project):
        if reg.target is None:
            continue
        root, methods, attrs = _KIND_PROTOCOLS[reg.kind]
        implemented = _mro_methods_below(project, reg.target, root)
        for method in sorted(methods - implemented):
            yield reg.module.finding(
                rule_obj, reg.node,
                f"registered {reg.kind} {reg.display!r} ({reg.target.name}) "
                f"does not implement {method}(): the abstract base's stub "
                "raises NotImplementedError at simulation time — implement "
                "the full protocol before registering",
            )
        declared = _mro_attrs_below(project, reg.target, root)
        for attr in sorted(attrs - declared):
            yield reg.module.finding(
                rule_obj, reg.node,
                f"registered {reg.kind} {reg.display!r} ({reg.target.name}) "
                f"never declares `{attr}`: inheriting the abstract default "
                "hides what the run must record — declare it, even when empty",
            )
