"""S rules: fingerprint-complete serialization and strict, versioned loaders.

The result cache, the checkpoint store and the study files all key on the
*serialized* form of a spec (``to_dict`` → sha256).  A dataclass field that
``to_dict`` never reads is therefore invisible to the fingerprint: two specs
that differ only in that field silently share a cache entry and replay the
wrong result.  Symmetrically, a ``from_dict`` that stops validating keys
turns a typo in a study file into a silently different experiment.

====== ====================================================================
S301   every dataclass field of a ``to_dict``/``from_dict`` class must be
       read by ``to_dict`` (as ``self.<field>`` or a ``"<field>"`` key) —
       i.e. serialized and fingerprint-folded — or carry an explicit
       ``# repro: ignore[S301]`` exemption on its declaration line
S302   every ``from_dict`` in serialization scope must go through the strict
       validators (``check_keys``/``check_schema``)
S304   ``to_dict`` and ``from_dict`` come in pairs in serialization scope
       (a one-way export cannot round-trip through study files or caches)
====== ====================================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.core import (
    ClassInfo,
    Finding,
    Project,
    RULE_REGISTRY,
    SourceModule,
    dotted_name,
    rule,
)

#: modules whose classes are part of the spec/config serialization protocol.
SERIALIZATION_SCOPE = (
    "repro.scenarios",
    "repro.topology",
    "repro.experiments.harness",
    "repro.traffic.generator",
    "repro.network.params",
    "repro.core.qadaptive",
    "repro.core.qrouting",
    "repro.store",
    "repro.faults",
)


def in_serialization_scope(module_name: str) -> bool:
    return module_name.startswith(SERIALIZATION_SCOPE)


def _method(info: ClassInfo, name: str) -> Optional[ast.FunctionDef]:
    for child in info.node.body:
        if isinstance(child, ast.FunctionDef) and child.name == name:
            return child
    return None


#: calls that serialize the *whole* object: every field is covered.
_WHOLE_OBJECT_CALLS = ("fields", "asdict", "vars")


def _reads_of(func: ast.FunctionDef) -> Optional[Set[str]]:
    """Names ``to_dict`` demonstrably serializes: ``self.X`` loads and string keys.

    Returns ``None`` when the method serializes the whole object at once
    (``dataclasses.fields(self)`` / ``asdict(self)`` / ``vars(self)`` /
    ``self.__dict__``) — every field is covered by construction.
    """
    reads: Set[str] = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            if node.attr == "__dict__":
                return None
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if (name is not None
                    and name.split(".")[-1] in _WHOLE_OBJECT_CALLS
                    and any(isinstance(arg, ast.Name) and arg.id == "self"
                            for arg in node.args)):
                return None
    return reads


@rule("S301", "unserialized-field", "error",
      "every dataclass field must be read by to_dict (fingerprint-folded) "
      "or carry an explicit `# repro: ignore[S301]` exemption")
def check_fields_serialized(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["S301"]
    for module in project.modules:
        if not in_serialization_scope(module.module):
            continue
        for info in project.classes.values():
            if info.module != module.module or not info.is_dataclass:
                continue
            to_dict = _method(info, "to_dict")
            if to_dict is None or _method(info, "from_dict") is None:
                continue
            reads = _reads_of(to_dict)
            if reads is None:  # whole-object serialization covers every field
                continue
            for field_name, lineno in info.fields:
                if field_name in reads:
                    continue
                yield Finding(
                    rule=rule_obj.code,
                    severity=rule_obj.severity,
                    path=module.rel_path,
                    line=lineno,
                    col=1,
                    message=(
                        f"field {info.name}.{field_name} is never read by "
                        f"{info.name}.to_dict: it will not serialize and will "
                        "not fold into cache fingerprints — two specs differing "
                        "only here would share a cache entry; serialize it or "
                        "exempt the field explicitly"
                    ),
                )


@rule("S302", "lax-loader", "error",
      "from_dict must validate strictly via check_keys/check_schema")
def check_strict_loader(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["S302"]
    for module in project.modules:
        if not in_serialization_scope(module.module):
            continue
        for info in project.classes.values():
            if info.module != module.module:
                continue
            from_dict = _method(info, "from_dict")
            if from_dict is None:
                continue
            calls = {
                dotted_name(node.func)
                for node in ast.walk(from_dict)
                if isinstance(node, ast.Call)
            }
            validators = {name for name in calls if name and (
                name.split(".")[-1] in ("check_keys", "check_schema")
            )}
            # Delegating loaders (``cls.from_dict`` wrappers, registry
            # dispatch) validate in the target; accept any *.from_dict call.
            delegates = {name for name in calls if name and name.endswith("from_dict")}
            if not validators and not delegates:
                yield module.finding(
                    rule_obj, from_dict,
                    f"{info.name}.from_dict validates nothing: unknown keys in "
                    "a scenario/config document must raise, not silently "
                    "change the experiment — route it through check_keys()",
                )


@rule("S304", "one-way-serialization", "error",
      "to_dict/from_dict come in pairs in serialization scope")
def check_roundtrip_pairs(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["S304"]
    for module in project.modules:
        if not in_serialization_scope(module.module):
            continue
        for info in project.classes.values():
            if info.module != module.module:
                continue
            has_to = "to_dict" in info.methods
            has_from = "from_dict" in info.methods
            if has_to == has_from:
                continue
            missing, present = (("from_dict", "to_dict") if has_to
                                else ("to_dict", "from_dict"))
            yield module.finding(
                rule_obj, info.node,
                f"{info.name} defines {present} but not {missing}: a one-way "
                "serializer cannot round-trip through study files, caches, or "
                "checkpoints — implement the inverse (or exempt a pure "
                "export-only report type explicitly)",
            )
