"""Analysis engine: source model, findings, the rule registry, suppressions.

The engine is deliberately stdlib-only (``ast`` + ``tokenize`` comments via a
regex): the analyzer must run in every environment the simulator runs in,
including CI images that install nothing beyond numpy.

A rule is a function ``check(project) -> Iterable[Finding]`` registered with
the :func:`rule` decorator; it receives the whole :class:`Project`, the
parsed view of every checked file.

Suppressions are line-scoped comments::

    foo = set(items)            # repro: ignore[D104]
    bar = time.time()           # repro: ignore[D102,D106]
    baz = anything_at_all()     # repro: ignore

and file-scoped ones (``# repro: ignore-file[D104]`` anywhere in the file).
A finding is suppressed when its line (or file) carries its rule code, or a
bare ``ignore`` with no code list.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

#: matches ``# repro: ignore``, ``# repro: ignore[D101]``, ``# repro: ignore[D101, D104]``
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?P<scope>-file)?\s*(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)

#: suppression sentinel meaning "every rule".
ALL_RULES = "*"

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to a file position."""

    rule: str
    severity: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered check: identity, default severity, and the check function."""

    code: str
    name: str
    severity: str
    summary: str
    check: Callable[["Project"], Iterable[Finding]]


#: code -> Rule, populated by the :func:`rule` decorator at import time.
RULE_REGISTRY: Dict[str, Rule] = {}


_CheckFn = Callable[["Project"], Iterable[Finding]]


def rule(code: str, name: str, severity: str,
         summary: str) -> Callable[[_CheckFn], _CheckFn]:
    """Register a check function under ``code`` (e.g. ``D101``)."""
    if severity not in SEVERITIES:
        raise ValueError(f"rule {code}: severity must be one of {SEVERITIES}")
    if not re.fullmatch(r"D\d{3}", code):
        raise ValueError(f"rule code {code!r} must look like D101")

    def decorate(check: _CheckFn) -> _CheckFn:
        if code in RULE_REGISTRY:
            raise ValueError(f"rule {code} registered twice")
        RULE_REGISTRY[code] = Rule(code, name, severity, summary, check)
        return check

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    return [RULE_REGISTRY[code] for code in sorted(RULE_REGISTRY)]


# ------------------------------------------------------------- source model
class SourceModule:
    """One parsed source file plus its comment-level suppressions."""

    def __init__(self, path: Path, rel_path: str, module_name: str, text: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.module = module_name
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.lines = text.splitlines()
        #: line number -> set of suppressed rule codes (or {ALL_RULES})
        self.suppressions: Dict[int, FrozenSet[str]] = {}
        #: file-wide suppressed codes
        self.file_suppressions: FrozenSet[str] = frozenset()
        self._scan_suppressions()
        self._type_checking_lines = _type_checking_line_ranges(self.tree)

    def _scan_suppressions(self) -> None:
        file_wide: set = set()
        for lineno, line in enumerate(self.lines, start=1):
            if "repro:" not in line:
                continue
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            codes = match.group("codes")
            parsed = (
                frozenset(code.strip() for code in codes.split(",") if code.strip())
                if codes
                else frozenset((ALL_RULES,))
            )
            if match.group("scope"):
                file_wide |= parsed
            else:
                self.suppressions[lineno] = parsed
        self.file_suppressions = frozenset(file_wide)

    def is_suppressed(self, finding: Finding) -> bool:
        for scope in (self.file_suppressions, self.suppressions.get(finding.line, frozenset())):
            if ALL_RULES in scope or finding.rule in scope:
                return True
        return False

    def in_type_checking_block(self, node: ast.AST) -> bool:
        """Whether ``node`` sits inside an ``if TYPE_CHECKING:`` block.

        Typing-only imports are invisible at runtime, so determinism rules
        must not flag them.
        """
        lineno = getattr(node, "lineno", None)
        if lineno is None:
            return False
        return any(start <= lineno <= end for start, end in self._type_checking_lines)

    def finding(self, rule_obj: Rule, node: ast.AST, message: str,
                severity: Optional[str] = None) -> Finding:
        return Finding(
            rule=rule_obj.code,
            severity=severity or rule_obj.severity,
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def _type_checking_line_ranges(tree: ast.Module) -> List[Tuple[int, int]]:
    ranges: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_tc and node.body:
            end = max(getattr(child, "end_lineno", child.lineno) for child in node.body)
            ranges.append((node.body[0].lineno, end))
    return ranges


class Project:
    """Every checked module."""

    def __init__(self, modules: List[SourceModule]) -> None:
        self.modules = modules


def dotted_name(node: ast.expr) -> Optional[str]:
    """Dotted name of an expression (``np.random.seed``), or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ------------------------------------------------------------------ loading
def load_module(path: Path, root: Path) -> SourceModule:
    """Parse one file into a :class:`SourceModule` (raises on syntax errors)."""
    rel = path.resolve().relative_to(root.resolve()).as_posix()
    module_name = _module_name_for(path, root)
    return SourceModule(path, rel, module_name, path.read_text(encoding="utf-8"))


def _module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path``: the part after a ``src/`` component."""
    parts = list(path.resolve().relative_to(root.resolve()).parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)
