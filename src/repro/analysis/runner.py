"""File discovery, the check pipeline, and the ``repro-sim check`` CLI.

The pipeline: discover ``*.py`` files → parse into a :class:`Project` → run
every registered rule → drop suppressed findings → report.  Exit status is
the contract CI gates on:

* ``0`` — no errors (warnings reported but tolerated unless ``--strict``)
* ``1`` — errors (or, under ``--strict``, warnings)
* ``2`` — usage error (no files matched)
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis import rules_determinism  # noqa: F401  (register D rules)
from repro.analysis import rules_hotpath  # noqa: F401
from repro.analysis.core import Finding, Project, all_rules, load_module

#: directories never descended into during discovery.
_SKIP_DIRS = {".git", "__pycache__", ".venv", "venv", "build", "dist",
              ".mypy_cache", ".ruff_cache", ".pytest_cache"}

#: default check target, relative to the repo root.
DEFAULT_PATHS = ("src",)


def repo_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor containing ``pyproject.toml`` (else the cwd)."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return current


def discover_files(root: Path, paths: Sequence[str]) -> List[Path]:
    """Every ``*.py`` under ``paths`` (files or directories), sorted."""
    found = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file() and path.suffix == ".py":
            found.add(path.resolve())
        elif path.is_dir():
            for child in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in child.parts):
                    found.add(child.resolve())
    return sorted(found)


def changed_files(root: Path) -> List[str]:
    """Tracked-modified plus untracked ``*.py`` paths, relative to ``root``."""
    names = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "diff", "--cached", "--name-only"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if proc.returncode == 0:
            names.update(line.strip() for line in proc.stdout.splitlines())
    return sorted(n for n in names if n.endswith(".py") and (root / n).exists())


def run_check(files: Iterable[Path], root: Path) -> List[Finding]:
    """Parse, run every rule, and return unsuppressed findings in file order."""
    modules = []
    findings: List[Finding] = []
    for path in files:
        try:
            modules.append(load_module(path, root))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="E999", severity="error",
                path=path.resolve().relative_to(root.resolve()).as_posix(),
                line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                message=f"syntax error: {exc.msg}",
            ))
    project = Project(modules)
    by_path = {module.rel_path: module for module in modules}
    for rule_obj in all_rules():
        for finding in rule_obj.check(project):
            module = by_path.get(finding.path)
            if module is not None and module.is_suppressed(finding):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: f.sort_key())
    return findings


# ----------------------------------------------------------------------- CLI
def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Wire the ``check`` arguments (shared by ``repro-sim check`` and -m)."""
    parser.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files/directories to check (default: src)")
    parser.add_argument("--strict", action="store_true",
                        help="fail on warnings too")
    parser.add_argument("--changed", action="store_true",
                        help="check only files modified/untracked per git "
                             "(for pre-commit); exits 0 when none")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="finding output format (default text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every registered rule and exit")
    parser.set_defaults(func=run_from_args)


def _print_rules() -> None:
    for rule_obj in all_rules():
        print(f"{rule_obj.code}  {rule_obj.severity:<7}  {rule_obj.name}: "
              f"{rule_obj.summary}")


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        _print_rules()
        return 0
    root = repo_root()

    if args.changed:
        paths = [p for p in changed_files(root)
                 if not args.paths
                 or any(Path(p).is_relative_to(sel) for sel in args.paths)]
        if not paths:
            print("repro-sim check: no changed python files")
            return 0
    else:
        paths = list(args.paths) if args.paths else list(DEFAULT_PATHS)

    files = discover_files(root, paths)
    if not files:
        print(f"repro-sim check: no python files under {paths}", file=sys.stderr)
        return 2
    findings = run_check(files, root)

    if args.format == "json":
        print(json.dumps({
            "findings": [f.to_dict() for f in findings],
            "files": len(files),
        }, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())

    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity == "warning"]
    failed = bool(errors) or (args.strict and bool(warnings))
    if args.format == "text":
        status = "FAILED" if failed else "ok"
        print(f"repro-sim check: {len(files)} file(s), {len(errors)} error(s), "
              f"{len(warnings)} warning(s) — {status}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Domain-specific static analysis for the repro codebase "
                    "(determinism and hot-path rules).",
    )
    add_arguments(parser)
    args = parser.parse_args(list(argv) if argv is not None else None)
    return run_from_args(args)
