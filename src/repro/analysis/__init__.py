"""Domain-specific static analysis for the repro codebase.

The properties this package enforces are the ones the repository's value
rests on — and the ones a stray line of code silently breaks:

* **Determinism** (``D`` rules) — every random draw flows through
  :class:`repro.engine.rng.RngFactory`, no wall-clock reads or
  iteration-order-dependent results inside simulation logic, so runs stay
  bit-for-bit reproducible from a single seed (the golden-fingerprint suite
  depends on it).
* **Hot path** (``H`` rules) — the per-event/per-flit functions rewritten in
  PR 3 must not regrow try/except, closures, ``**``-unpacking, logging, or
  run-log appends without their ``is not None`` guard.

Serialized forms and registrations are guarded by tests instead: every
spec-like class is a :class:`repro.scenarios.serialize.Codec`, checked field
by field by ``tests/test_serialization_golden.py``, and each registered
routing, pattern and probe runs under the suite.

Run it as ``repro-sim check [--strict]`` or ``python -m repro.analysis``.
Findings can be suppressed inline with ``# repro: ignore[RULE]`` (or
``# repro: ignore`` for every rule on that line).
"""

from __future__ import annotations

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    RULE_REGISTRY,
    SourceModule,
    all_rules,
    rule,
)
from repro.analysis.runner import main, run_check

# Importing the rule modules registers both rule families.
from repro.analysis import rules_determinism  # noqa: F401  (registration side effect)
from repro.analysis import rules_hotpath  # noqa: F401

__all__ = [
    "Finding",
    "Project",
    "RULE_REGISTRY",
    "Rule",
    "SourceModule",
    "all_rules",
    "main",
    "rule",
    "run_check",
]
