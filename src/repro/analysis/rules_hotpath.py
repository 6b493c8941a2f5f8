"""H rules: the monomorphic per-event hot path must stay monomorphic.

PR 3 rewrote the simulator core around a small set of per-event/per-flit
functions (one C-level heap compare per event, flattened per-port arrays,
no Python frames beyond the callback itself), and telemetry is engineered to
cost one ``None`` check per event when no probe reads its run log.
These wins disappear one innocent-looking edit at a time; the rules below
mechanically reject the edits that have historically cost the most:

====== ====================================================================
H201   no ``try/except`` inside a hot function (``try/finally`` is allowed —
       ``Simulator.run`` needs its re-entrancy latch)
H202   no closures or lambdas defined inside a hot function (per-call
       allocation + cell-variable indirection)
H203   no ``**kwargs`` parameters or ``**`` call-unpacking in a hot function
H204   no ``print``/``logging`` calls in a hot function
H205   every run-log append (a call on a ``self._*_log`` slot, see
       :mod:`repro.instrument.logs`) anywhere in simulation code must be
       guarded by an ``is not None`` check on the same slot
====== ====================================================================

The hot list (:data:`HOT_FUNCTIONS`) is the PR-3/PR-5 inventory: the
simulator run loop and its scheduling calls (``Simulator.push``), the router
route/forward/serve path, the NIC inject/receive path, packet creation, the
learned per-hop path (the shared route / feedback send / hysteretic fold /
forward tag of ``TabularMarlRouting`` and the Q-adp and Q-routing decisions
that read the value block), the traffic wake-up stream with its two consumers
(the object graph's per-wake-up event and the flat kernel's trace recorder),
and the flat kernel's drain with the per-decision functions of its decision
table (``factory.function``: the functions are built once per drain by
factories that are not hot themselves).  Extend it when new code joins the
per-event path.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Tuple

from repro.analysis.core import (
    Finding,
    Project,
    RULE_REGISTRY,
    SourceModule,
    dotted_name,
    parent_map,
    rule,
)

#: module -> qualified function names on the per-event hot path.
HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "repro.engine.simulator": frozenset({
        "Simulator.run", "Simulator.push", "Simulator.at", "Simulator.after",
    }),
    "repro.network.router": frozenset({
        "Router.receive_packet", "Router.credit_return", "Router._route_head",
        "Router._forward", "Router._serve_waiting",
    }),
    "repro.network.nic": frozenset({
        "Nic.inject", "Nic._try_inject", "Nic.receive_packet", "Nic.credit_return",
    }),
    "repro.network.network": frozenset({"Network.create_packet"}),
    "repro.core.marl": frozenset({
        "TabularMarlRouting.route", "TabularMarlRouting._send_feedback",
        "TabularMarlRouting._apply_feedback", "TabularMarlRouting.on_forward",
    }),
    "repro.core.qadaptive": frozenset({"QAdaptiveRouting.decide"}),
    "repro.core.qrouting": frozenset({"QRoutingAlgorithm.decide"}),
    "repro.traffic.generator": frozenset({"TrafficGenerator._wake", "_wakeups"}),
    "repro.engine.batch.kernel": frozenset({"BatchKernel._advance"}),
    "repro.engine.batch.trace": frozenset({"record_traffic_trace"}),
    "repro.engine.batch.decisions": frozenset({
        "valg.decide", "valn.decide", "val.decide",
        "_ugal.decide", "_ugal.diverts", "_ugal.congestion",
    }),
}

#: packages where every run-log append must be None-guarded.
PUBLISH_SCOPE = ("repro.engine", "repro.network", "repro.core", "repro.traffic")


def _hot_functions(module: SourceModule) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Yield ``(qualname, node)`` of this module's hot-listed functions.

    ``Owner.name`` names a method of a class or a function defined directly
    inside a top-level factory function.
    """
    wanted = HOT_FUNCTIONS.get(module.module)
    if not wanted:
        return
    for node in module.tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    qualname = f"{node.name}.{child.name}"
                    if qualname in wanted:
                        yield qualname, child
        if isinstance(node, ast.FunctionDef) and node.name in wanted:
            yield node.name, node


@rule("H201", "hot-path-try-except", "error",
      "no try/except in hot functions (exception tables cost per call)")
def check_try_except(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["H201"]
    for module in project.modules:
        for qualname, func in _hot_functions(module):
            for node in ast.walk(func):
                if isinstance(node, ast.Try) and node.handlers:
                    yield module.finding(
                        rule_obj, node,
                        f"try/except inside hot function {qualname}; raise the "
                        "check out of the per-event path (try/finally alone is "
                        "tolerated for the run loop's re-entrancy latch)",
                    )


@rule("H202", "hot-path-closure", "error",
      "no closures/lambdas in hot functions (per-call allocation)")
def check_closures(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["H202"]
    for module in project.modules:
        for qualname, func in _hot_functions(module):
            for node in ast.walk(func):
                if node is func:
                    continue
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    kind = "lambda" if isinstance(node, ast.Lambda) else "nested function"
                    yield module.finding(
                        rule_obj, node,
                        f"{kind} defined inside hot function {qualname}: every "
                        "call allocates a fresh function object; hoist it to a "
                        "bound method or precomputed callback",
                    )


@rule("H203", "hot-path-kwargs", "error",
      "no **kwargs parameters or ** call-unpacking in hot functions")
def check_kwargs(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["H203"]
    for module in project.modules:
        for qualname, func in _hot_functions(module):
            if func.args.kwarg is not None:
                yield module.finding(
                    rule_obj, func,
                    f"hot function {qualname} takes **{func.args.kwarg.arg}: "
                    "keyword dict construction on the per-event path; use "
                    "positional parameters",
                )
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and any(
                    kw.arg is None for kw in node.keywords
                ):
                    yield module.finding(
                        rule_obj, node,
                        f"**-unpacking call inside hot function {qualname}: "
                        "builds a dict per event; pass arguments positionally",
                    )


_LOG_CALL_ROOTS = ("logging", "logger", "log")


@rule("H204", "hot-path-logging", "error",
      "no print/logging in hot functions (formatting + I/O per event)")
def check_logging(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["H204"]
    for module in project.modules:
        for qualname, func in _hot_functions(module):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                root = name.split(".")[0]
                if name == "print" or root in _LOG_CALL_ROOTS:
                    yield module.finding(
                        rule_obj, node,
                        f"{name}() inside hot function {qualname}: formatting "
                        "and I/O per event; record counters and report after "
                        "the run (or append to a run log)",
                    )


def _is_not_none_guard_for(test: ast.expr, target_dump: str) -> bool:
    """Whether ``test`` contains ``<target> is not None`` for this log slot."""
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        if (len(node.ops) == 1 and isinstance(node.ops[0], ast.IsNot)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None
                and ast.dump(node.left) == target_dump):
            return True
    return False


def _is_log_slot(node: ast.expr) -> bool:
    """``<owner>._*_log``: a run-log slot, ``None`` unless a probe reads it."""
    return (isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and node.attr.endswith("_log"))


@rule("H205", "unguarded-log-append", "error",
      "run-log appends must be guarded: `if <log slot> is not None:`")
def check_log_append(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["H205"]
    for module in project.modules:
        if not module.module.startswith(PUBLISH_SCOPE):
            continue
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            parents = parent_map(func)
            # Local aliases of log slots: ``log = self._join_log``.
            aliases = set()
            for node in ast.walk(func):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and _is_log_slot(node.value)):
                    aliases.add(node.targets[0].id)
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                log = node.func.value
                if not (_is_log_slot(log) or (isinstance(log, ast.Name) and log.id in aliases)):
                    continue
                target_dump = ast.dump(log)
                guarded = any(
                    isinstance(ancestor, ast.If)
                    and _is_not_none_guard_for(ancestor.test, target_dump)
                    for ancestor in parents.ancestors(node)
                )
                if not guarded:
                    name = dotted_name(log) or "<log>"
                    yield module.finding(
                        rule_obj, node,
                        f"unguarded run-log append {name}.{node.func.attr}(...): "
                        "log slots are None on the probes-off fast path — wrap "
                        f"in `if {name} is not None:` (one attribute check)",
                    )
