"""D rules: bit-identical deterministic replay.

The simulator's core claim (and the golden-fingerprint suite that locks it
in) is that a run is a pure function of its spec.  Every rule here targets a
way that property silently breaks:

====== ====================================================================
D101   ``random`` imported outside :mod:`repro.engine.rng` — all randomness
       must flow through named :class:`~repro.engine.rng.RngFactory` streams
D102   wall-clock reads (``time``/``datetime``) inside simulation logic
D103   ambient entropy: ``uuid``, ``secrets``, ``os.urandom``; and, inside
       simulation logic, the process environment (``os.environ``/``getenv``)
D104   iteration over an unordered ``set`` feeding results (order leaks into
       output unless wrapped in ``sorted``/order-insensitive reducers)
D105   numpy *global* RNG state (``np.random.seed``/``np.random.rand``/...)
       instead of a factory-held ``Generator``
D106   builtin ``hash()`` in simulation/serialization logic —
       ``PYTHONHASHSEED`` makes it unstable across processes; derive keys
       with :func:`hashlib.sha256` like :mod:`repro.engine.rng` does
====== ====================================================================

Scope: the *simulation* packages (engine, network, core, routing, traffic)
get the strict treatment; the entropy/set/np-global rules apply to all of
``src/repro`` because cache keys, reports and stored artifacts must be as
reproducible as the simulation itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project, RULE_REGISTRY, SourceModule, dotted_name, rule

#: packages whose code runs inside (or decides) a simulation.
SIM_PACKAGES = (
    "repro.engine",
    "repro.network",
    "repro.core",
    "repro.routing",
    "repro.traffic",
)

#: the one module allowed to touch ``random`` directly: the stream factory.
RNG_MODULE = "repro.engine.rng"


def in_sim_scope(module: SourceModule) -> bool:
    return module.module.startswith(SIM_PACKAGES)


def _runtime_imports(module: SourceModule) -> Iterator[ast.stmt]:
    """Import statements that exist at runtime (``TYPE_CHECKING`` blocks skipped)."""
    for node in ast.walk(module.tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and not module.in_type_checking_block(node)):
            yield node


def _imported_roots(node: ast.stmt) -> Iterator[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom) and node.module is not None:
        yield node.module.split(".")[0]


@rule("D101", "random-outside-rng", "error",
      "`random` may only be imported by repro.engine.rng; draw from RngFactory streams")
def check_random_import(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["D101"]
    for module in project.modules:
        if not in_sim_scope(module) or module.module == RNG_MODULE:
            continue
        for node in _runtime_imports(module):
            if "random" in _imported_roots(node):
                yield module.finding(
                    rule_obj, node,
                    "import of `random` outside repro.engine.rng; use a named "
                    "RngFactory stream (network.rng.py(...)) so draws stay "
                    "seed-reproducible and isolated per component",
                )


_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
}


@rule("D102", "wall-clock-in-simulation", "error",
      "no wall-clock reads inside simulation logic; simulated time is sim.now")
def check_wall_clock(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["D102"]
    for module in project.modules:
        if not in_sim_scope(module):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield module.finding(
                    rule_obj, node,
                    f"wall-clock call {name}() in simulation logic; results must "
                    "depend only on the spec — use the simulator clock (sim.now)",
                )
        for node in _runtime_imports(module):
            for root in _imported_roots(node):
                if root in ("time", "datetime"):
                    yield module.finding(
                        rule_obj, node,
                        f"import of `{root}` in simulation logic; wall-clock "
                        "time must not leak into simulated behaviour",
                        severity="warning",
                    )


#: environment accessors of :mod:`os` (attribute or ``from os import`` name).
_ENV_READS = ("environ", "getenv")


@rule("D103", "ambient-entropy", "error",
      "no uuid/secrets/os.urandom anywhere in src, no os.environ in simulation "
      "logic: ambient state breaks replay")
def check_entropy(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["D103"]
    env_message = (
        "environment read in simulation logic: a run must be a pure function "
        "of its spec — take the value as a spec field or an entry-point keyword"
    )
    for module in project.modules:
        sim_scope = in_sim_scope(module)
        for node in _runtime_imports(module):
            if (sim_scope and isinstance(node, ast.ImportFrom)
                    and node.module == "os"
                    and any(alias.name in _ENV_READS for alias in node.names)):
                yield module.finding(rule_obj, node, env_message)
            for root in _imported_roots(node):
                if root in ("uuid", "secrets"):
                    yield module.finding(
                        rule_obj, node,
                        f"import of `{root}`: ambient entropy cannot be replayed "
                        "from a seed; derive ids from spec fingerprints instead",
                    )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and dotted_name(node.func) == "os.urandom":
                yield module.finding(
                    rule_obj, node,
                    "os.urandom() is unseedable entropy; derive bytes from "
                    "hashlib over seeded inputs instead",
                )
            elif (sim_scope and isinstance(node, ast.Attribute)
                    and node.attr in _ENV_READS
                    and dotted_name(node.value) == "os"):
                yield module.finding(rule_obj, node, env_message)


#: wrappers that neutralize iteration order.
_ORDER_INSENSITIVE_WRAPPERS = {
    "sorted", "sum", "max", "min", "len", "any", "all", "frozenset", "set",
}


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                                            ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@rule("D104", "unordered-set-iteration", "error",
      "iterating a set leaks arbitrary order into results; wrap in sorted()")
def check_set_iteration(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["D104"]
    for module in project.modules:
        for node in ast.walk(module.tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                # list(set(...)) / tuple(set(...)) / enumerate(set(...)):
                # materializes the arbitrary order (order-insensitive
                # reducers like sorted/sum/max are fine).
                name = dotted_name(node.func)
                if (name in ("list", "tuple", "enumerate")
                        and node.args and _is_set_expr(node.args[0])):
                    iters.append(node.args[0])
            for candidate in iters:
                if _is_set_expr(candidate):
                    yield module.finding(
                        rule_obj, candidate,
                        "iteration over a set: the order is arbitrary and leaks "
                        "into results/draws — wrap in sorted(...) (or reduce "
                        "with an order-insensitive aggregate)",
                    )


_NP_GLOBAL_RNG = {
    "np.random.seed", "np.random.rand", "np.random.randn", "np.random.randint",
    "np.random.random", "np.random.choice", "np.random.shuffle",
    "np.random.permutation", "np.random.uniform", "np.random.normal",
    "numpy.random.seed", "numpy.random.rand", "numpy.random.randn",
    "numpy.random.randint", "numpy.random.random", "numpy.random.choice",
    "numpy.random.shuffle", "numpy.random.permutation",
}


@rule("D105", "numpy-global-rng", "error",
      "numpy global RNG state is process-wide; draw from RngFactory.py(...) streams "
      "(the bulk helpers of repro.engine.rng take many draws at once)")
def check_numpy_global_rng(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["D105"]
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _NP_GLOBAL_RNG:
                yield module.finding(
                    rule_obj, node,
                    f"{name}() mutates/reads numpy's process-global RNG; draw "
                    "from a named stream (RngFactory.py, or the bulk helpers of "
                    "repro.engine.rng) so streams stay isolated and replayable",
                )


#: modules whose hashes feed cache keys / fingerprints / stream seeding.
_HASH_SCOPE_EXTRA = ("repro.experiments", "repro.scenarios", "repro.store")


@rule("D106", "builtin-hash", "error",
      "builtin hash() is salted by PYTHONHASHSEED; use hashlib for stable keys")
def check_builtin_hash(project: Project) -> Iterator[Finding]:
    rule_obj = RULE_REGISTRY["D106"]
    for module in project.modules:
        if not (in_sim_scope(module) or module.module.startswith(_HASH_SCOPE_EXTRA)):
            continue
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                yield module.finding(
                    rule_obj, node,
                    "builtin hash() changes across processes (PYTHONHASHSEED); "
                    "derive stable values with hashlib.sha256 as "
                    "repro.engine.rng does",
                )
