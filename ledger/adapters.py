"""The only module of the ledger that imports ``repro``.

It runs inside a fresh child process (see :mod:`ledger.child`) and measures
every layer from outside: ``time.perf_counter`` spans around calls into the
layers' public functions and, in the traced run only, a ``cProfile`` pass
over the opaque drain.  Nothing under ``src/`` is edited or patched.

The end-to-end path needs only the exports of ``repro.experiments`` and
``repro.engine.batch`` imported at the top of this file (the sweep also needs
``fig5_study`` to know its cache keys).  Every deeper probe imports what it
needs inside a function run by :meth:`Layers.probe`, so a later PR that
removes a function turns that layer's metrics into ``null`` with a reason
instead of breaking the run.

Q-tables start cold (the uncongested initial values): the learning transient
is when feedback traffic peaks, and it is what a user pays on every run.
"""

from __future__ import annotations

import cProfile
import os
import pickle
import platform
import pstats
import resource
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy

from ledger.metrics import PER_LAYER
from ledger.spans import Tracer
from ledger.workloads import SWEEP_WORKERS
from repro import DragonflyConfig
from repro.engine.batch import BatchSimulation
from repro.engine.rng import derive_replicate_seeds
from repro.experiments import (
    ExperimentResult,
    ExperimentResultData,
    ExperimentScale,
    ExperimentSpec,
    ResultCache,
    RunOptions,
    SweepRunner,
    figure5_sweep,
    run_experiment,
    run_replicates,
    spec_fingerprint,
)
from repro.experiments.harness import build_network

#: passes of a cheap probe (fingerprint, pickle, cache I/O); the median is kept.
PROBE_PASSES = 5

#: source directory -> layer, first match wins (``core`` is the learned routing).
_LAYER_OF_DIR = (
    ("repro/engine/batch/", "batch"),
    ("repro/engine/", "engine"),
    ("repro/network/", "network"),
    ("repro/routing/", "routing"),
    ("repro/core/", "routing"),
    ("repro/traffic/", "traffic"),
    ("repro/stats/", "stats"),
    ("repro/topology/", "topology"),
)
_CALENDAR_BUILTINS = ("insort", "'sort' of 'list'")
_MINIMAL_KEYS = ("source_minimal", "intermediate_minimal", "minimal_decisions")
_NONMINIMAL_KEYS = ("source_best", "intermediate_reroutes", "nonminimal_decisions")


# ------------------------------------------------------------------ plain data
def machine_block() -> Dict:
    """Versions every host-time number is only interpretable against."""
    try:
        import numba  # type: ignore[import-not-found]
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "platform": platform.platform(),
    }


def fingerprint(stats: object, events: Optional[int]) -> Dict:
    """Simulated statistics of one result (same keys as BENCH_core.json).

    Machine independent: every value must repeat bit for bit, so these are
    checks, never metrics.  ``events`` is ``None`` where the producer cannot
    know it (results that came back from pool workers).
    """
    return {
        "events_processed": events,
        "generated_packets": stats.generated_packets,
        "delivered_packets": stats.delivered_packets,
        "measured_packets": stats.measured_packets,
        "mean_latency_ns": stats.mean_latency_ns,
        "mean_hops": stats.mean_hops,
        "throughput": stats.throughput,
        "latency_p99_ns": stats.latency.p99,
    }


def same_fingerprint(a: Dict, b: Dict) -> bool:
    """Equal on every field both sides know."""
    return all(a[key] == b[key] for key in a
               if a[key] is not None and b.get(key) is not None)


def _config(pah: Sequence[int]) -> DragonflyConfig:
    return DragonflyConfig(p=pah[0], a=pah[1], h=pah[2])


def _spec(params: Dict, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        config=_config(params["config"]),
        routing=params["routing"],
        pattern=params["pattern"],
        offered_load=params["offered_load"],
        sim_time_ns=params["sim_time_ns"],
        warmup_ns=params["warmup_ns"],
        seed=seed,
    )


def _fig5_inputs(params: Dict, seed: int) -> Tuple[ExperimentScale, Tuple, Tuple]:
    config = _config(params["config"])
    ur_loads = tuple(params["ur_loads"])
    adv_loads = tuple(params["adv_loads"])
    scale = ExperimentScale(
        name="ledger-fig5",
        config=config,
        scaleup_config=config,
        warmup_ns=params["warmup_ns"],
        measure_ns=params["measure_ns"],
        convergence_ns=params["warmup_ns"] + params["measure_ns"],
        ur_loads=ur_loads,
        adv_loads=adv_loads,
        ur_reference_load=ur_loads[-1],
        adv_reference_load=adv_loads[-1],
        seed=seed,
    )
    return scale, tuple(params["algorithms"]), tuple(params["patterns"])


def _fig5_specs(inputs: Tuple[ExperimentScale, Tuple, Tuple]) -> List[ExperimentSpec]:
    """The sweep's specs, in the order ``figure5_sweep`` runs and caches them."""
    from repro.scenarios.catalog import fig5_study

    return fig5_study(*inputs).specs()


def _package(results: Sequence[ExperimentResult]) -> Tuple[List, List[bytes]]:
    """What a pool worker ships and the cache stores, for every result."""
    datas = [ExperimentResultData.from_result(result) for result in results]
    return datas, [pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL) for d in datas]


# --------------------------------------------------------------- timed region
@dataclass
class Outcome:
    """What one pass over a workload produced."""

    datas: List[ExperimentResultData]
    blobs: List[bytes]
    #: scalar-equivalent events per result; ``None`` when the pass cannot know.
    events: List[Optional[int]]
    #: span holding the drain (the denominator of ``events_per_s``).
    drain_span: str
    usage: Dict[str, float] = field(default_factory=dict)
    #: workload-level check failures found while running.
    failures: List[str] = field(default_factory=list)
    #: objects the traced probes read exact counts from.
    extras: Dict = field(default_factory=dict)


def _cpu_and_rss() -> Tuple[float, float]:
    """CPU seconds and peak RSS in MB of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, max(own.ru_maxrss, children.ru_maxrss) / 1024.0


@contextmanager
def _region(tr: Tracer, usage: Dict[str, float]) -> Iterator[None]:
    """The ``wall_s`` region: root span plus CPU and peak RSS over it."""
    cpu_before, _ = _cpu_and_rss()
    with tr.span("workload"):
        yield
    cpu_after, usage["peak_rss_mb"] = _cpu_and_rss()
    usage["cpu_s"] = cpu_after - cpu_before


def _assemble_scalar(spec: ExperimentSpec, network: object, stats: object,
                     drain_s: float) -> ExperimentResult:
    """The result ``run_experiment`` would return for this finished network.

    Mirrors the assembly in ``repro.experiments.harness``; the traced run
    checks it against a plain ``run_experiment`` call byte for byte.
    """
    collector = network.collector
    routing = network.routing
    diagnostics: Dict = {}
    if hasattr(routing, "decision_counts"):
        diagnostics.update(routing.decision_counts())
    if hasattr(routing, "total_table_memory_bytes"):
        diagnostics["table_memory_bytes"] = routing.total_table_memory_bytes()
    for attr in ("minimal_decisions", "nonminimal_decisions", "reevaluations",
                 "diverted_packets", "forced_minimal"):
        if hasattr(routing, attr):
            diagnostics[attr] = getattr(routing, attr)
    return ExperimentResult(
        spec=spec,
        stats=stats,
        latencies_ns=collector.latency_array_ns(),
        hops=collector.hops_array(),
        latency_timeline_us=(collector.latency_series.bin_times() / 1_000.0,
                             collector.latency_series.means() / 1_000.0),
        throughput_timeline=(collector.delivery_series.bin_times() / 1_000.0,
                             collector.throughput_series()),
        routing_diagnostics=diagnostics,
        wall_time_s=drain_s,
        telemetry={},
    )


def run_scalar(params: Dict, seed: int, tr: Tracer, traced: bool) -> Outcome:
    spec = _spec(params, seed)
    usage: Dict[str, float] = {}
    with _region(tr, usage):
        with tr.span("setup"):
            if traced:
                # The topology is cached per process, so building it first
                # splits build_network's cost without adding work.
                try:
                    from repro.topology.registry import topology_for
                except ImportError:
                    pass
                else:
                    with tr.span("topology.build"):
                        topology_for(spec.config)
            with tr.span("network.build"):
                network, generator = build_network(spec)
            with tr.span("traffic.build"):
                generator.start()
        with tr.span("engine.drain"):
            network.run(until=spec.sim_time_ns)
        with tr.span("stats.finalize"):
            stats = network.finalize()
        with tr.span("harness.assemble"):
            result = _assemble_scalar(spec, network, stats, tr.seconds("engine.drain"))
        with tr.span("parallel.package"):
            datas, blobs = _package([result])
    return Outcome(datas, blobs, [network.sim.events_processed], "engine.drain",
                   usage, extras={"network": network, "specs": [spec]})


def run_batched(params: Dict, seed: int, tr: Tracer) -> Outcome:
    spec = _spec(params, seed)
    seeds = derive_replicate_seeds(seed, params["replicates"])
    usage: Dict[str, float] = {}
    with _region(tr, usage):
        with tr.span("setup"), tr.span("batch.construct"):
            sim = BatchSimulation(spec, seeds)
        with tr.span("batch.drain"):
            sim.run()
        with tr.span("batch.assemble"):
            results = sim.results()
        with tr.span("parallel.package"):
            datas, blobs = _package(results)
    return Outcome(datas, blobs, list(sim.events_processed()), "batch.drain",
                   usage, extras={"specs": [spec], "seeds": seeds})


def run_sweep(params: Dict, seed: int, tr: Tracer, scratch: str) -> Outcome:
    inputs = _fig5_inputs(params, seed)
    usage: Dict[str, float] = {}
    failures: List[str] = []
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as cache_dir:
        with _region(tr, usage):
            with tr.span("setup"):
                with tr.span("scenarios.expand"):
                    specs = _fig5_specs(inputs)
                with tr.span("parallel.fingerprint"):
                    keys = [spec_fingerprint(spec) for spec in specs]
                with tr.span("parallel.runner"):
                    runner = SweepRunner(workers=SWEEP_WORKERS, cache_dir=cache_dir)
            with tr.span("parallel.cold"):
                cold = figure5_sweep(*inputs, runner=runner)
            counted = (runner.simulated, runner.cache_hits)
            with tr.span("parallel.warm"):
                warm = figure5_sweep(*inputs, runner=runner)
        runs = len(specs)
        if counted != (runs, 0):
            failures.append(f"cold call simulated/hit {counted}, expected ({runs}, 0)")
        if (runner.simulated, runner.cache_hits) != (runs, runs):
            failures.append(f"warm call left simulated/hits at "
                            f"{(runner.simulated, runner.cache_hits)}, "
                            f"expected ({runs}, {runs})")
        if warm != cold:
            failures.append("warm figure differs from the cold figure")
        cache = ResultCache(cache_dir)
        datas = [cache.get(key) for key in keys]
        if any(data is None for data in datas):
            raise RuntimeError("the sweep left a spec out of its cache")
        cache_bytes = sum(
            os.path.getsize(os.path.join(cache_dir, name))
            for name in os.listdir(cache_dir)
        )
    blobs = [pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL) for d in datas]
    return Outcome(datas, blobs, [None] * runs, "parallel.cold", usage, failures,
                   extras={"specs": specs, "cache_bytes": cache_bytes,
                           "simulated": runner.simulated,
                           "cache_hits": runner.cache_hits})


def _run(workload: Dict, seed: int, tr: Tracer, traced: bool, scratch: str) -> Outcome:
    kind = workload["kind"]
    if kind == "scalar":
        return run_scalar(workload["params"], seed, tr, traced)
    if kind == "batched":
        return run_batched(workload["params"], seed, tr)
    if kind == "sweep":
        return run_sweep(workload["params"], seed, tr, scratch)
    raise ValueError(f"unknown workload kind {kind!r}")


# ------------------------------------------------------------------ reference
def _serial_pass(specs: Sequence[ExperimentSpec],
                 profile: Optional[cProfile.Profile] = None) -> List[Dict]:
    """Every spec through the scalar engine, in this process, one by one."""
    fingerprints = []
    for spec in specs:
        network, generator = build_network(spec)
        generator.start()
        if profile is None:
            network.run(until=spec.sim_time_ns)
        else:
            profile.runcall(network.run, until=spec.sim_time_ns)
        fingerprints.append(fingerprint(network.finalize(), network.sim.events_processed))
    return fingerprints


def _reference_specs(workload: Dict, seed: int) -> List[ExperimentSpec]:
    """The specs whose scalar-engine result the workload must reproduce."""
    if workload["kind"] == "batched":
        return [_spec(workload["params"], seed)]  # replicate 0 keeps the base seed
    if workload["kind"] == "sweep":
        return _fig5_specs(_fig5_inputs(workload["params"], seed))
    return []


def reference(workload: Dict, seed: int) -> Dict:
    """Scalar-engine fingerprints of the leading results of a workload.

    Valid on every seed, unlike the pins: the batched engine and the pool must
    reproduce them bit for bit.  ``wall_s`` is the serial time of the pass
    (the sweep's no-pool, no-cache baseline).
    """
    specs = _reference_specs(workload, seed)
    started = time.perf_counter()
    fingerprints = _serial_pass(specs)
    return {"fingerprints": fingerprints, "wall_s": time.perf_counter() - started}


# --------------------------------------------------------------------- checks
def _check(outcome: Outcome, fingerprints: List[Dict], ref: Optional[Dict],
           pins: Optional[List[Dict]]) -> List[List]:
    """``[result index or -1, message]`` for every failed correctness check."""
    failures: List[List] = [[-1, message] for message in outcome.failures]
    for index, fp in enumerate(fingerprints):
        if not 1 <= fp["measured_packets"] <= fp["delivered_packets"] \
                <= fp["generated_packets"]:
            failures.append([index, "measured <= delivered <= generated violated"])
        if not 0.0 < fp["throughput"] <= 1.0:
            failures.append([index, f"throughput {fp['throughput']} outside (0, 1]"])
    if ref is not None:
        for index, expected in enumerate(ref["fingerprints"]):
            if not same_fingerprint(fingerprints[index], expected):
                failures.append([index, "differs from the scalar-engine reference"])
    if pins is not None:
        if len(pins) != len(fingerprints):
            failures.append([-1, f"{len(fingerprints)} results, {len(pins)} pinned"])
        for index, (fp, pin) in enumerate(zip(fingerprints, pins, strict=False)):
            if not same_fingerprint(fp, pin):
                failures.append([index, "differs from ledger/expected.json"])
    return failures


# --------------------------------------------------------------------- probes
def _timed(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _median_pass(fn: Callable[[], object]) -> float:
    return median(_timed(fn) for _ in range(PROBE_PASSES))


def _layer_of(filename: str) -> str:
    normalized = filename.replace(os.sep, "/")
    for fragment, layer in _LAYER_OF_DIR:
        if fragment in normalized:
            return layer
    return "other"


def profile_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time of a profiled drain by layer, as shares of the total.

    Source files map to layers by directory; a builtin's time goes to the
    layer of each caller (heapq under ``engine``, insort/sort under
    ``batch``).  cProfile charges every call but not the work inside native
    code, so these are proportions to find candidates with, not timings.
    """
    by_layer: Dict[str, float] = {}
    advance = calendar = 0.0
    for (filename, _line, name), row in pstats.Stats(profile).stats.items():
        own, callers = row[2], row[4]
        if filename == "~":
            for caller, caller_row in callers.items():
                layer = _layer_of(caller[0])
                by_layer[layer] = by_layer.get(layer, 0.0) + caller_row[2]
                if layer == "batch" and any(b in name for b in _CALENDAR_BUILTINS):
                    calendar += caller_row[2]
        else:
            layer = _layer_of(filename)
            by_layer[layer] = by_layer.get(layer, 0.0) + own
            if name == "_advance":
                advance += own
    total = sum(by_layer.values()) or 1.0
    shares = {f"{layer}.profiled_share": by_layer.get(layer, 0.0) / total
              for layer in ("network", "engine", "routing", "traffic", "stats")}
    shares["batch.advance_self_share"] = advance / total
    shares["batch.calendar_share"] = calendar / total
    return shares


class Layers:
    """Per-layer metrics of one traced repeat: value, or ``None`` + reason."""

    def __init__(self, kind: str) -> None:
        self.values: Dict[str, Optional[float]] = {m.name: None for m in PER_LAYER}
        self.reasons: Dict[str, str] = {
            m.name: f"not measured on {kind} workloads" for m in PER_LAYER}

    def update(self, values: Dict[str, float]) -> None:
        for name, value in values.items():
            self.put(name, value)

    def put(self, name: str, value: Optional[float], reason: str = "") -> None:
        if name not in self.values:
            raise KeyError(f"undeclared layer metric {name!r}")
        self.values[name] = None if value is None else float(value)
        if value is None:
            self.reasons[name] = reason
        else:
            self.reasons.pop(name, None)

    def probe(self, names: Sequence[str], fn: Callable[[], Dict[str, float]]) -> None:
        """Run one deep-layer probe; a removed function nulls only its metrics."""
        try:
            measured = fn()
        except (ImportError, AttributeError, TypeError) as exc:
            for name in names:
                self.put(name, None, f"probe failed: {type(exc).__name__}: {exc}")
            return
        for name in names:
            self.put(name, measured[name])


def _common_layers(layers: Layers, tr: Tracer, outcome: Outcome,
                   fingerprints: List[Dict]) -> None:
    """Exact counts and cheap probes every workload kind reports."""
    first = fingerprints[0]
    events = sum(fp["events_processed"] or 0 for fp in fingerprints)
    delivered = sum(fp["delivered_packets"] for fp in fingerprints)
    diagnostics = [data.routing_diagnostics for data in outcome.datas]
    minimal = sum(d.get(k, 0) for d in diagnostics for k in _MINIMAL_KEYS)
    nonminimal = sum(d.get(k, 0) for d in diagnostics for k in _NONMINIMAL_KEYS)
    decisions = minimal + nonminimal
    layers.update({
        "engine.events": events,
        "network.packets_generated": sum(fp["generated_packets"] for fp in fingerprints),
        "network.packets_delivered": delivered,
        "network.events_per_packet": events / delivered,
        "stats.measured_packets": sum(fp["measured_packets"] for fp in fingerprints),
        "routing.decisions": decisions,
        "routing.nonminimal_share": nonminimal / decisions if decisions else 0.0,
        "routing.feedback_sent": sum(d.get("feedback_sent", 0) for d in diagnostics),
        "routing.feedback_applied": sum(d.get("feedback_applied", 0)
                                        for d in diagnostics),
        "model.mean_latency_ns": first["mean_latency_ns"],
        "model.p99_latency_ns": first["latency_p99_ns"],
        "model.throughput": first["throughput"],
        "model.mean_hops": first["mean_hops"],
        "parallel.package_s": tr.seconds("parallel.package"),
    })
    tables = [d["table_memory_bytes"] for d in diagnostics if "table_memory_bytes" in d]
    layers.put("core.qtable_bytes", max(tables) if tables else None,
               "the routing keeps no Q-table")
    spec = outcome.extras["specs"][0]
    blobs = outcome.blobs
    layers.update({
        "parallel.fingerprint_s": _median_pass(lambda: spec_fingerprint(spec)),
        "parallel.unpickle_s": _median_pass(lambda: [pickle.loads(b) for b in blobs]),
    })


def _same_payloads(datas: Sequence[ExperimentResultData],
                   others: Sequence[ExperimentResultData]) -> bool:
    """Byte-equal once the host-time stamp is taken out."""
    for data in list(datas) + list(others):
        data.wall_time_s = 0.0
    return [pickle.dumps(d) for d in datas] == [pickle.dumps(d) for d in others]


def _profile_scalar_drain(layers: Layers, specs: Sequence[ExperimentSpec]) -> None:
    """A second, profiled pass over the scalar drain: the ``*_share`` metrics."""
    profile = cProfile.Profile()
    _serial_pass(specs, profile)
    shares = profile_shares(profile)
    layers.update({name: shares[name] for name in shares if not name.startswith("batch.")})


def _scalar_layers(layers: Layers, tr: Tracer, outcome: Outcome) -> List[str]:
    spec = outcome.extras["specs"][0]
    network = outcome.extras["network"]
    events = outcome.events[0]
    layers.update({
        "topology.build_s": tr.seconds("topology.build"),
        "network.build_s": tr.seconds("network.build"),
        "traffic.build_s": tr.seconds("traffic.build"),
        "engine.drain_s": tr.seconds("engine.drain"),
        "engine.us_per_event": tr.seconds("engine.drain") / events * 1e6,
        "stats.finalize_s": tr.seconds("stats.finalize"),
        "harness.build_network_s": (tr.seconds("topology.build")
                                    + tr.seconds("network.build")),
    })

    def calendar() -> Dict[str, float]:
        queue = network.sim._queue
        return {"engine.cancelled_events": queue.cancelled_events,
                "engine.compactions": queue.compactions}

    layers.probe(("engine.cancelled_events", "engine.compactions"), calendar)

    started = time.perf_counter()
    user_datas, _ = _package([run_experiment(spec)])
    layers.put("harness.user_path_s", time.perf_counter() - started)
    failures = []
    if not _same_payloads(outcome.datas, user_datas):
        failures.append("the phase path and run_experiment disagree")

    _profile_scalar_drain(layers, [spec])
    return failures


def _batched_layers(layers: Layers, tr: Tracer, outcome: Outcome) -> List[str]:
    spec = outcome.extras["specs"][0]
    seeds = outcome.extras["seeds"]
    events = sum(outcome.events)
    layers.update({
        "batch.construct_s": tr.seconds("batch.construct"),
        "batch.drain_s": tr.seconds("batch.drain"),
        "batch.us_per_event": tr.seconds("batch.drain") / events * 1e6,
        "batch.assemble_s": tr.seconds("batch.assemble"),
        "batch.replicates": len(seeds),
        "batch.jit_engaged": float(all(
            data.routing_diagnostics.get("jit_engaged", False)
            for data in outcome.datas)),
    })

    started = time.perf_counter()
    user_datas, _ = _package(run_replicates(
        spec, seeds=seeds, options=RunOptions(backend="batched")))
    layers.put("harness.user_path_s", time.perf_counter() - started)
    failures = []
    if not _same_payloads(outcome.datas, user_datas):
        failures.append("the phase path and run_replicates disagree")

    def kernel_pass() -> Dict[str, float]:
        from repro.engine.batch import build_model
        from repro.engine.batch.kernel import BatchKernel
        from repro.stats.collectors import StatsCollector

        until = spec.sim_time_ns
        started = time.perf_counter()
        model = build_model(spec)
        model_build_s = time.perf_counter() - started
        kernel = BatchKernel(model, seeds)
        profile = cProfile.Profile()
        profile.runcall(kernel.run, until, slices=1)
        finalize_s = _timed(lambda: kernel.finalize(until))
        executed = sum(state.executed for state in kernel.states)
        elided = sum(state.elided for state in kernel.states)

        def replay() -> None:
            for state in kernel.states:
                collector = StatsCollector(
                    warmup_ns=spec.warmup_ns,
                    bin_ns=spec.stats_bin_ns,
                    num_nodes=model.num_nodes,
                    node_bandwidth_bytes_per_ns=model.params.link_bandwidth_bytes_per_ns,
                )
                collector.replay_generated(state.glog)
                collector.replay_deliveries(state.dlog, model.params.packet_bytes)
                collector.finalize(until)

        shares = profile_shares(profile)
        return {
            "batch.model_build_s": model_build_s,
            "batch.finalize_s": finalize_s,
            "batch.events_executed": executed,
            "batch.events_elided": elided,
            "batch.elided_share": elided / (executed + elided),
            "batch.advance_self_share": shares["batch.advance_self_share"],
            "batch.calendar_share": shares["batch.calendar_share"],
            "stats.replay_s": _timed(replay),
        }

    layers.probe(("batch.model_build_s", "batch.finalize_s", "batch.events_executed",
                  "batch.events_elided", "batch.elided_share",
                  "batch.advance_self_share", "batch.calendar_share",
                  "stats.replay_s"), kernel_pass)

    def traces() -> Dict[str, float]:
        from repro.engine.batch import build_model
        from repro.engine.batch.trace import record_traffic_trace
        from repro.traffic import make_pattern

        model = build_model(spec)

        def record() -> None:
            for seed in seeds:
                record_traffic_trace(
                    model.topo, model.params,
                    make_pattern(spec.pattern, **spec.pattern_kwargs), seed,
                    spec.offered_load, spec.schedule, spec.arrival, spec.sim_time_ns)

        return {"traffic.trace_s": _timed(record)}

    layers.probe(("traffic.trace_s",), traces)
    return failures


def _sweep_layers(layers: Layers, tr: Tracer, outcome: Outcome, ref: Dict,
                  scratch: str) -> List[str]:
    datas = outcome.datas
    job_walls = [data.wall_time_s for data in datas]
    cold = tr.seconds("parallel.cold")
    layers.update({
        "scenarios.expand_s": tr.seconds("scenarios.expand"),
        "parallel.fingerprint_s": tr.seconds("parallel.fingerprint"),
        "parallel.package_s": _median_pass(lambda: [
            pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL) for d in datas]),
        "parallel.cold_wall_s": cold,
        "parallel.warm_wall_s": tr.seconds("parallel.warm"),
        "parallel.serial_wall_s": ref["wall_s"],
        "parallel.job_wall_sum_s": sum(job_walls),
        "parallel.slowest_job_s": max(job_walls),
        "parallel.simulated": outcome.extras["simulated"],
        "parallel.cache_hits": outcome.extras["cache_hits"],
        "parallel.cache_bytes": outcome.extras["cache_bytes"],
        "harness.user_path_s": cold + tr.seconds("parallel.warm"),
    })
    if (os.cpu_count() or 1) >= SWEEP_WORKERS:
        layers.update({
            "parallel.speedup": ref["wall_s"] / cold,
            "parallel.scaling_efficiency": ref["wall_s"] / cold / SWEEP_WORKERS,
        })
    else:
        for name in ("parallel.speedup", "parallel.scaling_efficiency"):
            layers.put(name, None, f"nproc < {SWEEP_WORKERS}: the pool cannot speed up")

    def cache_io() -> Dict[str, float]:
        def one_pass() -> Tuple[float, float]:
            with tempfile.TemporaryDirectory(dir=scratch) as directory:
                cache = ResultCache(directory)
                put_s = _timed(lambda: [cache.put(str(i), d) for i, d in enumerate(datas)])
                get_s = _timed(lambda: [cache.get(str(i)) for i in range(len(datas))])
            return put_s, get_s

        passes = [one_pass() for _ in range(PROBE_PASSES)]
        return {"parallel.cache_put_s": median(p[0] for p in passes),
                "parallel.cache_get_s": median(p[1] for p in passes)}

    layers.probe(("parallel.cache_put_s", "parallel.cache_get_s"), cache_io)

    _profile_scalar_drain(layers, outcome.extras["specs"])
    return []


# ---------------------------------------------------------------- entry point
def measure(request: Dict, import_s: float) -> Dict:
    """One repeat of one workload: end-to-end metrics, checks, and (traced) layers."""
    workload = request["workload"]
    seed = request["seed"]
    traced = request["traced"]
    ref = request.get("reference")
    scratch = request["scratch"]
    tr = Tracer()
    outcome = _run(workload, seed, tr, traced, scratch)

    events = list(outcome.events)
    if ref is not None:  # fill in what pool workers could not report
        for index, expected in enumerate(ref["fingerprints"]):
            if events[index] is None:
                events[index] = expected["events_processed"]
    fingerprints = [fingerprint(data.stats, count)
                    for data, count in zip(outcome.datas, events, strict=True)]
    failures = _check(outcome, fingerprints, ref, request.get("pins"))

    report = {
        "metrics": {
            "wall_s": tr.seconds("workload"),
            "cpu_s": outcome.usage["cpu_s"],
            "setup_s": tr.seconds("setup"),
            "events_per_s": sum(events) / tr.seconds(outcome.drain_span),
            "peak_rss_mb": outcome.usage["peak_rss_mb"],
            "result_bytes": sum(len(blob) for blob in outcome.blobs),
        },
        "fingerprints": fingerprints,
        "machine": machine_block(),
    }
    if traced:
        layers = Layers(workload["kind"])
        layers.put("harness.import_s", import_s)
        _common_layers(layers, tr, outcome, fingerprints)
        if workload["kind"] == "scalar":
            extra = _scalar_layers(layers, tr, outcome)
        elif workload["kind"] == "batched":
            extra = _batched_layers(layers, tr, outcome)
        else:
            extra = _sweep_layers(layers, tr, outcome, ref, scratch)
        failures.extend([-1, message] for message in extra)
        report["layers"] = layers.values
        report["reasons"] = layers.reasons
        report["spans"] = tr.spans
    report["failures"] = failures
    return report
