"""Single-experiment driver, replicate runs, and the train pipeline.

``run_experiment`` runs an :class:`ExperimentSpec` — on the flat kernel of
:mod:`repro.engine.batch` when that reproduces the spec bit-identically,
otherwise on a network + traffic generator built from it — and returns an
:class:`ExperimentResult` bundling the aggregate statistics, the raw latency
sample, and the binned time series needed by the convergence / dynamic-load
figures.

Learned-state lifecycle, on either engine: a spec with ``warm_start``
starts from a checkpoint's tables (see :mod:`repro.store`);
:func:`train_experiment` runs a spec and persists the learned state at the
horizon (memoized by spec fingerprint); a staged
:class:`~repro.scenarios.study.Study` feeds one such training run per
algorithm to every evaluation point instead of re-learning at each.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.experiments.options import RunOptions
from repro.faults.schedule import FaultSchedule
from repro.network.network import Network
from repro.network.params import NetworkParams
from repro.routing import ROUTING_REGISTRY, canonical_routing_name, make_routing
from repro.scenarios.serialize import (
    INTEGER,
    NON_NEGATIVE,
    POSITIVE,
    POSITIVE_FRACTION,
    SPEC_SCHEMA_VERSION,
    Codec,
    Form,
    Kwargs,
    _check_fields,
)
from repro.stats.collectors import RunStats, StatsCollector
from repro.topology.registry import config_to_dict
from repro.traffic import (
    PATTERN_REGISTRY,
    LoadSchedule,
    TrafficGenerator,
    canonical_pattern_name,
    make_pattern,
)
from repro.traffic.generator import check_arrival

if TYPE_CHECKING:  # runtime imports stay local: the store imports spec types
    from repro.store import ArtifactStore, Checkpoint

#: anything :func:`repro.store.resolve_store` accepts.
StoreLike = Union[None, str, "os.PathLike[str]", "ArtifactStore"]


@dataclass
class ExperimentSpec(Codec):
    """Complete description of one simulation run.

    Routing and pattern names are canonicalised against the registries on
    construction (``"qadp"`` → ``"Q-adp"``), so two specs that mean the same
    experiment serialize — and cache-fingerprint — identically regardless of
    the spelling they were written with.

    ``config`` is any registered topology config
    (:class:`~repro.topology.config.DragonflyConfig`,
    :class:`~repro.topology.fattree.FatTreeConfig`,
    :class:`~repro.topology.mesh.MeshConfig`, ...); it serializes under the
    ``topology`` key with an explicit ``family`` discriminator.
    """

    config: object
    routing: str = "MIN"
    pattern: str = "UR"
    offered_load: Optional[float] = 0.5
    schedule: Optional[LoadSchedule] = None
    sim_time_ns: float = 50_000.0
    warmup_ns: float = 25_000.0
    seed: int = 1
    routing_kwargs: Kwargs = field(default_factory=dict)
    pattern_kwargs: Kwargs = field(default_factory=dict)
    network_params: Optional[NetworkParams] = None
    arrival: str = "exponential"
    stats_bin_ns: float = 2_000.0
    label: Optional[str] = None
    #: path to a checkpoint directory (written by :mod:`repro.store`) whose
    #: learned state is restored into the routing algorithm before injection
    #: starts.  Folded into the serialized form and the cache fingerprint:
    #: warm-started runs never share cache entries with cold runs.
    warm_start: Optional[str] = None
    #: telemetry probes attached for the run (canonical names from
    #: :data:`repro.instrument.PROBE_REGISTRY`); their summaries land in
    #: ``result.telemetry``.  Folded into the serialized form and the cache
    #: fingerprint — a run with probes never shares a cache entry with one
    #: without (the cached payload differs), though the simulation itself is
    #: bit-identical either way.
    telemetry: Tuple[str, ...] = ()
    #: fault schedule injected into the run (see :mod:`repro.faults`): link /
    #: router failures and recoveries applied at fixed simulation times with
    #: degraded-mode routing in between.  Folded into the serialized form and
    #: the cache fingerprint — identical seeds plus an identical schedule
    #: reproduce a bit-identical fault timeline; ``None`` (the default) keeps
    #: the fault layer completely out of the simulation.
    faults: Optional[FaultSchedule] = None

    _NUMBERS = {"offered_load": POSITIVE_FRACTION.or_none(), "sim_time_ns": POSITIVE,
                "warmup_ns": NON_NEGATIVE, "seed": INTEGER, "stats_bin_ns": POSITIVE}
    #: a versioned document; the config is written under ``topology``, and a
    #: file states its routing, its pattern and a load or a schedule.
    _FORM = Form(schema=SPEC_SCHEMA_VERSION, keys={"config": "topology"},
                 required=("routing", "pattern", ("offered_load", "schedule")))

    def __post_init__(self) -> None:
        if self.schedule is not None:
            self.offered_load = None
        if self.offered_load is None and self.schedule is None:
            raise ValueError("an experiment needs an offered_load or a load schedule")
        _check_fields(self)
        check_arrival(self.arrival)
        if self.warmup_ns > self.sim_time_ns:
            raise ValueError(
                f"warmup_ns ({self.warmup_ns}) cannot exceed sim_time_ns "
                f"({self.sim_time_ns}); no measurement window would remain"
            )
        if self.warm_start is not None:
            try:
                self.warm_start = os.fspath(self.warm_start)
            except TypeError:
                raise ValueError(
                    f"warm_start must be a checkpoint path, got {self.warm_start!r}"
                ) from None
            if not isinstance(self.warm_start, str) or not self.warm_start:
                raise ValueError(
                    f"warm_start must be a non-empty checkpoint path, got "
                    f"{self.warm_start!r}"
                )
        self.routing = canonical_routing_name(self.routing)
        self.pattern = canonical_pattern_name(self.pattern)
        # Each factory's own keywords and number rules, read without building it.
        if self.routing_kwargs:
            self.routing_kwargs = ROUTING_REGISTRY.check_kwargs(
                self.routing, self.routing_kwargs, "ExperimentSpec")
        if self.pattern_kwargs:
            self.pattern_kwargs = PATTERN_REGISTRY.check_kwargs(
                self.pattern, self.pattern_kwargs, "ExperimentSpec")
        if self.telemetry or isinstance(self.telemetry, str):
            from repro.instrument.probes import canonical_telemetry

            self.telemetry = canonical_telemetry(self.telemetry)
        else:  # [] or None: the spec equals one without probes
            self.telemetry = ()
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ValueError(
                f"faults must be a FaultSchedule, got {type(self.faults).__name__}"
            )

    @property
    def display_name(self) -> str:
        if self.label:
            return self.label
        load = self.offered_load if self.offered_load is not None else "dyn"
        return f"{self.routing}/{self.pattern}@{load}"

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        return replace(self, **kwargs)


@dataclass
class ExperimentResult:
    """Everything measured in one run.

    ``latencies_ns`` (float64) and ``hops`` (int16) hold one entry per
    packet delivered in the measurement window, in delivery order, on both
    engines.
    """

    spec: ExperimentSpec
    stats: RunStats
    latencies_ns: np.ndarray
    hops: np.ndarray
    latency_timeline_us: Tuple[np.ndarray, np.ndarray]
    throughput_timeline: Tuple[np.ndarray, np.ndarray]
    routing_diagnostics: Dict
    wall_time_s: float
    #: ``{probe name: summary payload}`` of every probe named by
    #: ``spec.telemetry`` (empty when the run carried no probes).  Payloads
    #: are JSON-ready plain data — see :mod:`repro.instrument.probes`.
    telemetry: Dict[str, Dict] = field(default_factory=dict)

    @classmethod
    def from_collector(
        cls,
        spec: ExperimentSpec,
        collector: StatsCollector,
        stats: RunStats,
        diagnostics: Dict,
        wall_time_s: float = 0.0,
        telemetry: Optional[Dict[str, Dict]] = None,
    ) -> "ExperimentResult":
        """The result of a finished run, read off its finalized collector
        (the one assembly both engines share)."""
        if spec.warm_start is not None:
            diagnostics["warm_start"] = spec.warm_start
        return cls(
            spec=spec,
            stats=stats,
            latencies_ns=collector.latency_array_ns(),
            hops=collector.hops_array(),
            latency_timeline_us=(collector.latency_series.bin_times() / 1_000.0,
                                 collector.latency_series.means() / 1_000.0),
            throughput_timeline=(collector.delivery_series.bin_times() / 1_000.0,
                                 collector.throughput_series()),
            routing_diagnostics=diagnostics,
            wall_time_s=wall_time_s,
            telemetry=telemetry or {},
        )

    # ------------------------------------------------------------ convenience
    @property
    def mean_latency_us(self) -> float:
        return self.stats.mean_latency_ns / 1_000.0

    @property
    def p95_latency_us(self) -> float:
        return self.stats.latency.p95 / 1_000.0

    @property
    def p99_latency_us(self) -> float:
        return self.stats.latency.p99 / 1_000.0

    @property
    def throughput(self) -> float:
        return self.stats.throughput

    @property
    def mean_hops(self) -> float:
        return self.stats.mean_hops

    def summary_row(self) -> Dict[str, object]:
        """Flat dictionary used by the report tables (e.g. the ``headline`` study).

        Values are floats/ints except ``routing`` and ``pattern`` (names) and
        ``offered_load``, which is the string sentinel ``"dyn"`` for
        schedule-driven runs — they have no single offered load, and report
        cells must not be ``None``.
        """
        offered: object = self.spec.offered_load
        if offered is None:
            offered = "dyn"
        return {
            "routing": self.spec.routing,
            "pattern": self.spec.pattern,
            "offered_load": offered,
            "mean_latency_us": round(self.mean_latency_us, 3),
            "p95_latency_us": round(self.p95_latency_us, 3),
            "p99_latency_us": round(self.p99_latency_us, 3),
            "throughput": round(self.throughput, 4),
            "mean_hops": round(self.mean_hops, 3),
            "measured_packets": self.stats.measured_packets,
        }


def build_network(spec: ExperimentSpec) -> Tuple[Network, TrafficGenerator]:
    """Instantiate the network and the traffic generator described by ``spec``.

    When the spec names a ``warm_start`` checkpoint, the learned state is
    restored into the routing algorithm here — after the algorithm is
    attached (tables exist) but before any packet is injected — with the
    checkpoint's compatibility validated against the spec's topology and
    routing name first.
    """
    routing = make_routing(spec.routing, **spec.routing_kwargs)
    network = Network(
        spec.config,
        routing,
        params=spec.network_params,
        seed=spec.seed,
        warmup_ns=spec.warmup_ns,
        stats_bin_ns=spec.stats_bin_ns,
    )
    if spec.warm_start is not None:
        from repro.store import Checkpoint

        checkpoint = Checkpoint.load(spec.warm_start)
        checkpoint.check_compatible(spec.routing, config_to_dict(spec.config))
        checkpoint.apply(network.routing)
    if spec.faults is not None:
        from repro.faults.controller import FaultController

        FaultController(network, spec.faults).install()
    pattern = make_pattern(spec.pattern, **spec.pattern_kwargs)
    generator = TrafficGenerator(
        network,
        pattern,
        offered_load=spec.offered_load,
        schedule=spec.schedule,
        arrival=spec.arrival,
    )
    return network, generator


def _execute(spec: ExperimentSpec) -> Tuple[ExperimentResult, Network]:
    """Run one spec to completion on the object graph, the reference engine;
    returns the result and the finished network."""
    network, generator = build_network(spec)
    probes = {}
    if spec.telemetry:
        from repro.instrument import make_probe, probe_context

        probes = {name: make_probe(name) for name in spec.telemetry}
        logs = network.record_logs(log for probe in probes.values() for log in probe.logs)
    generator.start()
    started = time.perf_counter()
    network.run(until=spec.sim_time_ns)
    wall = time.perf_counter() - started
    stats = network.finalize()

    diagnostics: Dict = {}
    routing = network.routing
    if hasattr(routing, "decision_counts"):
        diagnostics.update(routing.decision_counts())
    if hasattr(routing, "total_table_memory_bytes"):
        diagnostics["table_memory_bytes"] = routing.total_table_memory_bytes()
    for attr in ("minimal_decisions", "nonminimal_decisions", "reevaluations",
                 "diverted_packets", "forced_minimal"):
        if hasattr(routing, attr):
            diagnostics[attr] = getattr(routing, attr)
    controller = getattr(network, "fault_controller", None)
    if controller is not None:
        diagnostics.update(controller.diagnostics())

    telemetry = {}
    if probes:
        context = probe_context(network)
        telemetry = {name: probe.summary(logs, context) for name, probe in probes.items()}
    result = ExperimentResult.from_collector(
        spec, network.collector, stats, diagnostics, wall_time_s=wall, telemetry=telemetry)
    return result, network


def _run(spec: ExperimentSpec, store: Optional["ArtifactStore"] = None,
         name: Optional[str] = None) -> Tuple[ExperimentResult, Optional["Checkpoint"]]:
    """Run one spec on the flat kernel as a batch of one when it accepts the
    spec, else on the object graph; ``wall_time_s`` is the drain alone.  With
    a ``store``, save the learned state at the horizon there (checkpoint
    ``name``; its path lands in ``routing_diagnostics["checkpoint"]``)."""
    from repro.engine.batch import BatchSimulation, UnsupportedByBackend

    batch = None
    try:
        batch = BatchSimulation(spec, [spec.seed])
    except UnsupportedByBackend:
        result, network = _execute(spec)
    else:
        started = time.perf_counter()
        batch.run()
        wall = time.perf_counter() - started
        result = batch.results()[0]
        result.wall_time_s = wall
    if store is None:
        return result, None
    state = network.routing.export_state() if batch is None else batch.export_states()[0]
    checkpoint = store.save(state, trained_sim_ns=spec.sim_time_ns, spec=spec, name=name)
    result.routing_diagnostics["checkpoint"] = str(checkpoint.path)
    return result, checkpoint


def _check_save_request(spec: ExperimentSpec, name: Optional[str], action: str,
                        caller: str) -> None:
    # Fail before simulating, not after paying for the whole run.
    from repro.engine.batch.model import is_learned
    from repro.store import ArtifactStore

    if not is_learned(spec.routing):
        raise ValueError(
            f"routing {spec.routing!r} has no learned state to {action}; "
            f"{caller} only makes sense for Q-adp / Q-routing"
        )
    if name is not None:
        ArtifactStore.validate_id(name)


def run_experiment(
    spec: ExperimentSpec,
    *,
    save_state: Optional[str] = None,
    store: StoreLike = None,
) -> ExperimentResult:
    """Run one experiment to completion and collect its results.

    The engine is chosen by capability, not by option: a spec the flat kernel
    (:mod:`repro.engine.batch`) reproduces bit-identically — training, warm
    starts and ``save_state`` included — runs there as a batch of one;
    anything it refuses (telemetry, faults) runs on the object-graph engine.
    Results are identical either way.  A learned routing refuses, on either
    engine, a topology with a network port outside its ``table_port_span()``.

    ``save_state`` persists the learned routing state after the run as a
    checkpoint of that name in ``store`` (an
    :class:`~repro.store.ArtifactStore`, a directory path, or ``None`` for
    the default store); the checkpoint path lands in
    ``result.routing_diagnostics["checkpoint"]``.  Requesting it for an
    algorithm without learned state is an error.
    """
    if save_state is None:
        return _run(spec)[0]
    from repro.store import resolve_store

    _check_save_request(spec, save_state, "checkpoint", "save_state")
    return _run(spec, resolve_store(store), save_state)[0]


def run_replicates(
    spec: ExperimentSpec,
    replicates: Optional[int] = None,
    *,
    seeds: Optional[Sequence[int]] = None,
    options: Optional[RunOptions] = None,
) -> List["ExperimentResult"]:
    """Run one spec under many seeds; results are ordered like the seeds.

    The seed list comes from ``seeds`` verbatim, or is derived from
    ``spec.seed`` with :func:`repro.engine.rng.derive_replicate_seeds` when
    only a ``replicates`` count is given (index 0 keeps the base seed, so a
    single replicate is exactly ``run_experiment(spec)``).

    ``options.backend`` selects how the replicates are grouped:

    * ``"scalar"`` (default) — one :func:`run_experiment` call per seed,
      serially, each picking its engine by capability;
    * ``"batched"`` — the seeds run concurrently through
      :mod:`repro.engine.batch`, one job per seed on up to one worker per
      CPU; per-replicate results are bit-identical to the per-seed calls', or
      the spec is refused with
      :class:`~repro.engine.batch.errors.UnsupportedByBackend` (a
      ``ValueError``) — no fallback.  ``wall_time_s`` is then the batch wall
      time split evenly over the replicates (the seeds run concurrently;
      per-replicate wall time has no scalar-equivalent meaning).

    Nothing is checkpointed: replicates would race for one checkpoint name.
    Checkpoint a dedicated :func:`train_experiment` run instead.
    """
    if seeds is None:
        if replicates is None:
            raise ValueError("pass a replicate count or an explicit seed list")
        from repro.engine.rng import derive_replicate_seeds

        seeds = derive_replicate_seeds(spec.seed, replicates)
    elif replicates is not None and replicates != len(seeds):
        raise ValueError(
            f"replicates={replicates} contradicts len(seeds)={len(seeds)}"
        )
    seeds = list(seeds)
    if options is not None and options.backend == "batched":
        from repro.engine.batch import run_batch

        started = time.perf_counter()
        results = run_batch(spec, seeds)
        wall = time.perf_counter() - started
        share = wall / len(results) if results else 0.0
        for result in results:
            result.wall_time_s = share
        return results
    return [run_experiment(spec.with_overrides(seed=seed)) for seed in seeds]


@dataclass
class TrainResult:
    """Outcome of :func:`train_experiment`.

    ``result`` is ``None`` when the store already held a checkpoint for the
    training spec (``reused=True``) — no simulation ran.
    """

    checkpoint: "object"
    result: Optional[ExperimentResult]
    reused: bool


def train_experiment(
    spec: ExperimentSpec,
    *,
    save_state: Optional[str] = None,
    store: StoreLike = None,
    reuse: bool = True,
) -> TrainResult:
    """Run a training spec and persist its learned state as a checkpoint.

    Training is memoized through the store: when ``reuse`` is true (the
    default) and a checkpoint whose manifest records this spec's fingerprint
    already exists, it is returned without simulating — the checkpoint store
    plays the same role for learned state that the result cache plays for
    measurements.  ``save_state`` is the checkpoint id (``None``: derived
    from the spec) and ``store`` the artifact store it is saved in.
    """
    from repro.experiments.parallel import spec_fingerprint
    from repro.store import resolve_store

    _check_save_request(spec, save_state, "train", "train_experiment")
    artifacts = resolve_store(store)
    fingerprint = spec_fingerprint(spec)
    if reuse:
        existing = artifacts.find_by_fingerprint(fingerprint)
        if existing is not None:
            if save_state is None or existing.checkpoint_id == save_state:
                return TrainResult(checkpoint=existing, result=None, reused=True)
            # Same training spec requested under a new id: re-save the stored
            # state under that name instead of re-simulating (the copies are
            # byte-identical, so sharing a fingerprint is harmless).
            checkpoint = artifacts.save(
                existing.state(),
                trained_sim_ns=existing.manifest.trained_sim_ns,
                spec=spec,
                name=save_state,
            )
            return TrainResult(checkpoint=checkpoint, result=None, reused=True)
    result, checkpoint = _run(spec, artifacts, save_state)
    return TrainResult(checkpoint=checkpoint, result=result, reused=False)
