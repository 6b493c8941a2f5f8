"""Declarative scenario grids: :class:`Scenario` and :class:`Study`.

A :class:`Scenario` is one named grid — routing × pattern × load × seed
replicates, plus per-scenario overrides (a different topology, a load
schedule, routing hyper-parameters, a finer stats bin).  A :class:`Study`
composes scenarios with shared defaults, expands them deterministically into
:class:`~repro.experiments.harness.ExperimentSpec` instances, and runs them
through a :class:`~repro.experiments.parallel.SweepRunner` — so a study gets
worker-pool fan-out and on-disk memoization for free, and its cache entries
are shared with every other path that builds the same specs (the CLI,
hand-written code).

Studies serialize to JSON/YAML documents (``to_dict``/``from_dict``,
``save``/``load``): the whole paper evaluation can be expressed, versioned
and shipped as scenario files and replayed with
``repro-sim study run <file>``.

Expansion order is part of the contract: scenarios in declaration order, then
pattern → routing → load → replicate within each scenario.  Replicate 0 keeps
the scenario's base seed (so one-replicate studies reproduce single runs
bit-for-bit); higher replicates derive their seed with
:func:`~repro.engine.rng.derive_replicate_seed`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.faults.schedule import FaultSchedule
from repro.network.params import NetworkParams
from repro.routing import canonical_routing_name
from repro.scenarios.serialize import (
    INTEGER,
    LOADS,
    NON_NEGATIVE,
    POSITIVE,
    POSITIVE_FRACTION,
    STUDY_SCHEMA_VERSION,
    Codec,
    Form,
    Kwargs,
    Number,
    _check_fields,
    _located,
)
from repro.traffic import LoadSchedule, canonical_pattern_name
from repro.traffic.generator import check_arrival

if TYPE_CHECKING:  # imported lazily at runtime: the harness sits above this
    # module in the import graph.
    from repro.experiments.harness import ExperimentResult, ExperimentSpec, StoreLike
    from repro.experiments.parallel import SweepRunner

__all__ = ["Scenario", "Study", "StudyPoint", "StudyResult", "TrainStage"]


def _names_tuple(value: Union[str, Sequence[str]],
                 canonical: Callable[[str], str]) -> Tuple[str, ...]:
    """Accept one name or a sequence; canonicalise each against a registry."""
    if isinstance(value, str):
        value = (value,)
    return tuple(canonical(name) for name in value)


@dataclass
class Scenario(Codec):
    """One named grid of experiments inside a :class:`Study`.

    ``None`` fields fall back to the owning study's defaults at expansion
    time.  ``loads_by_pattern`` overrides ``loads`` for specific patterns
    (e.g. UR sweeps further than ADV+i before saturating); a ``schedule``
    replaces the load axis entirely (Figure 8 style dynamic-load runs).
    """

    name: str
    routing: Union[str, Sequence[str]] = ("MIN",)
    pattern: Union[str, Sequence[str]] = ("UR",)
    loads: Sequence[float] = ()
    loads_by_pattern: Dict[str, Sequence[float]] = field(default_factory=dict)
    schedule: Optional[LoadSchedule] = None
    replicates: int = 1
    #: per-scenario topology override: any registered config
    #: (Dragonfly/fat-tree/mesh); ``None`` uses the study's topology.
    config: Optional[object] = None
    sim_time_ns: Optional[float] = None
    warmup_ns: Optional[float] = None
    stats_bin_ns: Optional[float] = None
    seed: Optional[int] = None
    arrival: Optional[str] = None
    network_params: Optional[NetworkParams] = None
    routing_kwargs: Dict[str, Kwargs] = field(default_factory=dict)
    pattern_kwargs: Dict[str, Kwargs] = field(default_factory=dict)
    #: telemetry probes attached to every run of this scenario (canonical
    #: names from :data:`repro.instrument.PROBE_REGISTRY`); ``None`` falls
    #: back to the owning study's default.
    telemetry: Optional[Sequence[str]] = None
    #: fault schedule injected into every run of this scenario (see
    #: :mod:`repro.faults`); ``None`` falls back to the owning study's
    #: default.
    faults: Optional[FaultSchedule] = None

    _NUMBERS = {"loads": LOADS, "replicates": Number(int, 1), "sim_time_ns": POSITIVE.or_none(),
                "warmup_ns": NON_NEGATIVE.or_none(), "stats_bin_ns": POSITIVE.or_none(),
                "seed": INTEGER.or_none()}
    #: a document (so ``telemetry=()`` is written as ``[]``: ``None``
    #: inherits the study's), which omits ``replicates`` at 1.
    _FORM = Form(omit_default=("replicates",))

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"a scenario needs a non-empty string name, got {self.name!r}")
        context = f"scenario {self.name!r}"
        _check_fields(self, context)
        if self.arrival is not None:
            check_arrival(self.arrival)
        if self.telemetry is not None:
            from repro.instrument.probes import canonical_telemetry

            self.telemetry = canonical_telemetry(self.telemetry)
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ValueError(
                f"{context}: faults must be a FaultSchedule, got {type(self.faults).__name__}"
            )
        self.routing = _names_tuple(self.routing, canonical_routing_name)
        self.pattern = _names_tuple(self.pattern, canonical_pattern_name)
        self.loads_by_pattern = {
            canonical_pattern_name(pattern): LOADS.check(
                loads, f"loads_by_pattern[{pattern!r}]", context)
            for pattern, loads in self.loads_by_pattern.items()
        }
        self.routing_kwargs = {
            canonical_routing_name(routing): dict(kwargs)
            for routing, kwargs in self.routing_kwargs.items()
        }
        self.pattern_kwargs = {
            canonical_pattern_name(pattern): dict(kwargs)
            for pattern, kwargs in self.pattern_kwargs.items()
        }
        if self.schedule is not None and (self.loads or self.loads_by_pattern):
            raise ValueError(f"{context}: specify loads or a schedule, not both")
        if self.schedule is None and not self.loads and not self.loads_by_pattern:
            raise ValueError(f"{context} needs a loads axis or a schedule")

    def loads_for(self, pattern: str) -> Tuple[float, ...]:
        """The load axis effective for one (canonical) pattern name."""
        return tuple(self.loads_by_pattern.get(pattern, self.loads))

    def with_overrides(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)


@dataclass
class TrainStage(Codec):
    """Training stage of a staged study (schema v2).

    When a study carries a train stage, :meth:`Study.run` first produces one
    checkpoint per routing algorithm — trained for ``train_ns`` of simulated
    time under ``pattern`` at ``load`` — and then warm-starts every expanded
    eval spec of those routings from its checkpoint.  Training runs are
    memoized through the artifact store (:mod:`repro.store`) by spec
    fingerprint, so re-running the study re-trains nothing.

    ``routing`` empty (the default) means "every learned routing the eval
    scenarios use" (Q-adp, Q-routing); naming another routing explicitly is
    an error.  ``routing_kwargs`` defaults to the first eval scenario that
    configures the routing, so the trained policy uses the same
    hyper-parameters it is evaluated with.
    """

    pattern: str = "UR"
    load: float = 0.5
    train_ns: Optional[float] = None
    routing: Union[str, Sequence[str]] = ()
    seed: Optional[int] = None
    routing_kwargs: Dict[str, Kwargs] = field(default_factory=dict)

    _NUMBERS = {"load": POSITIVE_FRACTION, "train_ns": POSITIVE.or_none(),
                "seed": INTEGER.or_none()}
    _FORM = Form()  # a document

    def __post_init__(self) -> None:
        self.pattern = canonical_pattern_name(self.pattern)
        self.routing = _names_tuple(self.routing, canonical_routing_name) \
            if self.routing else ()
        _check_fields(self)
        self.routing_kwargs = {
            canonical_routing_name(routing): dict(kwargs)
            for routing, kwargs in self.routing_kwargs.items()
        }


@dataclass(frozen=True)
class StudyPoint:
    """One expanded experiment: which scenario/replicate produced which spec."""

    scenario: str
    replicate: int
    spec: "ExperimentSpec"


@dataclass
class Study(Codec):
    """A named composition of scenarios with shared defaults."""

    name: str
    #: default topology of every scenario: any registered config
    #: (Dragonfly/fat-tree/mesh); scenarios may override it individually.
    config: object
    scenarios: Sequence[Scenario] = ()
    sim_time_ns: float = 50_000.0
    warmup_ns: float = 25_000.0
    stats_bin_ns: float = 2_000.0
    seed: int = 1
    arrival: str = "exponential"
    network_params: Optional[NetworkParams] = None
    description: str = ""
    #: optional staged-execution training stage: checkpoints produced here
    #: warm-start every eval spec of the trained routings (see TrainStage).
    train: Optional[TrainStage] = None
    #: default telemetry probes of every scenario that does not set its own
    #: (canonical names from :data:`repro.instrument.PROBE_REGISTRY`).
    telemetry: Sequence[str] = ()
    #: default fault schedule of every scenario that does not set its own
    #: (see :mod:`repro.faults`); ``None`` keeps the fault layer out.
    faults: Optional[FaultSchedule] = None

    _NUMBERS = {"sim_time_ns": POSITIVE, "warmup_ns": NON_NEGATIVE,
                "stats_bin_ns": POSITIVE, "seed": INTEGER}
    #: a versioned document, which a file states with its scenarios.
    _FORM = Form(schema=STUDY_SCHEMA_VERSION, required=("scenarios",))

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"a study needs a non-empty string name, got {self.name!r}")
        _check_fields(self, f"study {self.name!r}")
        check_arrival(self.arrival)
        if self.telemetry:
            from repro.instrument.probes import canonical_telemetry

            self.telemetry = canonical_telemetry(self.telemetry)
        else:
            self.telemetry = ()
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ValueError(
                f"study {self.name!r}: faults must be a FaultSchedule, "
                f"got {type(self.faults).__name__}"
            )
        if self.train is not None and not isinstance(self.train, TrainStage):
            raise ValueError(
                f"study {self.name!r}: train must be a TrainStage, "
                f"got {type(self.train).__name__}"
            )
        self.scenarios = tuple(self.scenarios)
        if not self.scenarios:
            raise ValueError(f"study {self.name!r} has no scenarios")
        seen = set()
        for scenario in self.scenarios:
            if scenario.name in seen:
                raise ValueError(
                    f"study {self.name!r} has duplicate scenario name {scenario.name!r}"
                )
            seen.add(scenario.name)

    # -------------------------------------------------------------- expansion
    def expand(self) -> List[StudyPoint]:
        """Deterministically expand every scenario grid into study points."""
        from repro.engine.rng import derive_replicate_seed
        from repro.experiments.harness import ExperimentSpec

        points: List[StudyPoint] = []
        for scenario in self.scenarios:
            config = scenario.config or self.config
            sim_time = self._effective(scenario, "sim_time_ns")
            warmup = self._effective(scenario, "warmup_ns")
            stats_bin = self._effective(scenario, "stats_bin_ns")
            base_seed = self._effective(scenario, "seed")
            arrival = self._effective(scenario, "arrival")
            network_params = scenario.network_params or self.network_params
            telemetry = (scenario.telemetry if scenario.telemetry is not None
                         else tuple(self.telemetry))
            faults = scenario.faults if scenario.faults is not None else self.faults
            for pattern in scenario.pattern:
                if scenario.schedule is not None:
                    loads: Tuple[Optional[float], ...] = (None,)
                else:
                    loads = scenario.loads_for(pattern)
                    if not loads:
                        raise ValueError(
                            f"study {self.name!r}, scenario {scenario.name!r}: "
                            f"no loads for pattern {pattern!r} (add it to "
                            "loads_by_pattern or set a default loads axis)"
                        )
                for routing in scenario.routing:
                    routing_kwargs = scenario.routing_kwargs.get(routing, {})
                    pattern_kwargs = scenario.pattern_kwargs.get(pattern, {})
                    for load in loads:
                        for index in range(scenario.replicates):
                            spec = ExperimentSpec(
                                config=config,
                                routing=routing,
                                pattern=pattern,
                                offered_load=load,
                                schedule=scenario.schedule,
                                sim_time_ns=sim_time,
                                warmup_ns=warmup,
                                seed=derive_replicate_seed(base_seed, index),
                                routing_kwargs=dict(routing_kwargs),
                                pattern_kwargs=dict(pattern_kwargs),
                                network_params=network_params,
                                arrival=arrival,
                                stats_bin_ns=stats_bin,
                                telemetry=telemetry,
                                faults=faults,
                            )
                            points.append(StudyPoint(scenario.name, index, spec))
        return points

    def specs(self) -> List[ExperimentSpec]:
        return [point.spec for point in self.expand()]

    def _effective(self, scenario: Scenario, name: str) -> Any:
        value = getattr(scenario, name)
        return getattr(self, name) if value is None else value

    # -------------------------------------------------------------- execution
    def run(self, runner: Optional["SweepRunner"] = None, *,
            store: "StoreLike" = None) -> "StudyResult":
        """Execute every expanded spec through a sweep runner.

        ``runner=None`` builds one from the ``REPRO_WORKERS`` /
        ``REPRO_CACHE`` environment variables (serial, uncached when unset).

        Staged studies (``train`` set) run their training stage first —
        through the artifact store ``store`` (default: the standard
        ``.cache/checkpoints`` store) — and warm-start the matching eval
        specs from the resulting checkpoints.
        """
        from repro.experiments.parallel import default_runner

        if runner is None:
            runner = default_runner()
        points = self.expand()
        checkpoints: Dict[str, str] = {}
        if self.train is not None:
            checkpoints = self.run_train_stage(store)
            # Warm-start only the points that can actually load the
            # checkpoint: training runs on the study-level config, so
            # scenarios overriding it to a different topology run cold
            # (learned tables do not transfer across topologies).
            points = [
                StudyPoint(
                    point.scenario,
                    point.replicate,
                    point.spec.with_overrides(
                        warm_start=checkpoints[point.spec.routing]),
                )
                if (point.spec.routing in checkpoints
                    and point.spec.config == self.config) else point
                for point in points
            ]
        results = runner.run([point.spec for point in points])
        return StudyResult(study=self, points=points, results=results,
                           checkpoints=checkpoints)

    def run_train_stage(self, store: "StoreLike" = None) -> Dict[str, str]:
        """Produce (or reuse) one checkpoint per trained routing.

        Returns ``{canonical routing name: checkpoint path}``.  Memoized
        through the store: a study re-run only re-trains when the training
        spec changed.
        """
        from repro.engine.batch.model import is_learned
        from repro.experiments.harness import ExperimentSpec, train_experiment
        from repro.store import resolve_store

        stage = self.train
        if stage is None:
            return {}
        store = resolve_store(store)
        routings = stage.routing or self._checkpointable_routings()
        if not routings:
            raise ValueError(
                f"study {self.name!r} has a train stage but no checkpointable "
                "routing to train (the eval scenarios use only learned-state-"
                "free algorithms; name the routing explicitly to override)"
            )
        checkpoints: Dict[str, str] = {}
        for routing in routings:
            if not is_learned(routing):
                raise ValueError(
                    f"study {self.name!r}: train stage names routing "
                    f"{routing!r}, which has no learned state to train"
                )
            kwargs = self._train_kwargs_for(routing)
            spec = ExperimentSpec(
                config=self.config,
                routing=routing,
                pattern=stage.pattern,
                offered_load=stage.load,
                sim_time_ns=stage.train_ns if stage.train_ns is not None
                else self.sim_time_ns,
                warmup_ns=0.0,
                seed=stage.seed if stage.seed is not None else self.seed,
                routing_kwargs=kwargs,
                network_params=self.network_params,
                arrival=self.arrival,
                stats_bin_ns=self.stats_bin_ns,
                label=f"train:{routing}",
            )
            trained = train_experiment(spec, store=store)
            checkpoints[spec.routing] = str(trained.checkpoint.path)
        return checkpoints

    def _checkpointable_routings(self) -> Tuple[str, ...]:
        """Distinct learned routings of the eval scenarios, in order."""
        from repro.engine.batch.model import is_learned

        return tuple(dict.fromkeys(
            routing for scenario in self.scenarios for routing in scenario.routing
            if is_learned(routing)
        ))

    def _train_kwargs_for(self, routing: str) -> Dict:
        """Routing kwargs of the training run: the stage's own, else those of
        the first eval scenario configuring the routing (so the policy trains
        with the hyper-parameters it is evaluated with)."""
        stage = self.train
        if stage is not None and routing in stage.routing_kwargs:
            return dict(stage.routing_kwargs[routing])
        for scenario in self.scenarios:
            if routing in scenario.routing_kwargs:
                return dict(scenario.routing_kwargs[routing])
        return {}

    def with_overrides(self, **kwargs) -> "Study":
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ files
    def save(self, path: Union[str, Path]) -> Path:
        """Write the study as a scenario file (JSON, or YAML by extension)."""
        path = Path(path)
        if path.suffix.lower() in (".yaml", ".yml"):
            yaml = _yaml_module()
            text = yaml.safe_dump(self.to_dict(), sort_keys=False)
        else:
            text = json.dumps(self.to_dict(), indent=2) + "\n"
        path.write_text(text, encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Study":
        """Read a scenario file written by :meth:`save` (or by hand).  A file
        that does not parse, or a study it does not describe, is a
        one-line :class:`ValueError` that names the file."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() in (".yaml", ".yml"):
            yaml = _yaml_module()
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                mark = getattr(exc, "problem_mark", None)
                where = f": line {mark.line + 1} column {mark.column + 1}" if mark else ""
                problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
                raise ValueError(f"{path} is not valid YAML: {problem}{where}") from None
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from None
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise _located(exc, str(path)) from None


def _yaml_module() -> Any:
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise RuntimeError(
            "YAML scenario files need the optional PyYAML dependency; "
            "install pyyaml or use a .json file"
        ) from exc
    return yaml


@dataclass
class StudyResult:
    """The outcome of :meth:`Study.run`: points and results, index-aligned.

    ``checkpoints`` maps each trained routing to its checkpoint path when the
    study had a train stage (empty otherwise).
    """

    study: Study
    points: List[StudyPoint]
    results: List[ExperimentResult]
    checkpoints: Dict[str, str] = field(default_factory=dict)

    def __iter__(self) -> Iterator[Tuple[StudyPoint, ExperimentResult]]:
        return iter(zip(self.points, self.results, strict=True))

    def __len__(self) -> int:
        return len(self.points)

    def rows(self) -> List[Dict]:
        """Flat summary rows (JSON-friendly), one per executed spec."""
        rows = []
        for point, result in self:
            row: Dict = {"scenario": point.scenario, "replicate": point.replicate}
            row.update(result.summary_row())
            rows.append(row)
        return rows

    def telemetry_rows(self) -> List[Dict]:
        """One row per executed spec that carried probes (JSON-friendly).

        Each row pairs the run's coordinates with its ``telemetry`` payload;
        this is the block ``repro-sim report`` consumes from a saved study
        result.
        """
        rows = []
        for point, result in self:
            if not result.telemetry:
                continue
            offered: object = point.spec.offered_load
            rows.append({
                "scenario": point.scenario,
                "replicate": point.replicate,
                "routing": point.spec.routing,
                "pattern": point.spec.pattern,
                "offered_load": offered if offered is not None else "dyn",
                "telemetry": result.telemetry,
            })
        return rows

    def filter(
        self,
        scenario: Optional[str] = None,
        routing: Optional[str] = None,
        pattern: Optional[str] = None,
    ) -> List[ExperimentResult]:
        """Results matching the given coordinates (names canonicalised)."""
        if routing is not None:
            routing = canonical_routing_name(routing)
        if pattern is not None:
            pattern = canonical_pattern_name(pattern)
        matches = []
        for point, result in self:
            if scenario is not None and point.scenario != scenario:
                continue
            if routing is not None and point.spec.routing != routing:
                continue
            if pattern is not None and point.spec.pattern != pattern:
                continue
            matches.append(result)
        return matches

    def get(self, **coordinates) -> ExperimentResult:
        """The single result at the given coordinates (error if not unique)."""
        matches = self.filter(**coordinates)
        if len(matches) != 1:
            raise ValueError(
                f"expected exactly one result for {coordinates}, found {len(matches)}"
            )
        return matches[0]
