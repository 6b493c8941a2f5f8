"""Named studies: every paper figure and ablation as a declarative scenario.

Each builder maps an :class:`~repro.experiments.presets.ExperimentScale` (and
its own options) to a :class:`~repro.scenarios.study.Study`.  Builders are
registered in :data:`STUDIES` (a :class:`~repro.scenarios.registry.Registry`),
so ``repro-sim study list`` and :func:`study_by_name` see user-registered
studies too.

A study registered with a ``layout`` is a paper figure: :func:`figure` builds
it, runs it and returns ``layout(run)``, the figure's data as plain
JSON-friendly dictionaries.  The layout reads everything it needs from the
run (scenario names, each spec's pattern, routing, load, ``routing_kwargs``
and schedule), so the study is the figure's only definition, and
``repro-sim figure fig5`` and ``repro-sim study run fig5`` (or a serialized
``fig5.json``) share cache fingerprints and results bit-for-bit.  The two
tables of the paper (Table 1, Tables 2–3) simulate nothing and are the only
figures that are not studies.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.qtable import qtable_memory_comparison
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import SweepRunner
from repro.experiments.presets import (
    PAPER_ALGORITHMS,
    ExperimentScale,
    REDUCED_SCALE,
    default_scale,
    scale_by_name,
)
from repro.faults.schedule import FaultSchedule
from repro.scenarios.registry import Registry
from repro.scenarios.serialize import checked_number
from repro.scenarios.study import Scenario, Study, StudyResult, TrainStage
from repro.stats.summary import fraction_below
from repro.topology.config import DragonflyConfig
from repro.traffic import LoadSchedule, canonical_pattern_name

__all__ = [
    "STUDIES",
    "ablation_hyperparams_study",
    "ablation_maxq_study",
    "available_studies",
    "cross_topology_study",
    "fairness_study",
    "fig5_study",
    "fig6_study",
    "fig7_study",
    "fig8_study",
    "fig9_study",
    "figure",
    "figure_names",
    "headline_study",
    "link_heatmap_study",
    "load_study",
    "register_study",
    "resilience_study",
    "study_by_name",
    "transfer_study",
    "warm_fig5_study",
]

#: registry of named study builders (each callable: ``builder(scale) -> Study``).
STUDIES = Registry("study")


def register_study(name: str, builder: Optional[Callable[..., Study]] = None, *,
                   aliases: Sequence[str] = (),
                   metadata: Optional[dict] = None,
                   layout: Optional[Callable[[StudyResult], Any]] = None,
                   replace: bool = False) -> None:
    """Register a study builder (``builder(scale: ExperimentScale) -> Study``).

    With a ``layout`` the study is also a figure: :func:`figure` returns
    ``layout(study.run(runner))``.
    """
    metadata = dict(metadata or {})
    if layout is not None:
        metadata["layout"] = layout
    STUDIES.register(name, builder, aliases=aliases, metadata=metadata,
                     replace=replace)


def available_studies() -> Dict[str, str]:
    """``{name: summary}`` of every registered study, in registration order."""
    return {row["name"]: row.get("summary", "") for row in STUDIES.describe()}


def study_by_name(name: str, scale: Optional[ExperimentScale] = None, **options) -> Study:
    """Build a registered study at a scale (default: the env-selected scale)."""
    builder = STUDIES.factory(name)
    return builder(scale, **options)


def load_study(target: str, scale: Optional[ExperimentScale] = None) -> Study:
    """Resolve a study from a scenario file path or a registered name.

    Anything that exists on disk (or looks like a ``.json``/``.yaml`` path)
    is loaded as a scenario file; everything else is treated as a name in
    :data:`STUDIES`.
    """
    lowered = target.lower()
    if os.path.exists(target) or lowered.endswith((".json", ".yaml", ".yml")):
        return Study.load(target)
    return study_by_name(target, scale)


# ------------------------------------------------------------ figure layouts
def _table1(configs: Sequence[DragonflyConfig] = ()) -> List[Dict[str, object]]:
    """Table 1: derived sizes of the evaluated Dragonfly systems (default:
    the paper's two)."""
    configs = configs or (DragonflyConfig.paper_1056(), DragonflyConfig.paper_2550())
    return [config.describe() for config in configs]


def _qtable_memory(configs: Sequence[DragonflyConfig] = ()) -> List[Dict[str, object]]:
    """Tables 2–3: per-router memory of the original vs two-level Q-table."""
    configs = configs or (DragonflyConfig.paper_1056(), DragonflyConfig.paper_2550())
    return [{"N": config.num_nodes, **qtable_memory_comparison(config)}
            for config in configs]


#: the figures that simulate nothing: ``name -> table(**options)``.
_TABLES: Dict[str, Callable[..., List[Dict[str, object]]]] = {
    "table1": _table1,
    "qtable-memory": _qtable_memory,
}


def figure_names() -> List[str]:
    """Every figure :func:`figure` knows: the tables, then each registered
    study with a layout, in registration order."""
    return [*_TABLES, *(row["name"] for row in STUDIES.describe() if "layout" in row)]


def figure(name: str, scale: Optional[ExperimentScale] = None, *,
           runner: Optional[SweepRunner] = None, **options) -> Any:
    """The data behind one paper table or figure, as plain dictionaries.

    A table takes only its own ``options`` (``configs``).  A figure builds
    its registered study with ``scale`` and ``options``, runs it through
    ``runner`` (see :meth:`Study.run`) and returns the study's layout of the
    run.
    """
    if name in _TABLES:
        return _TABLES[name](**options)
    layout = STUDIES.get(name).metadata.get("layout")
    if layout is None:
        raise ValueError(f"study {name!r} is not a figure; figures: {figure_names()}")
    return layout(study_by_name(name, scale, **options).run(runner))


def figure5_sweep(scale: ExperimentScale, algorithms: Sequence[str],
                  patterns: Sequence[str], *, runner: SweepRunner) -> Dict:
    """``figure("fig5", ...)`` under its old name, for ``ledger/adapters.py``
    only (see ``repro.experiments.__getattr__``)."""
    return figure("fig5", scale, runner=runner, algorithms=algorithms, patterns=patterns)


def _means(result: ExperimentResult) -> Dict[str, float]:
    return {"latency_us": result.mean_latency_us, "throughput": result.throughput,
            "hops": result.mean_hops}


def _load_sweep(run: StudyResult) -> Dict[str, Dict[str, Dict[str, List[float]]]]:
    """Figure 5: ``{pattern: {routing: {"loads", "latency_us", "throughput",
    "hops"}}}``, the three metrics of each pattern's panel per load."""
    data: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for point, result in run:
        spec = point.spec
        series = data.setdefault(spec.pattern, {}).setdefault(
            spec.routing, {"loads": [], "latency_us": [], "throughput": [], "hops": []})
        series["loads"].append(spec.offered_load)
        for key, value in _means(result).items():
            series[key].append(value)
    return data


def _distributions(run: StudyResult) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figures 6 and 9: ``{pattern: {routing: summary}}``, each summary the
    latency distribution in µs (mean / median / p95 / p99 / quartiles /
    whiskers) plus hops, throughput, the fraction of packets below 2 µs and
    the offered load."""
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    for point, result in run:
        row = result.stats.latency.as_microseconds()
        row["mean_hops"] = result.mean_hops
        row["throughput"] = result.throughput
        row["fraction_below_2us"] = fraction_below(result.latencies_ns, 2_000.0)
        row["offered_load"] = point.spec.offered_load
        data.setdefault(point.spec.pattern, {})[point.spec.routing] = row
    return data


def _convergence(run: StudyResult) -> Dict[str, Dict[str, Any]]:
    """Figure 7: ``{scenario: {"time_us", "latency_us", "final_latency_us"}}``."""
    curves: Dict[str, Dict[str, Any]] = {}
    for point, result in run:
        times, values = result.latency_timeline_us
        curves[point.scenario] = {
            "time_us": [float(t) for t in times],
            "latency_us": [float(v) for v in values],
            "final_latency_us": float(values[-1]) if len(values) else float("nan"),
        }
    return curves


def _dynamic_load(run: StudyResult) -> Dict[str, Dict[str, Any]]:
    """Figure 8: ``{scenario: {"time_us", "throughput", "step_time_us",
    "final_throughput"}}``, the binned throughput around the load step."""
    curves: Dict[str, Dict[str, Any]] = {}
    for point, result in run:
        times, values = result.throughput_timeline
        curves[point.scenario] = {
            "time_us": [float(t) for t in times],
            "throughput": [float(v) for v in values],
            "step_time_us": point.spec.schedule.phases[1].start_ns / 1_000.0,
            "final_throughput": float(values[-1]) if len(values) else float("nan"),
        }
    return curves


def _maxq(run: StudyResult) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Section 2.3.2: ``{pattern: {maxQ: {"latency_us", "throughput", "hops",
    "offered_load"}}}``."""
    data: Dict[str, Dict[int, Dict[str, float]]] = {}
    for point, result in run:
        spec = point.spec
        data.setdefault(spec.pattern, {})[spec.routing_kwargs["max_q"]] = {
            **_means(result), "offered_load": spec.offered_load}
    return data


def _hyperparams(run: StudyResult) -> List[Dict[str, Any]]:
    """Section 4: one row per (feedback rule, ``q_thld1``) run."""
    rows = []
    for point, result in run:
        spec = point.spec
        params = spec.routing_kwargs["params"]
        rows.append({"feedback": params.feedback, "q_thld1": params.q_thld1,
                     "pattern": spec.pattern, "offered_load": spec.offered_load,
                     **_means(result)})
    return rows


# ------------------------------------------------------------------ helpers
def _reference_load(scale: ExperimentScale, pattern: str) -> float:
    """Reference load with UR's only for UR itself (figures 6 and the maxQ
    ablation treat every non-UR pattern as adversarial-like)."""
    if canonical_pattern_name(pattern).upper() == "UR":
        return scale.ur_reference_load
    return scale.adv_reference_load


def _sweep_loads(scale: ExperimentScale, patterns: Sequence[str],
                 overrides: Optional[Dict[str, Sequence[float]]] = None,
                 ) -> Dict[str, Tuple[float, ...]]:
    """``{pattern: loads}`` of a load sweep: a pattern's ``overrides`` entry,
    else the scale's UR axis for UR and its ADV axis for every other
    pattern.  Names match in any spelling (``"uniform"`` is UR)."""
    given = {canonical_pattern_name(p): loads for p, loads in (overrides or {}).items()}
    return {p: tuple(given.get(p, scale.ur_loads if p == "UR" else scale.adv_loads))
            for p in map(canonical_pattern_name, patterns)}


def _scaleup_reference_load(scale: ExperimentScale, pattern: str) -> float:
    """Reference load with ADV's only for the ADV+i family (figure 9 runs the
    HPC workloads — stencil, many-to-many, neighbours — at UR's load)."""
    if canonical_pattern_name(pattern).upper().startswith("ADV"):
        return scale.adv_reference_load
    return scale.ur_reference_load


def _qadp_kwargs(scale: ExperimentScale, scaleup: bool = False) -> Dict[str, Dict]:
    params = scale.qadaptive_scaleup_params if scaleup else scale.qadaptive_params
    return {"Q-adp": {"params": params}}


def _one_load(scale: ExperimentScale, patterns: Sequence[str], load: Optional[float] = None,
              reference: Callable[[ExperimentScale, str], float] = _reference_load,
              ) -> Dict[str, Tuple[float]]:
    """``{pattern: (load,)}``: every pattern at ``load``, or at
    ``reference(scale, pattern)`` when ``load`` is None."""
    return {p: (reference(scale, p) if load is None else load,) for p in patterns}


def _scaled(scale: ExperimentScale, **fields: Any) -> Study:
    """A study on ``scale``'s topology, windows and seed; ``fields`` set the
    rest and may override those."""
    return Study(**{"config": scale.config, "sim_time_ns": scale.sim_time_ns,
                    "warmup_ns": scale.warmup_ns, "seed": scale.seed, **fields})


# ------------------------------------------------------------------- figures
def fig5_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    loads_by_pattern: Optional[Dict[str, Sequence[float]]] = None,
) -> Study:
    """Figure 5: offered-load sweep of every algorithm under UR / ADV+i."""
    scale = scale or default_scale()
    patterns = tuple(patterns or ("UR", "ADV+1", "ADV+4"))
    return _scaled(
        scale,
        name="fig5",
        description="Figure 5: latency / throughput / hops vs offered load",
        scenarios=[Scenario(name="sweep", routing=tuple(algorithms or PAPER_ALGORITHMS),
                            pattern=patterns,
                            loads_by_pattern=_sweep_loads(scale, patterns, loads_by_pattern),
                            routing_kwargs=_qadp_kwargs(scale))],
    )


def fig6_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    loads: Optional[Dict[str, float]] = None,
) -> Study:
    """Figure 6: latency distribution at one fixed load per pattern.

    The paper fixes UR at load 0.8 and ADV+i at 0.45; the scales use their
    own reference loads unless ``loads`` names a pattern's.
    """
    scale = scale or default_scale()
    patterns = tuple(patterns or ("UR", "ADV+1", "ADV+4"))
    return _scaled(
        scale,
        name="fig6",
        description="Figure 6: packet latency distribution (mean/p95/p99)",
        scenarios=[Scenario(
            name="tail",
            routing=tuple(algorithms or PAPER_ALGORITHMS),
            pattern=patterns,
            loads_by_pattern={p: ((loads or {}).get(p, _reference_load(scale, p)),)
                              for p in patterns},
            routing_kwargs=_qadp_kwargs(scale),
        )],
    )


def fig7_study(
    scale: Optional[ExperimentScale] = None,
    cases: Optional[Sequence[Tuple[str, float]]] = None,
    bin_ns: float = 5_000.0,
) -> Study:
    """Figure 7: Q-adaptive convergence from an empty network, one scenario
    per ``(pattern, load)`` case."""
    scale = scale or default_scale()
    if cases is None:
        cases = (
            ("UR", round(scale.ur_reference_load / 2, 3)),
            ("UR", scale.ur_reference_load),
            ("ADV+1", round(scale.adv_reference_load / 2, 3)),
            ("ADV+4", round(scale.adv_reference_load / 2, 3)),
            ("ADV+1", scale.adv_reference_load),
            ("ADV+4", scale.adv_reference_load),
        )
    return _scaled(
        scale,
        name="fig7",
        description="Figure 7: Q-adaptive latency over time from an empty network",
        sim_time_ns=scale.convergence_ns,
        warmup_ns=0.0,
        stats_bin_ns=bin_ns,
        scenarios=[
            Scenario(name=f"{pattern} load {load}", routing=("Q-adp",), pattern=(pattern,),
                     loads=(load,), routing_kwargs=_qadp_kwargs(scale))
            for pattern, load in cases
        ],
    )


def fig8_study(
    scale: Optional[ExperimentScale] = None,
    cases: Optional[Sequence[Tuple[str, float, float]]] = None,
    bin_ns: float = 5_000.0,
) -> Study:
    """Figure 8: throughput while the offered load steps up or down.

    Each case is ``(pattern, initial_load, new_load)``; the load changes at
    ``scale.convergence_ns`` and the run lasts twice that long.
    """
    scale = scale or default_scale()
    if cases is None:
        ur_hi, ur_lo = scale.ur_reference_load, round(scale.ur_reference_load / 2, 3)
        adv_hi, adv_lo = scale.adv_reference_load, round(scale.adv_reference_load / 2, 3)
        cases = (
            ("UR", ur_lo, ur_hi),
            ("UR", ur_hi, ur_lo),
            ("ADV+4", adv_lo, adv_hi),
            ("ADV+4", adv_hi, adv_lo),
        )
    step_time = scale.convergence_ns
    return _scaled(
        scale,
        name="fig8",
        description="Figure 8: system throughput under a stepped offered load",
        sim_time_ns=2 * scale.convergence_ns,
        warmup_ns=0.0,
        stats_bin_ns=bin_ns,
        scenarios=[
            Scenario(name=f"{pattern} {initial}->{new}", routing=("Q-adp",),
                     pattern=(pattern,), schedule=LoadSchedule.step(initial, step_time, new),
                     routing_kwargs=_qadp_kwargs(scale))
            for pattern, initial, new in cases
        ],
    )


def fig9_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    load: Optional[float] = None,
) -> Study:
    """Figure 9: latency distributions on the scale-up system, five patterns.

    Patterns default to the paper's set (UR, ADV+1, 3D Stencil, Many to
    Many, Random Neighbors), run on ``scale.scaleup_config`` with the
    Section 6 hyper-parameters.
    """
    scale = scale or default_scale()
    patterns = tuple(
        patterns or ("UR", "ADV+1", "3D Stencil", "Many to Many", "Random Neighbors")
    )
    return _scaled(
        scale,
        name="fig9",
        description="Figure 9: scale-up case study, five traffic patterns",
        config=scale.scaleup_config,
        scenarios=[Scenario(
            name="scaleup",
            routing=tuple(algorithms or PAPER_ALGORITHMS),
            pattern=patterns,
            loads_by_pattern=_one_load(scale, patterns, load, _scaleup_reference_load),
            routing_kwargs=_qadp_kwargs(scale, scaleup=True),
        )],
    )


# ----------------------------------------------------------------- ablations
def ablation_maxq_study(
    scale: Optional[ExperimentScale] = None,
    maxq_values: Sequence[int] = (1, 3, 5, 7),
    patterns: Optional[Sequence[str]] = None,
    load: Optional[float] = None,
) -> Study:
    """Section 2.3.2: naive Q-routing with a maxQ hop threshold.

    No single maxQ suits both UR and ADV+i, which motivates the Q-adaptive
    design.  Each maxQ value must be an integer (``2.0`` reads as 2).
    """
    scale = scale or default_scale()
    maxq_values = tuple(checked_number(maxq, "maxq_values", "ablation_maxq_study", int)
                        for maxq in maxq_values)
    patterns = tuple(patterns or ("UR", "ADV+1", "ADV+4"))
    return _scaled(
        scale,
        name="ablation-maxq",
        description="Section 2.3.2: no single maxQ suits both UR and ADV+i",
        scenarios=[
            Scenario(name=f"maxQ={maxq}", routing=("Q-routing",), pattern=patterns,
                     loads_by_pattern=_one_load(scale, patterns, load),
                     routing_kwargs={"Q-routing": {"max_q": maxq}})
            for maxq in maxq_values
        ],
    )


def ablation_hyperparams_study(
    scale: Optional[ExperimentScale] = None,
    pattern: str = "ADV+1",
    load: Optional[float] = None,
    q_thld1_values: Sequence[float] = (0.0, 0.2, 0.5),
    feedback_modes: Sequence[str] = ("onpolicy", "greedy"),
) -> Study:
    """Section 4 design knobs: minimal-path bias threshold and feedback rule."""
    scale = scale or default_scale()
    if load is None:
        load = _scaleup_reference_load(scale, pattern)
    base = scale.qadaptive_params
    return _scaled(
        scale,
        name="ablation-hyperparams",
        description="Section 4: q_thld1 threshold x feedback rule ablation",
        scenarios=[
            Scenario(
                name=f"{feedback} q_thld1={thld1}",
                routing=("Q-adp",),
                pattern=(pattern,),
                loads=(load,),
                routing_kwargs={"Q-adp": {"params": dataclasses.replace(
                    base, q_thld1=thld1, feedback=feedback)}},
            )
            for feedback in feedback_modes
            for thld1 in q_thld1_values
        ],
    )


# ----------------------------------------------------------- staged studies
def transfer_study(
    scale: Optional[ExperimentScale] = None,
    train_pattern: str = "UR",
    eval_patterns: Optional[Sequence[str]] = None,
    train_ns: Optional[float] = None,
) -> Study:
    """Transfer/generalization: train Q-adaptive once on one traffic pattern,
    evaluate the frozen-in-time tables under patterns it never trained on.

    The default grid trains on UR (at the scale's reference load, for the
    scale's convergence window) and evaluates on the adversarial family plus
    a shifted-load UR sweep — the policy-robustness axis emphasised by
    DeepCQ+-style related work.  Eval runs keep only a short settling
    warm-up; their learning continues online from the checkpoint, exactly
    like the paper's warmed-up measurement windows.
    """
    scale = scale or default_scale()
    eval_patterns = tuple(eval_patterns or ("ADV+1", "ADV+4"))
    eval_warmup = round(scale.warmup_ns / 5.0, 3)
    return _scaled(
        scale,
        name="transfer",
        description="Transfer: train Q-adp on UR, evaluate on adversarial + "
                    "shifted-load traffic",
        sim_time_ns=eval_warmup + scale.measure_ns,
        warmup_ns=eval_warmup,
        train=TrainStage(
            pattern=train_pattern,
            load=_reference_load(scale, train_pattern),
            train_ns=train_ns if train_ns is not None else scale.convergence_ns,
            routing=("Q-adp",),
            routing_kwargs=_qadp_kwargs(scale),
        ),
        scenarios=[
            Scenario(
                name="adversarial",
                routing=("Q-adp",),
                pattern=eval_patterns,
                loads=tuple(scale.adv_loads),
                routing_kwargs=_qadp_kwargs(scale),
            ),
            Scenario(
                name="shift",
                routing=("Q-adp",),
                pattern=(train_pattern,),
                loads=tuple(scale.ur_loads),
                routing_kwargs=_qadp_kwargs(scale),
            ),
        ],
    )


def warm_fig5_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
) -> Study:
    """Figure 5's sweep in train-once/eval-many form.

    One training run per learned algorithm replaces the per-load-point
    re-learning warm-up of the cold ``fig5`` study; every load point then
    warm-starts from the shared checkpoint and measures after a short
    settling window.  Non-learned algorithms keep the cold study's full
    warm-up (a separate scenario), so their rows stay comparable to ``fig5``.
    """
    from repro.routing import canonical_routing_name, make_routing
    from repro.routing.base import is_checkpointable

    scale = scale or default_scale()
    algorithms = tuple(canonical_routing_name(a)
                       for a in (algorithms or PAPER_ALGORITHMS))
    patterns = tuple(patterns or ("UR", "ADV+1"))
    eval_warmup = round(scale.warmup_ns / 5.0, 3)
    loads_of = _sweep_loads(scale, patterns)
    learned = tuple(a for a in algorithms if is_checkpointable(make_routing(a)))
    cold = tuple(a for a in algorithms if a not in learned)
    scenarios = []
    if learned:
        scenarios.append(Scenario(
            name="sweep-warm",
            routing=learned,
            pattern=patterns,
            loads_by_pattern=loads_of,
            routing_kwargs=_qadp_kwargs(scale),
        ))
    if cold:
        scenarios.append(Scenario(
            name="sweep-cold",
            routing=cold,
            pattern=patterns,
            loads_by_pattern=loads_of,
            sim_time_ns=scale.sim_time_ns,
            warmup_ns=scale.warmup_ns,
        ))
    return _scaled(
        scale,
        name="warm-fig5",
        description="Figure 5 sweep, train-once/eval-many: one checkpoint "
                    "feeds every load point of the learned algorithms",
        sim_time_ns=eval_warmup + scale.measure_ns,
        warmup_ns=eval_warmup,
        train=TrainStage(
            pattern="UR",
            load=scale.ur_reference_load,
            train_ns=scale.warmup_ns,
            routing_kwargs=_qadp_kwargs(scale),
        ),
        scenarios=scenarios,
    )


# ----------------------------------------------------------------- telemetry
def fairness_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    load: Optional[float] = None,
) -> Study:
    """Per-source-group fairness under adversarial traffic.

    Every run carries the ``source-latency`` probe (per-group latency
    summaries + Jain fairness index — the per-entity view behind the paper's
    Figure 6 tail comparison) and the ``link-util`` probe (which links the
    hotspot pattern actually saturates).  Render the result with
    ``repro-sim study run fairness --out result.json`` followed by
    ``repro-sim report result.json``.
    """
    scale = scale or default_scale()
    algorithms = tuple(algorithms or ("MIN", "UGALn", "Q-adp"))
    patterns = tuple(patterns or ("ADV+1", "UR"))
    return _scaled(
        scale,
        name="fairness",
        description="Per-source-group latency fairness (Jain index) and "
                    "hotspot link utilization under adversarial traffic",
        telemetry=("source-latency", "link-util"),
        scenarios=[
            Scenario(
                name="fairness",
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=_one_load(scale, patterns, load),
                routing_kwargs=_qadp_kwargs(scale),
            )
        ],
    )


def link_heatmap_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    pattern: str = "ADV+1",
    load: Optional[float] = None,
) -> Study:
    """Per-link utilization heatmap data plus queue/credit-stall hotspots.

    Runs a minimal-vs-adaptive comparison under one adversarial pattern with
    the ``link-util`` and ``queue-occupancy`` probes attached: the telemetry
    shows *where* MIN piles traffic onto the single minimal global link and
    how the adaptive algorithms spread it.
    """
    scale = scale or default_scale()
    algorithms = tuple(algorithms or ("MIN", "UGALn", "Q-adp"))
    reference = load if load is not None else _reference_load(scale, pattern)
    return _scaled(
        scale,
        name="link-heatmap",
        description="Per-link busy fractions and queue hotspots: minimal vs "
                    "adaptive routing under one adversarial pattern",
        telemetry=("link-util", "queue-occupancy"),
        scenarios=[
            Scenario(
                name="heatmap",
                routing=algorithms,
                pattern=(pattern,),
                loads=(reference,),
                routing_kwargs=_qadp_kwargs(scale),
            )
        ],
    )


def cross_topology_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
) -> Study:
    """Learned vs oblivious routing on Dragonfly, fat-tree and mesh/torus.

    One scenario per topology family runs the topology-generic slice of the
    algorithm catalog (Q-routing, MIN, VAL) under uniform and hotspot
    traffic, with the ``link-util`` and ``queue-occupancy`` probes attached
    so ``repro-sim report`` renders a per-link heatmap for every topology.

    The passed ``scale`` sets the windows, the seed and the Dragonfly
    config; the fat-tree and mesh/torus scenarios take their configs and
    reference loads from the matching ``*-bench`` scale presets (a mesh
    bisection is narrow relative to injection, so its loads are lower —
    comparing *absolute* loads across families is not meaningful, but who
    wins *within* a topology is).
    """
    scale = scale or default_scale()
    algorithms = tuple(algorithms or ("Q-routing", "MIN", "VAL"))
    patterns = tuple(patterns or ("UR", "Hotspot"))

    fattree = scale_by_name("fattree-bench")
    mesh = scale_by_name("mesh-bench")
    torus = scale_by_name("torus-bench")
    return _scaled(
        scale,
        name="cross-topology",
        description="Q-routing vs MIN vs VAL under UR/hotspot traffic on "
                    "Dragonfly, fat-tree, mesh and torus, with per-link "
                    "utilization heatmaps",
        telemetry=("link-util", "queue-occupancy"),
        scenarios=[
            Scenario(
                name="dragonfly",
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=_one_load(scale, patterns),
            ),
            Scenario(
                name="fattree",
                config=fattree.config,
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=_one_load(fattree, patterns),
            ),
            Scenario(
                name="mesh",
                config=mesh.config,
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=_one_load(mesh, patterns),
            ),
            Scenario(
                name="torus",
                config=torus.config,
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=_one_load(torus, patterns),
            ),
        ],
    )


def _single_link_fault(config: object, warmup_ns: float,
                       sim_time_ns: float) -> FaultSchedule:
    """One deterministic mid-run link failure (with recovery) for a family.

    Fails the first connected network link in canonical port order — router 0,
    lowest wired network port — 40% of the way into the measured window, and
    brings it back at the 70% mark, leaving a post-recovery tail for the
    re-convergence probe to measure against.
    """
    from repro.topology.registry import topology_for

    topo = topology_for(config)
    for router in topo.all_routers():
        for port in topo.network_ports_of(router):
            if topo.neighbor_of(router, port) is not None:
                window = sim_time_ns - warmup_ns
                down = warmup_ns + 0.4 * window
                up = warmup_ns + 0.7 * window
                return FaultSchedule.single_link_failure(
                    down, router, port, recover_ns=up)
    raise ValueError("topology has no connected network link to fail")


def resilience_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
) -> Study:
    """How fast each algorithm routes around a failed link, per topology.

    One scenario per topology family (Dragonfly, mesh, torus) runs the
    topology-generic algorithm slice (Q-routing, MIN, VAL) with a
    deterministic mid-run link failure and recovery injected through
    :mod:`repro.faults`.  The ``fault-delivery`` probe reports the delivery
    rate of every failure epoch and the ``reconvergence`` probe the time each
    algorithm needs to pull latency back inside the steady-state band, so
    ``repro-sim report`` renders a routed-around-the-failure table per run.

    Dragonfly additionally runs the adversarial pattern (ADV+i is defined by
    Dragonfly's group structure); the mesh and torus scenarios keep the
    topology-generic patterns.  As in the cross-topology study, the mesh and
    torus configs and loads come from the ``*-bench`` scale presets while the
    passed ``scale`` sets the windows, the seed and the Dragonfly config.
    """
    scale = scale or default_scale()
    algorithms = tuple(algorithms or ("Q-routing", "MIN", "VAL"))
    df_patterns = tuple(patterns or ("UR", "ADV+1", "Hotspot"))
    # ADV+i shifts by Dragonfly group — keep only generic patterns elsewhere.
    generic = tuple(
        p for p in df_patterns
        if not canonical_pattern_name(p).upper().startswith("ADV")
    ) or ("UR",)

    def fault_for(config: object) -> FaultSchedule:
        # Scenarios inherit the *study* windows, so every family's failure
        # lands at the same simulated time.
        return _single_link_fault(config, scale.warmup_ns, scale.sim_time_ns)

    mesh = scale_by_name("mesh-bench")
    torus = scale_by_name("torus-bench")
    return _scaled(
        scale,
        name="resilience",
        description="Degraded-mode routing: delivery rate per failure epoch "
                    "and latency re-convergence time after a mid-run link "
                    "failure, per algorithm and topology family",
        telemetry=("fault-delivery", "reconvergence"),
        scenarios=[
            Scenario(
                name="dragonfly",
                routing=algorithms,
                pattern=df_patterns,
                loads_by_pattern=_one_load(scale, df_patterns),
                faults=fault_for(scale.config),
            ),
            Scenario(
                name="mesh",
                config=mesh.config,
                routing=algorithms,
                pattern=generic,
                loads_by_pattern=_one_load(mesh, generic),
                faults=fault_for(mesh.config),
            ),
            Scenario(
                name="torus",
                config=torus.config,
                routing=algorithms,
                pattern=generic,
                loads_by_pattern=_one_load(torus, generic),
                faults=fault_for(torus.config),
            ),
        ],
    )


# ------------------------------------------------------------------ headline
def headline_study(
    scale: Optional[ExperimentScale] = None,
    cases: Sequence[Tuple[str, float]] = (("UR", 0.5), ("UR", 0.7), ("ADV+1", 0.35)),
    algorithms: Optional[Sequence[str]] = None,
) -> Study:
    """The reduced-scale headline comparison (``repro-sim study run headline``)."""
    scale = scale or REDUCED_SCALE
    algorithms = tuple(algorithms or PAPER_ALGORITHMS)
    return _scaled(
        scale,
        name="headline",
        description="headline comparison (reduced scale)",
        scenarios=[
            Scenario(
                name=f"{pattern}@{load}",
                routing=algorithms,
                pattern=(pattern,),
                loads=(load,),
                routing_kwargs=_qadp_kwargs(scale),
            )
            for pattern, load in cases
        ],
    )


register_study("fig5", fig5_study, aliases=("figure5",), layout=_load_sweep,
               metadata={"summary": "Figure 5: latency/throughput/hops vs load"})
register_study("fig6", fig6_study, aliases=("figure6",), layout=_distributions,
               metadata={"summary": "Figure 6: latency distribution per pattern"})
register_study("fig7", fig7_study, aliases=("figure7",), layout=_convergence,
               metadata={"summary": "Figure 7: Q-adaptive convergence curves"})
register_study("fig8", fig8_study, aliases=("figure8",), layout=_dynamic_load,
               metadata={"summary": "Figure 8: throughput under dynamic load"})
register_study("fig9", fig9_study, aliases=("figure9",), layout=_distributions,
               metadata={"summary": "Figure 9: scale-up case study"})
register_study("ablation-maxq", ablation_maxq_study, layout=_maxq,
               metadata={"summary": "Section 2.3.2: Q-routing maxQ ablation"})
register_study("ablation-hyperparams", ablation_hyperparams_study, layout=_hyperparams,
               metadata={"summary": "Section 4: q_thld1/feedback ablation"})
register_study("headline", headline_study,
               metadata={"summary": "headline comparison table (reduced scale)"})
register_study("transfer", transfer_study,
               metadata={"summary": "staged: train Q-adp on UR, evaluate on "
                                    "adversarial/shifted traffic"})
register_study("warm-fig5", warm_fig5_study, aliases=("warm_fig5",),
               metadata={"summary": "staged: fig5 sweep fed by one training "
                                    "run per learned algorithm"})
register_study("fairness", fairness_study,
               metadata={"summary": "telemetry: per-source-group latency "
                                    "fairness + hotspot link utilization"})
register_study("link-heatmap", link_heatmap_study, aliases=("link_heatmap",),
               metadata={"summary": "telemetry: per-link busy fractions and "
                                    "queue hotspots, MIN vs adaptive"})
register_study("cross-topology", cross_topology_study, aliases=("cross_topology",),
               metadata={"summary": "Q-routing vs MIN vs VAL on Dragonfly, "
                                    "fat-tree, mesh and torus + link heatmaps"})
register_study("resilience", resilience_study, aliases=("faults",),
               metadata={"summary": "faults: per-epoch delivery rate and "
                                    "re-convergence time after a link failure, "
                                    "per algorithm and topology family"})
