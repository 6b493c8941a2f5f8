"""Named studies: every paper figure and ablation as a declarative scenario.

Each builder maps an :class:`~repro.experiments.presets.ExperimentScale` to a
:class:`~repro.scenarios.study.Study` whose expansion produces *exactly* the
specs the corresponding ``repro.experiments.figures`` driver runs — the
figure drivers are thin reducers over these studies, so ``repro-sim figure
fig5`` and ``repro-sim study run fig5`` (or a serialized ``fig5.json``)
share cache fingerprints and results bit-for-bit.

Builders are registered in :data:`STUDIES` (a
:class:`~repro.scenarios.registry.Registry`), so ``repro-sim study list``
and :func:`study_by_name` see user-registered studies too.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.experiments.presets import (
    PAPER_ALGORITHMS,
    ExperimentScale,
    REDUCED_SCALE,
    default_scale,
)
from repro.faults.schedule import FaultSchedule
from repro.scenarios.registry import Registry
from repro.scenarios.study import Scenario, Study, TrainStage
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
                   replace: bool = False) -> None:
    """Register a study builder (``builder(scale: ExperimentScale) -> Study``)."""
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


# ------------------------------------------------------------------ helpers
def _reference_load(scale: ExperimentScale, pattern: str) -> float:
    """Reference load with UR's only for UR itself (figures 6 and the maxQ
    ablation treat every non-UR pattern as adversarial-like)."""
    if canonical_pattern_name(pattern).upper() == "UR":
        return scale.ur_reference_load
    return scale.adv_reference_load


def _scaleup_reference_load(scale: ExperimentScale, pattern: str) -> float:
    """Reference load with ADV's only for the ADV+i family (figure 9 runs the
    HPC workloads — stencil, many-to-many, neighbours — at UR's load)."""
    if canonical_pattern_name(pattern).upper().startswith("ADV"):
        return scale.adv_reference_load
    return scale.ur_reference_load


def _qadp_kwargs(scale: ExperimentScale, scaleup: bool = False) -> Dict[str, Dict]:
    params = scale.qadaptive_scaleup_params if scaleup else scale.qadaptive_params
    return {"Q-adp": {"params": params}}


# ------------------------------------------------------------------- figures
def fig5_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    loads_by_pattern: Optional[Dict[str, Sequence[float]]] = None,
) -> Study:
    """Figure 5: offered-load sweep of every algorithm under UR / ADV+i."""
    scale = scale or default_scale()
    algorithms = tuple(algorithms or PAPER_ALGORITHMS)
    patterns = tuple(patterns or ("UR", "ADV+1", "ADV+4"))
    loads_of = {
        pattern: tuple(
            (loads_by_pattern or {}).get(
                pattern, scale.ur_loads if pattern.upper() == "UR" else scale.adv_loads
            )
        )
        for pattern in patterns
    }
    return Study(
        name="fig5",
        description="Figure 5: latency / throughput / hops vs offered load",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
        scenarios=[
            Scenario(
                name="sweep",
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=loads_of,
                routing_kwargs=_qadp_kwargs(scale),
            )
        ],
    )


def fig6_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    loads: Optional[Dict[str, float]] = None,
) -> Study:
    """Figure 6: latency distribution at one fixed load per pattern."""
    scale = scale or default_scale()
    algorithms = tuple(algorithms or PAPER_ALGORITHMS)
    patterns = tuple(patterns or ("UR", "ADV+1", "ADV+4"))
    load_of = {
        pattern: (loads[pattern] if loads and pattern in loads
                  else _reference_load(scale, pattern))
        for pattern in patterns
    }
    return Study(
        name="fig6",
        description="Figure 6: packet latency distribution (mean/p95/p99)",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
        scenarios=[
            Scenario(
                name="tail",
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern={p: (load_of[p],) for p in patterns},
                routing_kwargs=_qadp_kwargs(scale),
            )
        ],
    )


def fig7_study(
    scale: Optional[ExperimentScale] = None,
    cases: Optional[Sequence[Tuple[str, float]]] = None,
    bin_ns: float = 5_000.0,
) -> Study:
    """Figure 7: Q-adaptive convergence from an empty network."""
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
    return Study(
        name="fig7",
        description="Figure 7: Q-adaptive latency over time from an empty network",
        config=scale.config,
        sim_time_ns=scale.convergence_ns,
        warmup_ns=0.0,
        stats_bin_ns=bin_ns,
        seed=scale.seed,
        scenarios=[
            Scenario(
                name=f"{pattern} load {load}",
                routing=("Q-adp",),
                pattern=(pattern,),
                loads=(load,),
                routing_kwargs=_qadp_kwargs(scale),
            )
            for pattern, load in cases
        ],
    )


def fig8_study(
    scale: Optional[ExperimentScale] = None,
    cases: Optional[Sequence[Tuple[str, float, float]]] = None,
    bin_ns: float = 5_000.0,
) -> Study:
    """Figure 8: throughput while the offered load steps up or down."""
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
    return Study(
        name="fig8",
        description="Figure 8: system throughput under a stepped offered load",
        config=scale.config,
        sim_time_ns=2 * scale.convergence_ns,
        warmup_ns=0.0,
        stats_bin_ns=bin_ns,
        seed=scale.seed,
        scenarios=[
            Scenario(
                name=f"{pattern} {initial}->{new}",
                routing=("Q-adp",),
                pattern=(pattern,),
                schedule=LoadSchedule.step(initial, step_time, new),
                routing_kwargs=_qadp_kwargs(scale),
            )
            for pattern, initial, new in cases
        ],
    )


def fig9_study(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    load: Optional[float] = None,
) -> Study:
    """Figure 9: latency distributions on the scale-up system, five patterns."""
    scale = scale or default_scale()
    algorithms = tuple(algorithms or PAPER_ALGORITHMS)
    patterns = tuple(
        patterns or ("UR", "ADV+1", "3D Stencil", "Many to Many", "Random Neighbors")
    )
    load_of = {
        pattern: (load if load is not None else _scaleup_reference_load(scale, pattern))
        for pattern in patterns
    }
    return Study(
        name="fig9",
        description="Figure 9: scale-up case study, five traffic patterns",
        config=scale.scaleup_config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
        scenarios=[
            Scenario(
                name="scaleup",
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern={p: (load_of[p],) for p in patterns},
                routing_kwargs=_qadp_kwargs(scale, scaleup=True),
            )
        ],
    )


# ----------------------------------------------------------------- ablations
def ablation_maxq_study(
    scale: Optional[ExperimentScale] = None,
    maxq_values: Sequence[int] = (1, 3, 5, 7),
    patterns: Optional[Sequence[str]] = None,
    load: Optional[float] = None,
) -> Study:
    """Section 2.3.2: naive Q-routing with a maxQ hop threshold."""
    scale = scale or default_scale()
    patterns = tuple(patterns or ("UR", "ADV+1", "ADV+4"))
    load_of = {
        pattern: (load if load is not None else _reference_load(scale, pattern))
        for pattern in patterns
    }
    return Study(
        name="ablation-maxq",
        description="Section 2.3.2: no single maxQ suits both UR and ADV+i",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
        scenarios=[
            Scenario(
                name=f"maxQ={maxq}",
                routing=("Q-routing",),
                pattern=patterns,
                loads_by_pattern={p: (load_of[p],) for p in patterns},
                routing_kwargs={"Q-routing": {"max_q": int(maxq)}},
            )
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
    return Study(
        name="ablation-hyperparams",
        description="Section 4: q_thld1 threshold x feedback rule ablation",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
        scenarios=[
            Scenario(
                name=f"{feedback} q_thld1={thld1}",
                routing=("Q-adp",),
                pattern=(pattern,),
                loads=(load,),
                routing_kwargs={
                    "Q-adp": {
                        "params": type(base)(
                            alpha=base.alpha,
                            beta=base.beta,
                            epsilon=base.epsilon,
                            q_thld1=thld1,
                            q_thld2=base.q_thld2,
                            feedback=feedback,
                        )
                    }
                },
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
    return Study(
        name="transfer",
        description="Transfer: train Q-adp on UR, evaluate on adversarial + "
                    "shifted-load traffic",
        config=scale.config,
        sim_time_ns=eval_warmup + scale.measure_ns,
        warmup_ns=eval_warmup,
        seed=scale.seed,
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
    loads_of = {
        pattern: tuple(scale.ur_loads if pattern.upper() == "UR" else scale.adv_loads)
        for pattern in patterns
    }
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
    return Study(
        name="warm-fig5",
        description="Figure 5 sweep, train-once/eval-many: one checkpoint "
                    "feeds every load point of the learned algorithms",
        config=scale.config,
        sim_time_ns=eval_warmup + scale.measure_ns,
        warmup_ns=eval_warmup,
        seed=scale.seed,
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
    load_of = {
        pattern: (load if load is not None else _reference_load(scale, pattern))
        for pattern in patterns
    }
    return Study(
        name="fairness",
        description="Per-source-group latency fairness (Jain index) and "
                    "hotspot link utilization under adversarial traffic",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
        telemetry=("source-latency", "link-util"),
        scenarios=[
            Scenario(
                name="fairness",
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern={p: (load_of[p],) for p in patterns},
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
    return Study(
        name="link-heatmap",
        description="Per-link busy fractions and queue hotspots: minimal vs "
                    "adaptive routing under one adversarial pattern",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
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
    from repro.experiments.presets import scale_by_name

    scale = scale or default_scale()
    algorithms = tuple(algorithms or ("Q-routing", "MIN", "VAL"))
    patterns = tuple(patterns or ("UR", "Hotspot"))

    def loads_of(sc: ExperimentScale) -> Dict[str, Tuple[float, ...]]:
        return {p: (_reference_load(sc, p),) for p in patterns}

    fattree = scale_by_name("fattree-bench")
    mesh = scale_by_name("mesh-bench")
    torus = scale_by_name("torus-bench")
    return Study(
        name="cross-topology",
        description="Q-routing vs MIN vs VAL under UR/hotspot traffic on "
                    "Dragonfly, fat-tree, mesh and torus, with per-link "
                    "utilization heatmaps",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
        telemetry=("link-util", "queue-occupancy"),
        scenarios=[
            Scenario(
                name="dragonfly",
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=loads_of(scale),
            ),
            Scenario(
                name="fattree",
                config=fattree.config,
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=loads_of(fattree),
            ),
            Scenario(
                name="mesh",
                config=mesh.config,
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=loads_of(mesh),
            ),
            Scenario(
                name="torus",
                config=torus.config,
                routing=algorithms,
                pattern=patterns,
                loads_by_pattern=loads_of(torus),
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
    from repro.experiments.presets import scale_by_name

    scale = scale or default_scale()
    algorithms = tuple(algorithms or ("Q-routing", "MIN", "VAL"))
    df_patterns = tuple(patterns or ("UR", "ADV+1", "Hotspot"))
    # ADV+i shifts by Dragonfly group — keep only generic patterns elsewhere.
    generic = tuple(
        p for p in df_patterns
        if not canonical_pattern_name(p).upper().startswith("ADV")
    ) or ("UR",)

    def loads_of(sc: ExperimentScale,
                 pats: Sequence[str]) -> Dict[str, Tuple[float, ...]]:
        return {p: (_reference_load(sc, p),) for p in pats}

    def fault_for(config: object) -> FaultSchedule:
        # Scenarios inherit the *study* windows, so every family's failure
        # lands at the same simulated time.
        return _single_link_fault(config, scale.warmup_ns, scale.sim_time_ns)

    mesh = scale_by_name("mesh-bench")
    torus = scale_by_name("torus-bench")
    return Study(
        name="resilience",
        description="Degraded-mode routing: delivery rate per failure epoch "
                    "and latency re-convergence time after a mid-run link "
                    "failure, per algorithm and topology family",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
        telemetry=("fault-delivery", "reconvergence"),
        scenarios=[
            Scenario(
                name="dragonfly",
                routing=algorithms,
                pattern=df_patterns,
                loads_by_pattern=loads_of(scale, df_patterns),
                faults=fault_for(scale.config),
            ),
            Scenario(
                name="mesh",
                config=mesh.config,
                routing=algorithms,
                pattern=generic,
                loads_by_pattern=loads_of(mesh, generic),
                faults=fault_for(mesh.config),
            ),
            Scenario(
                name="torus",
                config=torus.config,
                routing=algorithms,
                pattern=generic,
                loads_by_pattern=loads_of(torus, generic),
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
    return Study(
        name="headline",
        description="headline comparison (reduced scale)",
        config=scale.config,
        sim_time_ns=scale.sim_time_ns,
        warmup_ns=scale.warmup_ns,
        seed=scale.seed,
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


register_study("fig5", fig5_study, aliases=("figure5",),
               metadata={"summary": "Figure 5: latency/throughput/hops vs load"})
register_study("fig6", fig6_study, aliases=("figure6",),
               metadata={"summary": "Figure 6: latency distribution per pattern"})
register_study("fig7", fig7_study, aliases=("figure7",),
               metadata={"summary": "Figure 7: Q-adaptive convergence curves"})
register_study("fig8", fig8_study, aliases=("figure8",),
               metadata={"summary": "Figure 8: throughput under dynamic load"})
register_study("fig9", fig9_study, aliases=("figure9",),
               metadata={"summary": "Figure 9: scale-up case study"})
register_study("ablation-maxq", ablation_maxq_study,
               metadata={"summary": "Section 2.3.2: Q-routing maxQ ablation"})
register_study("ablation-hyperparams", ablation_hyperparams_study,
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
