"""Reproduction of every table and figure of the paper's evaluation.

Each function regenerates the data series behind one table/figure and returns
plain dictionaries (JSON-friendly) so benchmarks, examples and the CLI can
print or compare them.  The mapping to the paper:

====================== ==========================================================
function               paper artefact
====================== ==========================================================
``table1_configurations``  Table 1 (Dragonfly configurations)
``table_qtable_memory``    Tables 2–3 (Q-table vs two-level Q-table memory)
``figure5_sweep``          Figure 5 (latency / throughput / hops vs offered load)
``figure6_tail_latency``   Figure 6 (latency distribution, mean/p95/p99)
``figure7_convergence``    Figure 7 (convergence from an empty network)
``figure8_dynamic_load``   Figure 8 (throughput under varying offered load)
``figure9_scaleup``        Figure 9 (scale-up case study, five patterns)
``ablation_maxq``          Section 2.3.2 discussion (naive Q-routing maxQ)
``ablation_hyperparams``   Section 4 design choices (thresholds, feedback rule)
====================== ==========================================================

Every simulation-backed driver is a thin *reducer* over the corresponding
declarative study in :mod:`repro.scenarios.catalog`: the study defines the
scenario grid (and can be exported to a JSON/YAML file, listed and run by the
CLI), the driver reshapes the study's results into the figure's data layout.
Because both paths expand to identical :class:`ExperimentSpec` lists, they
share cache fingerprints — ``repro-sim figure fig5`` and ``repro-sim study
run fig5`` memoize into the same entries.

All functions take an :class:`~repro.experiments.presets.ExperimentScale`;
the default (``BENCH_SCALE`` unless ``REPRO_SCALE`` is set) keeps run times
reasonable for pure Python.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.qtable import qtable_memory_comparison
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import SweepRunner
from repro.experiments.presets import ExperimentScale
from repro.scenarios.catalog import (
    ablation_hyperparams_study,
    ablation_maxq_study,
    fig5_study,
    fig6_study,
    fig7_study,
    fig8_study,
    fig9_study,
)
from repro.scenarios.study import StudyResult
from repro.stats.summary import fraction_below
from repro.topology.config import DragonflyConfig


# --------------------------------------------------------------------- tables
def table1_configurations(
    configs: Optional[Sequence[DragonflyConfig]] = None,
) -> List[Dict[str, object]]:
    """Rows of Table 1: derived sizes of the evaluated Dragonfly systems."""
    if configs is None:
        configs = (DragonflyConfig.paper_1056(), DragonflyConfig.paper_2550())
    return [config.describe() for config in configs]


def table_qtable_memory(
    configs: Optional[Sequence[DragonflyConfig]] = None,
) -> List[Dict[str, object]]:
    """Per-router memory of the original vs two-level Q-table (Tables 2–3)."""
    if configs is None:
        configs = (DragonflyConfig.paper_1056(), DragonflyConfig.paper_2550())
    rows = []
    for config in configs:
        row: Dict[str, object] = {"N": config.num_nodes}
        row.update(qtable_memory_comparison(config))
        rows.append(row)
    return rows


# ------------------------------------------------------------------- figure 5
def figure5_sweep(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    loads_by_pattern: Optional[Dict[str, Sequence[float]]] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, Dict[str, List[float]]]]:
    """Figure 5: latency, throughput and hop count vs offered load.

    Returns ``{pattern: {algorithm: {"loads", "latency_us", "throughput",
    "hops"}}}`` — the nine panels of Figure 5 are the three metrics of the
    three patterns.
    """
    study = fig5_study(scale, algorithms, patterns, loads_by_pattern)
    run = study.run(runner)
    sweep = study.scenarios[0]

    flat = iter(run.results)
    results: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for pattern in sweep.pattern:
        loads = list(sweep.loads_for(pattern))
        per_pattern: Dict[str, Dict[str, List[float]]] = {}
        for algorithm in sweep.routing:
            series = {"loads": loads, "latency_us": [], "throughput": [], "hops": []}
            for _ in loads:
                result = next(flat)
                series["latency_us"].append(result.mean_latency_us)
                series["throughput"].append(result.throughput)
                series["hops"].append(result.mean_hops)
            per_pattern[algorithm] = series
        results[pattern] = per_pattern
    return results


# ------------------------------------------------------------------- figure 6
def _distribution_row(result: ExperimentResult) -> Dict[str, float]:
    summary = result.stats.latency.as_microseconds()
    summary["mean_hops"] = result.mean_hops
    summary["throughput"] = result.throughput
    summary["fraction_below_2us"] = fraction_below(result.latencies_ns, 2_000.0)
    return summary


def _reduce_distribution(run: StudyResult) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Shared reducer of figures 6 and 9: per-pattern, per-algorithm summaries."""
    scenario = run.study.scenarios[0]
    flat = iter(run.results)
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for pattern in scenario.pattern:
        per_pattern: Dict[str, Dict[str, float]] = {}
        for algorithm in scenario.routing:
            row = _distribution_row(next(flat))
            row["offered_load"] = scenario.loads_for(pattern)[0]
            per_pattern[algorithm] = row
        results[pattern] = per_pattern
    return results


def figure6_tail_latency(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    loads: Optional[Dict[str, float]] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 6: packet latency distribution at a fixed load per pattern.

    The paper fixes UR at load 0.8 and ADV+i at 0.45; the scaled presets use
    their own reference loads.  Returns ``{pattern: {algorithm: summary}}``
    where each summary holds mean / median / p95 / p99 / quartiles /
    whiskers (µs) plus the fraction of packets below 2 µs.
    """
    study = fig6_study(scale, algorithms, patterns, loads)
    return _reduce_distribution(study.run(runner))


# ------------------------------------------------------------------- figure 7
def figure7_convergence(
    scale: Optional[ExperimentScale] = None,
    cases: Optional[Sequence[Tuple[str, float]]] = None,
    bin_ns: float = 5_000.0,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Figure 7: Q-adaptive latency over time, starting from an empty network.

    Returns ``{"<pattern> load <L>": {"time_us": [...], "latency_us": [...]}}``.
    """
    study = fig7_study(scale, cases, bin_ns)
    run = study.run(runner)
    curves: Dict[str, Dict[str, List[float]]] = {}
    for point, result in run:
        times, values = result.latency_timeline_us
        curves[point.scenario] = {
            "time_us": [float(t) for t in times],
            "latency_us": [float(v) for v in values],
            "final_latency_us": float(values[-1]) if len(values) else float("nan"),
        }
    return curves


# ------------------------------------------------------------------- figure 8
def figure8_dynamic_load(
    scale: Optional[ExperimentScale] = None,
    cases: Optional[Sequence[Tuple[str, float, float]]] = None,
    bin_ns: float = 5_000.0,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Figure 8: system throughput while the offered load steps up or down.

    Each case is ``(pattern, initial_load, new_load)``; the load changes at
    ``scale.convergence_ns`` and the run lasts twice that long.  Returns the
    binned throughput time series per case.
    """
    study = fig8_study(scale, cases, bin_ns)
    run = study.run(runner)
    curves: Dict[str, Dict[str, List[float]]] = {}
    for point, result in run:
        times, values = result.throughput_timeline
        step_time_ns = point.spec.schedule.phases[1].start_ns
        curves[point.scenario] = {
            "time_us": [float(t) for t in times],
            "throughput": [float(v) for v in values],
            "step_time_us": step_time_ns / 1_000.0,
            "final_throughput": float(values[-1]) if len(values) else float("nan"),
        }
    return curves


# ------------------------------------------------------------------- figure 9
def figure9_scaleup(
    scale: Optional[ExperimentScale] = None,
    algorithms: Optional[Sequence[str]] = None,
    patterns: Optional[Sequence[str]] = None,
    load: Optional[float] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 9: latency distributions on the scale-up system, five patterns.

    Patterns default to the paper's set (UR, ADV+1, 3D Stencil, Many to Many,
    Random Neighbors) run on ``scale.scaleup_config`` with the Section 6
    hyper-parameters.
    """
    study = fig9_study(scale, algorithms, patterns, load)
    return _reduce_distribution(study.run(runner))


# ------------------------------------------------------------------ ablations
def ablation_maxq(
    scale: Optional[ExperimentScale] = None,
    maxq_values: Sequence[int] = (1, 3, 5, 7),
    patterns: Optional[Sequence[str]] = None,
    load: Optional[float] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Section 2.3.2: naive Q-routing with a maxQ hop threshold.

    Demonstrates that no single maxQ value works for both UR and ADV+i, which
    motivates the Q-adaptive design.  Returns
    ``{pattern: {maxQ: {"latency_us", "throughput", "hops"}}}``.
    """
    study = ablation_maxq_study(scale, maxq_values, patterns, load)
    run = study.run(runner)
    scenario_patterns = study.scenarios[0].pattern
    scenarios = {scenario.name: scenario for scenario in study.scenarios}

    results: Dict[str, Dict[int, Dict[str, float]]] = {}
    for pattern in scenario_patterns:
        per_pattern: Dict[int, Dict[str, float]] = {}
        for maxq in maxq_values:
            scenario = scenarios[f"maxQ={int(maxq)}"]
            result = run.get(scenario=scenario.name, pattern=pattern)
            per_pattern[maxq] = {
                "latency_us": result.mean_latency_us,
                "throughput": result.throughput,
                "hops": result.mean_hops,
                "offered_load": scenario.loads_for(pattern)[0],
            }
        results[pattern] = per_pattern
    return results


def ablation_hyperparams(
    scale: Optional[ExperimentScale] = None,
    pattern: str = "ADV+1",
    load: Optional[float] = None,
    q_thld1_values: Sequence[float] = (0.0, 0.2, 0.5),
    feedback_modes: Sequence[str] = ("onpolicy", "greedy"),
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, float]]:
    """Section 4 design knobs: minimal-path bias threshold and feedback rule."""
    study = ablation_hyperparams_study(scale, pattern, load, q_thld1_values,
                                       feedback_modes)
    run = study.run(runner)
    scenarios = {scenario.name: scenario for scenario in study.scenarios}

    rows: List[Dict[str, float]] = []
    for feedback in feedback_modes:
        for thld1 in q_thld1_values:
            name = f"{feedback} q_thld1={thld1}"
            result = run.get(scenario=name)
            rows.append(
                {
                    "feedback": feedback,
                    "q_thld1": thld1,
                    "pattern": pattern,
                    "offered_load": scenarios[name].loads[0],
                    "latency_us": result.mean_latency_us,
                    "throughput": result.throughput,
                    "hops": result.mean_hops,
                }
            )
    return rows
