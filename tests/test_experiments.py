"""Tests for the experiment harness, presets and the paper's figures."""

import inspect
import tomllib
from pathlib import Path

import pytest

from repro.experiments import (
    BENCH_SCALE,
    PAPER_SCALE_1056,
    REDUCED_SCALE,
    ExperimentSpec,
    default_scale,
    run_experiment,
    train_experiment,
)
from repro.experiments.presets import PAPER_ALGORITHMS, ExperimentScale, scale_by_name
from repro.scenarios import Study, figure
from repro.topology.config import DragonflyConfig

TINY = DragonflyConfig.tiny()
#: a very small scale so the figures finish in seconds inside the test suite
TEST_SCALE = BENCH_SCALE.with_overrides(
    config=TINY,
    scaleup_config=DragonflyConfig.small_72(),
    warmup_ns=3_000.0,
    measure_ns=3_000.0,
    convergence_ns=8_000.0,
    ur_loads=(0.2,),
    adv_loads=(0.2,),
    ur_reference_load=0.3,
    adv_reference_load=0.2,
)


# -------------------------------------------------------------------- presets
def test_scale_presets_are_consistent():
    for scale in (BENCH_SCALE, REDUCED_SCALE, PAPER_SCALE_1056):
        assert scale.sim_time_ns == scale.warmup_ns + scale.measure_ns
        assert ExperimentScale.from_dict(scale.to_dict()) == scale
    assert PAPER_SCALE_1056.config.num_nodes == 1056
    assert scale_by_name("reduced") is REDUCED_SCALE
    with pytest.raises(ValueError):
        scale_by_name("bogus")


def test_default_scale_env_selection():
    assert default_scale(env={}) is BENCH_SCALE
    assert default_scale(env={"REPRO_SCALE": "paper"}) is PAPER_SCALE_1056
    assert default_scale(env={"REPRO_SCALE": "reduced"}) is REDUCED_SCALE
    # one spelling per scale: REPRO_PAPER_SCALE is not an option
    assert default_scale(env={"REPRO_PAPER_SCALE": "1"}) is BENCH_SCALE


# ------------------------------------------------- one spelling per run option
def test_entry_points_take_only_the_keywords_they_read():
    import dataclasses

    import repro.experiments.parallel
    from repro.experiments import RunOptions

    def keywords(entry_point):
        return {name for name, p in inspect.signature(entry_point).parameters.items()
                if p.kind is p.KEYWORD_ONLY}

    assert keywords(run_experiment) == {"save_state", "store"}
    assert keywords(train_experiment) == {"save_state", "store", "reuse"}
    assert keywords(Study.run) == {"store"}
    for entry_point in (run_experiment, train_experiment, Study.run):
        assert "options" not in inspect.signature(entry_point).parameters
    assert [f.name for f in dataclasses.fields(RunOptions)] == ["backend"]
    assert not hasattr(RunOptions, "apply_to_spec")
    assert not hasattr(RunOptions, "make_runner")
    assert not hasattr(repro.experiments.parallel, "resolve_runner")
    spec = ExperimentSpec(config=TINY, routing="MIN", pattern="UR",
                          offered_load=0.2, sim_time_ns=2_000.0, warmup_ns=0.0)
    with pytest.raises(TypeError):
        run_experiment(spec, workers=2)
    with pytest.raises(TypeError):
        train_experiment(spec, name="tag")


def test_removed_aliases_stay_removed():
    import repro
    import repro.experiments
    import repro.network
    import repro.network.network
    from repro.cli import main
    from repro.experiments import SweepRunner
    from repro.network.nic import Nic

    for module in (repro, repro.network, repro.network.network):
        assert not hasattr(module, "DragonflyNetwork")
    assert not hasattr(Nic, "on_delivery")
    assert not hasattr(repro.experiments, "derive_run_seed")
    # one way to run a list of specs: SweepRunner.run
    assert not hasattr(repro.experiments, "run_load_sweep")
    assert not hasattr(SweepRunner, "run_batched")
    assert "backend" not in inspect.signature(SweepRunner.run_replicates).parameters
    for argv in (["run", "--backend", "scalar"],
                 ["study", "run", "fig5", "--backend", "scalar"]):
        with pytest.raises(SystemExit) as usage_error:
            main(argv)
        assert usage_error.value.code == 2  # argparse: unrecognized arguments
    # one event shape: a tuple heap owned by Simulator, with no handles
    import repro.engine
    from repro.engine import Simulator

    with pytest.raises(ImportError):
        import repro.engine.events  # noqa: F401
    assert not hasattr(repro.engine, "Event")
    assert not hasattr(repro.engine, "EventQueue")
    assert not hasattr(Simulator, "step")
    assert not hasattr(Simulator, "reset")
    assert "max_events" not in inspect.signature(Simulator.run).parameters
    assert "max_events" not in inspect.signature(repro.network.Network.run).parameters


def test_version_is_single_sourced():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]


# --------------------------------------------------------------------- tables
def test_table1_reproduces_paper_values():
    rows = figure("table1")
    assert rows[0]["N"] == 1056 and rows[0]["m"] == 264 and rows[0]["k"] == 15
    assert rows[1]["N"] == 2550 and rows[1]["m"] == 510 and rows[1]["g"] == 51


def test_qtable_memory_reports_fifty_percent_saving():
    rows = figure("qtable-memory")
    for row in rows:
        assert row["saving_fraction"] == pytest.approx(0.5)


# -------------------------------------------------------------------- harness
def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(config=TINY, offered_load=None)
    with pytest.raises(ValueError):
        ExperimentSpec(config=TINY, warmup_ns=10.0, sim_time_ns=5.0)
    spec = ExperimentSpec(config=TINY, offered_load=0.2, label="custom")
    assert spec.display_name == "custom"
    assert "MIN" in ExperimentSpec(config=TINY, offered_load=0.2).display_name


def test_run_experiment_returns_complete_result():
    spec = ExperimentSpec(
        config=TINY, routing="Q-adp", pattern="UR", offered_load=0.3,
        sim_time_ns=6_000.0, warmup_ns=3_000.0, seed=2,
    )
    result = run_experiment(spec)
    assert result.stats.delivered_packets > 0
    assert result.mean_latency_us > 0
    assert 0.0 < result.throughput <= 1.0
    assert result.latencies_ns.size == result.stats.measured_packets
    times, values = result.latency_timeline_us
    assert len(times) == len(values) > 0
    assert "feedback_applied" in result.routing_diagnostics
    row = result.summary_row()
    assert row["routing"] == "Q-adp" and row["pattern"] == "UR"


def test_run_experiment_is_deterministic():
    spec = ExperimentSpec(config=TINY, routing="UGALn", pattern="ADV+1", offered_load=0.25,
                          sim_time_ns=5_000.0, warmup_ns=2_000.0, seed=11)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.stats.delivered_packets == b.stats.delivered_packets
    assert a.stats.mean_latency_ns == pytest.approx(b.stats.mean_latency_ns)


def test_summary_row_reports_dyn_for_schedule_runs():
    from repro.traffic import LoadSchedule

    spec = ExperimentSpec(
        config=TINY, routing="MIN", pattern="UR", offered_load=None,
        schedule=LoadSchedule.step(0.2, 2_000.0, 0.4),
        sim_time_ns=4_000.0, warmup_ns=0.0, seed=5,
    )
    row = run_experiment(spec).summary_row()
    assert row["offered_load"] == "dyn"


# -------------------------------------------------------------------- figures
def test_figure5_structure():
    data = figure("fig5", TEST_SCALE, algorithms=("MIN", "Q-adp"), patterns=("UR",))
    assert set(data) == {"UR"}
    assert set(data["UR"]) == {"MIN", "Q-adp"}
    series = data["UR"]["MIN"]
    assert series["loads"] == [0.2]
    assert len(series["latency_us"]) == len(series["throughput"]) == len(series["hops"]) == 1


def test_figure6_structure():
    data = figure("fig6", TEST_SCALE, algorithms=("MIN", "UGALn"), patterns=("ADV+1",))
    row = data["ADV+1"]["MIN"]
    for key in ("mean", "p95", "p99", "q1", "q3", "fraction_below_2us", "offered_load"):
        assert key in row


def test_figure7_convergence_series():
    curves = figure("fig7", TEST_SCALE, cases=(("UR", 0.3),), bin_ns=2_000.0)
    key = "UR load 0.3"
    assert key in curves
    assert len(curves[key]["time_us"]) == len(curves[key]["latency_us"]) > 0


def test_figure8_dynamic_load_series():
    curves = figure("fig8", TEST_SCALE, cases=(("UR", 0.2, 0.4),), bin_ns=2_000.0)
    key = "UR 0.2->0.4"
    assert key in curves
    assert curves[key]["step_time_us"] == TEST_SCALE.convergence_ns / 1_000.0
    assert len(curves[key]["throughput"]) > 0


def test_figure9_structure():
    data = figure("fig9", TEST_SCALE, algorithms=("MIN",), patterns=("UR",), load=0.2)
    assert set(data) == {"UR"}
    assert data["UR"]["MIN"]["offered_load"] == 0.2


def test_ablation_maxq_structure():
    data = figure("ablation-maxq", TEST_SCALE, maxq_values=(0, 2), patterns=("UR",))
    assert set(data["UR"]) == {0, 2}
    assert "throughput" in data["UR"][0]


def test_ablation_maxq_reads_integer_values():
    from repro.scenarios.catalog import ablation_maxq_study

    with pytest.raises(ValueError, match="maxq_values must be an integer, got 1.5"):
        ablation_maxq_study(TEST_SCALE, maxq_values=(1.5,))
    (scenario,) = ablation_maxq_study(TEST_SCALE, maxq_values=(2.0,)).scenarios
    assert scenario.name == "maxQ=2"
    max_q = scenario.routing_kwargs["Q-routing"]["max_q"]
    assert max_q == 2 and type(max_q) is int
    data = figure("ablation-maxq", TEST_SCALE, maxq_values=(2.0,), patterns=("UR",))
    assert list(data["UR"]) == [2]


def test_ablation_hyperparams_structure():
    rows = figure("ablation-hyperparams", TEST_SCALE, pattern="UR",
                  q_thld1_values=(0.2,), feedback_modes=("onpolicy",))
    assert len(rows) == 1
    assert rows[0]["feedback"] == "onpolicy"
    assert rows[0]["q_thld1"] == 0.2


def test_figures_come_from_the_study_registry():
    from repro.cli import build_parser
    from repro.scenarios import STUDIES, figure_names, study_by_name

    names = figure_names()
    assert names[:2] == ["table1", "qtable-memory"]
    studies = names[2:]
    assert studies == [row["name"] for row in STUDIES.describe() if "layout" in row]
    # each figure is a study of its own name, and the CLI offers exactly these
    parser = build_parser()
    for name in studies:
        assert study_by_name(name, TEST_SCALE).name == name
    for name in names:
        assert parser.parse_args(["figure", name]).name == name
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "headline"])
    # a study without a layout is not a figure; an unknown name is refused
    with pytest.raises(ValueError, match="not a figure"):
        figure("headline", TEST_SCALE)
    with pytest.raises(ValueError, match="unknown study"):
        figure("fig10", TEST_SCALE)
    # the drivers the registry replaced are gone
    import repro.experiments

    with pytest.raises(ImportError):
        import repro.experiments.figures  # noqa: F401
    for old in ("figure6_tail_latency", "figure7_convergence", "figure8_dynamic_load",
                "figure9_scaleup", "ablation_maxq", "ablation_hyperparams",
                "table1_configurations", "table_qtable_memory"):
        assert not hasattr(repro.experiments, old)


def test_paper_algorithm_list_matches_figure_legend():
    assert list(PAPER_ALGORITHMS) == ["MIN", "VALn", "UGALg", "UGALn", "PAR", "Q-adp"]
