"""Tests for the Study layer: expansion, serialization, execution, parity."""

import json
import re
from pathlib import Path

import pytest

from repro.core.qadaptive import QAdaptiveParams
from repro.engine.rng import derive_replicate_seed
from repro.experiments import SweepRunner, spec_fingerprint
from repro.experiments.presets import BENCH_SCALE
from repro.scenarios import Scenario, Study, figure, load_study, study_by_name
from repro.scenarios.catalog import (
    STUDIES,
    fig5_study,
    fig8_study,
    register_study,
    warm_fig5_study,
)
from repro.topology.config import DragonflyConfig
from repro.traffic import LoadSchedule

TINY = DragonflyConfig.tiny()

#: a scale small enough that studies execute in seconds inside the suite
TINY_SCALE = BENCH_SCALE.with_overrides(
    config=TINY,
    scaleup_config=TINY,
    warmup_ns=2_000.0,
    measure_ns=2_000.0,
    convergence_ns=4_000.0,
    ur_loads=(0.2,),
    adv_loads=(0.2,),
    ur_reference_load=0.3,
    adv_reference_load=0.2,
)


def _study(**overrides) -> Study:
    base = dict(
        name="unit",
        config=TINY,
        sim_time_ns=4_000.0,
        warmup_ns=2_000.0,
        scenarios=[
            Scenario(name="grid", routing=("MIN", "VALn"), pattern=("UR",),
                     loads=(0.1, 0.2)),
        ],
    )
    base.update(overrides)
    return Study(**base)


# ------------------------------------------------------------------ validation
def test_scenario_needs_loads_or_schedule_but_not_both():
    with pytest.raises(ValueError, match="needs a loads axis or a schedule"):
        Scenario(name="empty")
    with pytest.raises(ValueError, match="not both"):
        Scenario(name="both", loads=(0.1,), schedule=LoadSchedule.constant(0.2))
    with pytest.raises(ValueError, match="replicates"):
        Scenario(name="r", loads=(0.1,), replicates=0)


def test_study_rejects_duplicate_or_missing_scenarios():
    with pytest.raises(ValueError, match="no scenarios"):
        Study(name="empty", config=TINY, scenarios=[])
    scenario = Scenario(name="twin", loads=(0.1,))
    with pytest.raises(ValueError, match="duplicate scenario name"):
        Study(name="dup", config=TINY, scenarios=[scenario, scenario])


def test_scenario_canonicalises_names_and_kwarg_keys():
    scenario = Scenario(
        name="canon", routing=("minimal", "qadp"), pattern=("uniform", "adv4"),
        loads=(0.1,), routing_kwargs={"q adaptive": {"params": QAdaptiveParams()}},
        loads_by_pattern={"adv+4": (0.05,)},
    )
    assert scenario.routing == ("MIN", "Q-adp")
    assert scenario.pattern == ("UR", "ADV+4")
    assert "Q-adp" in scenario.routing_kwargs
    assert scenario.loads_for("ADV+4") == (0.05,)
    assert scenario.loads_for("UR") == (0.1,)


# ------------------------------------------------------------------- expansion
def test_expansion_order_and_counts():
    study = _study()
    points = study.expand()
    # contract: pattern -> routing -> load -> replicate
    assert [(p.spec.routing, p.spec.offered_load) for p in points] == [
        ("MIN", 0.1), ("MIN", 0.2), ("VALn", 0.1), ("VALn", 0.2),
    ]
    assert all(p.scenario == "grid" and p.replicate == 0 for p in points)
    assert all(p.spec.sim_time_ns == 4_000.0 for p in points)


def test_replicates_derive_seeds_and_keep_replicate_zero():
    study = _study(scenarios=[
        Scenario(name="rep", routing=("MIN",), pattern=("UR",), loads=(0.2,),
                 replicates=3, seed=9),
    ])
    seeds = [p.spec.seed for p in study.expand()]
    assert seeds == [9, derive_replicate_seed(9, 1), derive_replicate_seed(9, 2)]
    assert [p.replicate for p in study.expand()] == [0, 1, 2]


def test_seeds_are_checked_integers(tmp_path):
    from repro.scenarios.study import TrainStage

    grid = [Scenario(name="a", loads=(0.1,), replicates=2)]
    for bad in (1.5, True):
        with pytest.raises(ValueError, match=r"study 's': seed must be an integer"):
            _study(name="s", seed=bad, scenarios=grid)
    with pytest.raises(ValueError, match=r"scenario 'a': seed must be an integer"):
        Scenario(name="a", loads=(0.1,), seed=True)
    with pytest.raises(ValueError, match=r"TrainStage: seed must be an integer"):
        TrainStage(seed=2.5)
    assert Scenario(name="a", loads=(0.1,), seed=3.0).seed == 3
    assert TrainStage(seed=2.0).seed == 2
    # an integral float seed derives the same replicates as the int, and as
    # the study's own reloaded file
    as_float = _study(seed=1.0, scenarios=grid)
    as_int = _study(seed=1, scenarios=grid)
    reloaded = load_study(str(as_float.save(tmp_path / "s.json")))
    seeds = [p.spec.seed for p in as_int.expand()]
    assert seeds == [1, derive_replicate_seed(1, 1)]
    assert [p.spec.seed for p in as_float.expand()] == seeds
    assert [p.spec.seed for p in reloaded.expand()] == seeds


def test_scenario_overrides_beat_study_defaults():
    study = _study(scenarios=[
        Scenario(name="a", loads=(0.1,)),
        Scenario(name="b", loads=(0.1,), sim_time_ns=8_000.0, warmup_ns=1_000.0,
                 stats_bin_ns=500.0, seed=42, config=DragonflyConfig.small_72()),
    ])
    a, b = study.expand()
    assert a.spec.sim_time_ns == 4_000.0 and a.spec.seed == 1
    assert b.spec.sim_time_ns == 8_000.0 and b.spec.warmup_ns == 1_000.0
    assert b.spec.stats_bin_ns == 500.0 and b.spec.seed == 42
    assert b.spec.config == DragonflyConfig.small_72()


def test_missing_loads_for_pattern_is_actionable():
    study = _study(scenarios=[
        Scenario(name="partial", pattern=("UR", "ADV+1"),
                 loads_by_pattern={"UR": (0.1,)}),
    ])
    with pytest.raises(ValueError, match="no loads for pattern 'ADV\\+1'"):
        study.expand()


# --------------------------------------------------------------- serialization
def test_study_dict_round_trip_with_schedule_and_params():
    study = _study(scenarios=[
        Scenario(name="grid", routing=("MIN", "Q-adp"), pattern=("UR",),
                 loads=(0.1,), replicates=2,
                 routing_kwargs={"Q-adp": {"params": QAdaptiveParams(q_thld1=0.1)}}),
        Scenario(name="step", routing=("Q-adp",), pattern=("UR",),
                 schedule=LoadSchedule.step(0.1, 1_000.0, 0.3), warmup_ns=0.0),
    ])
    data = study.to_dict()
    json.dumps(data)  # JSON-ready
    clone = Study.from_dict(data)
    assert clone.to_dict() == data
    assert [p.spec for p in clone.expand()] == [p.spec for p in study.expand()]


def test_study_from_dict_strictness():
    data = _study().to_dict()
    bad = dict(data)
    bad["scenarois"] = []
    with pytest.raises(ValueError, match="unknown field"):
        Study.from_dict(bad)
    stale = dict(data)
    stale["schema"] = 0
    with pytest.raises(ValueError, match="unsupported schema version"):
        Study.from_dict(stale)


def test_study_json_and_yaml_files_round_trip(tmp_path):
    study = _study()
    json_path = study.save(tmp_path / "study.json")
    assert Study.load(json_path).to_dict() == study.to_dict()
    yaml = pytest.importorskip("yaml")  # noqa: F841 - optional dependency
    yaml_path = study.save(tmp_path / "study.yaml")
    assert Study.load(yaml_path).to_dict() == study.to_dict()
    with pytest.raises(ValueError, match="not valid JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        Study.load(bad)


def test_a_malformed_yaml_study_file_is_one_line_naming_the_file(tmp_path, capsys):
    pytest.importorskip("yaml")
    from repro.cli import main

    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [x\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad} is not valid YAML: ")):
        Study.load(bad)
    with pytest.raises(SystemExit) as exited:
        main(["study", "show", str(bad)])
    message = exited.value.code
    assert isinstance(message, str) and "\n" not in message and str(bad) in message


def test_a_bad_field_in_a_study_file_names_the_file_and_the_path(tmp_path):
    data = _study().to_dict()
    data["scenarios"][0]["network_params"] = {"vc_buffer_packets": 0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(
            f"{bad}: Study.scenarios[0].network_params: NetworkParams: vc_buffer_packets "
            "must be >= 1, got 0")):
        Study.load(bad)


def test_readme_scenario_examples_load_with_this_build():
    """Every copy-paste scenario file in README.md is readable as written."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
    documents = [json.loads(block) for block in blocks if '"scenarios"' in block]
    assert len(documents) >= 2
    for document in documents:
        study = Study.from_dict(document)
        assert study.name == document["name"]
        assert study.specs()
        assert Study.from_dict(study.to_dict()).to_dict() == study.to_dict()


def test_load_study_resolves_names_and_paths(tmp_path):
    by_name = load_study("fig5", TINY_SCALE)
    assert by_name.name == "fig5"
    path = by_name.save(tmp_path / "fig5.json")
    assert load_study(str(path)).to_dict() == by_name.to_dict()
    with pytest.raises(ValueError, match="unknown study"):
        load_study("not-a-study")


# ------------------------------------------------------------------- execution
def test_study_run_rows_filter_and_get():
    study = _study(scenarios=[
        Scenario(name="grid", routing=("MIN", "VALn"), pattern=("UR",),
                 loads=(0.1, 0.2)),
        Scenario(name="solo", routing=("VALg",), pattern=("UR",), loads=(0.2,)),
    ])
    result = study.run(SweepRunner(workers=1))
    assert len(result) == 5
    rows = result.rows()
    assert rows[0]["scenario"] == "grid" and "mean_latency_us" in rows[0]
    assert len(result.filter(routing="min")) == 2
    assert len(result.filter(pattern="UR")) == 5
    assert len(result.filter(scenario="solo")) == 1
    single = result.get(scenario="solo")
    assert single.spec.routing == "VALg"
    with pytest.raises(ValueError, match="exactly one"):
        result.get(routing="VALn")


def test_fig8_study_runs_schedules():
    study = fig8_study(TINY_SCALE, cases=(("UR", 0.1, 0.3),), bin_ns=2_000.0)
    result = study.run(SweepRunner(workers=1))
    (point, run), = list(result)
    assert point.spec.schedule is not None
    assert point.spec.offered_load is None
    assert run.stats.delivered_packets > 0


# ----------------------------------------------- figure <-> study file parity
def test_fig5_scenario_file_and_figure_driver_share_cache(tmp_path):
    """A serialized fig5 study reproduces the figure bit-for-bit and shares
    its cache fingerprints."""
    kwargs = dict(algorithms=("MIN", "Q-adp"), patterns=("UR", "ADV+1"))
    study = fig5_study(TINY_SCALE, **kwargs)
    path = study.save(tmp_path / "fig5.json")
    reloaded = load_study(str(path))

    # serialized file expands to the exact specs the figure runs
    assert [spec_fingerprint(s) for s in reloaded.specs()] == \
        [spec_fingerprint(s) for s in study.specs()]

    cache = tmp_path / "cache"
    study_runner = SweepRunner(workers=1, cache_dir=cache)
    reloaded.run(study_runner)
    assert study_runner.simulated == 4 and study_runner.cache_hits == 0

    figure_runner = SweepRunner(workers=1, cache_dir=cache)
    from_cache = figure("fig5", TINY_SCALE, runner=figure_runner, **kwargs)
    assert figure_runner.simulated == 0, "the figure must hit the study's cache"
    assert figure_runner.cache_hits == 4

    direct = figure("fig5", TINY_SCALE, runner=SweepRunner(workers=1), **kwargs)
    assert json.dumps(from_cache, sort_keys=True) == json.dumps(direct, sort_keys=True)


@pytest.mark.parametrize("build", [fig5_study, warm_fig5_study])
def test_load_sweeps_pick_the_ur_axis_for_any_spelling_of_ur(build):
    loads = {(p.spec.pattern, p.spec.offered_load)
             for p in build(BENCH_SCALE, algorithms=("MIN",), patterns=("uniform",)).expand()}
    assert loads == {("UR", load) for load in BENCH_SCALE.ur_loads} == \
        {("UR", 0.2), ("UR", 0.5), ("UR", 0.7)}


def test_fig5_load_overrides_match_any_spelling():
    for patterns, given in ((("uniform",), "UR"), (("UR",), "uniform")):
        study = fig5_study(BENCH_SCALE, algorithms=("MIN",), patterns=patterns,
                           loads_by_pattern={given: (0.3,)})
        assert [(p.spec.pattern, p.spec.offered_load) for p in study.expand()] == [("UR", 0.3)]


# -------------------------------------------------------------- study registry
def test_register_study_plugin():
    def builder(scale=None):
        return _study(name="custom-study")

    register_study("custom-study", builder, metadata={"summary": "unit test"})
    try:
        study = study_by_name("custom-study")
        assert study.name == "custom-study"
    finally:
        STUDIES.unregister("custom-study")
