"""Tests for the versioned spec serialization and the re-based fingerprints."""

import json
import re

import pytest

from repro.core.qadaptive import QAdaptiveParams
from repro.core.qrouting import QRoutingParams
from repro.experiments import ExperimentSpec, spec_fingerprint
from repro.experiments.presets import scale_by_name
from repro.network.params import NetworkParams
from repro.scenarios.catalog import STUDIES, study_by_name
from repro.scenarios.study import Study
from repro.topology.config import DragonflyConfig
from repro.traffic import LoadSchedule

TINY = DragonflyConfig.tiny()


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        config=TINY, routing="MIN", pattern="UR", offered_load=0.2,
        sim_time_ns=4_000.0, warmup_ns=2_000.0, seed=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ----------------------------------------------------------- component types
def test_dragonfly_config_round_trip_and_strictness():
    config = DragonflyConfig.paper_1056()
    assert DragonflyConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError, match="unknown field"):
        DragonflyConfig.from_dict({"p": 4, "a": 8, "h": 4, "radix": 15})
    with pytest.raises(ValueError, match="missing required"):
        DragonflyConfig.from_dict({"p": 4, "a": 8})
    with pytest.raises(ValueError, match="must be an integer"):
        DragonflyConfig.from_dict({"p": 4.5, "a": 8, "h": 4})


def test_network_params_round_trip_and_partial_dicts():
    params = NetworkParams(vc_buffer_packets=4, num_vcs=3)
    assert NetworkParams.from_dict(params.to_dict()) == params
    assert NetworkParams.from_dict({}) == NetworkParams()
    assert NetworkParams.from_dict({"packet_bytes": 64}).packet_bytes == 64
    with pytest.raises(ValueError, match="unknown field"):
        NetworkParams.from_dict({"bandwidth": 4.0})


def test_removed_network_params_fail_at_load_and_name_the_removal():
    """A file that still sets a removed source-queue, ejection-credit or
    path-recording field is refused with the key named, not as a generic
    unknown field."""
    study = study_by_name("fig5", scale_by_name("bench")).to_dict()
    for key, value in (("injection_queue_packets", 4), ("ejection_credits", 2),
                       ("record_paths", True)):
        spec = _spec(network_params=NetworkParams()).to_dict()
        spec["network_params"][key] = value
        with pytest.raises(ValueError, match=f"{key}.*removed"):
            ExperimentSpec.from_dict(spec)
        study["network_params"] = {key: value}
        with pytest.raises(ValueError, match=f"{key}.*removed"):
            Study.from_dict(study)


def test_default_spec_fingerprint_is_unchanged():
    """A spec without ``network_params`` serializes as it always did, so its
    cached results stay valid (pinned before the three knobs were removed)."""
    spec = ExperimentSpec(config=DragonflyConfig.small_72())
    assert spec_fingerprint(spec) == (
        "7a35b4ffd2e213364f16d1f9b12d046e8fd42ae07a1b27a3914173c81760ff9a"
    )


def test_load_schedule_round_trip_and_equality():
    schedule = LoadSchedule.step(0.1, 1_000.0, 0.4)
    clone = LoadSchedule.from_dict(schedule.to_dict())
    assert clone == schedule
    assert clone != LoadSchedule.step(0.1, 1_000.0, 0.5)
    with pytest.raises(ValueError, match=re.escape(
            "LoadSchedule.phases[0]: expected a [start_ns, load] row, got [0.0, 0.1, 7.0]")):
        LoadSchedule.from_dict({"phases": [[0.0, 0.1, 7.0]]})
    with pytest.raises(ValueError, match="unknown field"):
        LoadSchedule.from_dict({"phases": [[0.0, 0.1]], "loop": True})


def test_load_schedule_rejects_loads_above_one():
    with pytest.raises(ValueError, match=re.escape(
            "LoadSchedule.phases[0]: LoadPhase: load must be in [0, 1], got 1.5")):
        LoadSchedule.constant(1.5)


def test_qparams_round_trips():
    qadp = QAdaptiveParams(q_thld1=0.05, feedback="greedy")
    assert QAdaptiveParams.from_dict(qadp.to_dict()) == qadp
    qr = QRoutingParams(max_q=7, beta=0.01)
    assert QRoutingParams.from_dict(qr.to_dict()) == qr
    with pytest.raises(ValueError, match="unknown field"):
        QAdaptiveParams.from_dict({"gamma": 0.9})


# -------------------------------------------------------------- spec schema
def test_spec_round_trip_with_all_optional_fields():
    spec = _spec(
        routing="Q-adp",
        pattern="ADV+4",
        routing_kwargs={"params": QAdaptiveParams(q_thld1=0.1)},
        network_params=NetworkParams(vc_buffer_packets=4),
        label="custom",
    )
    clone = ExperimentSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert isinstance(clone.routing_kwargs["params"], QAdaptiveParams)
    assert spec_fingerprint(clone) == spec_fingerprint(spec)


def test_spec_round_trip_with_schedule():
    spec = _spec(offered_load=None, schedule=LoadSchedule.step(0.1, 1_000.0, 0.3),
                 warmup_ns=0.0)
    clone = ExperimentSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.schedule == spec.schedule
    assert spec_fingerprint(clone) == spec_fingerprint(spec)


def test_spec_dict_is_json_ready_and_versioned():
    spec = _spec(routing_kwargs={"max_q": 3}, routing="Q-routing")
    data = spec.to_dict()
    assert data["schema"] == 5
    json.dumps(data)  # no custom types anywhere


def test_spec_schema_v1_documents_are_rejected():
    """The spec is fine, the schema-1 stamp is rejected."""
    data = _spec().to_dict()
    assert "warm_start" not in data
    assert ExperimentSpec.from_dict(data).warm_start is None
    with pytest.raises(ValueError, match=r"ExperimentSpec: unsupported schema version 1 "
                                         r"\(this build reads version 5\)"):
        ExperimentSpec.from_dict({**data, "schema": 1})


def test_spec_warm_start_round_trips_and_changes_fingerprint(tmp_path):
    warm = _spec(warm_start=str(tmp_path / "ckpt"))
    data = warm.to_dict()
    assert data["warm_start"] == str(tmp_path / "ckpt")
    clone = ExperimentSpec.from_dict(data)
    assert clone == warm
    # warm-started runs must never share cache entries with cold runs
    assert spec_fingerprint(warm) != spec_fingerprint(_spec())
    assert spec_fingerprint(clone) == spec_fingerprint(warm)


def test_spec_warm_start_rejects_empty_values():
    with pytest.raises(ValueError, match="warm_start"):
        _spec(warm_start="")
    with pytest.raises(ValueError, match="warm_start"):
        _spec(warm_start=123)


def test_spec_from_dict_strictness():
    data = _spec().to_dict()
    bad = dict(data)
    bad["routng"] = "MIN"
    with pytest.raises(ValueError, match="unknown field.*routng"):
        ExperimentSpec.from_dict(bad)
    stale = dict(data)
    stale["schema"] = 99
    with pytest.raises(ValueError, match="unsupported schema version"):
        ExperimentSpec.from_dict(stale)
    versionless = {k: v for k, v in data.items() if k != "schema"}
    with pytest.raises(ValueError, match="missing required"):
        ExperimentSpec.from_dict(versionless)


# -------------------------------------------------------------- fingerprints
def test_fingerprint_stable_across_field_order_shuffle():
    spec = _spec(routing="Q-adp",
                 routing_kwargs={"params": QAdaptiveParams()},
                 network_params=NetworkParams(vc_buffer_packets=4))
    data = spec.to_dict()
    shuffled = dict(reversed(list(data.items())))
    assert list(shuffled) != list(data)
    assert spec_fingerprint(ExperimentSpec.from_dict(shuffled)) == spec_fingerprint(spec)


def test_fingerprint_insensitive_to_name_spelling():
    assert spec_fingerprint(_spec(routing="minimal", pattern="uniform")) == \
        spec_fingerprint(_spec(routing="MIN", pattern="UR"))
    assert spec_fingerprint(_spec(pattern="adv4")) == spec_fingerprint(_spec(pattern="ADV+4"))


# ------------------------------------------------------- validation hardening
@pytest.mark.parametrize("overrides,message", [
    (dict(sim_time_ns=0.0), "sim_time_ns must be positive"),
    (dict(sim_time_ns=-5.0), "sim_time_ns must be positive"),
    (dict(warmup_ns=-1.0), "warmup_ns cannot be negative"),
    (dict(stats_bin_ns=0.0), "stats_bin_ns must be positive"),
    (dict(offered_load=0.0), r"offered_load must be in \(0, 1\]"),
    (dict(offered_load=-0.2), r"offered_load must be in \(0, 1\]"),
    (dict(offered_load=1.5), r"offered_load must be in \(0, 1\]"),
])
def test_spec_validation_rejects_nonsense(overrides, message):
    base = dict(config=TINY, offered_load=0.2, sim_time_ns=4_000.0, warmup_ns=1_000.0)
    base.update(overrides)
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**base)


@pytest.mark.parametrize("overrides,message", [
    (dict(sim_time_ns=float("nan")), "sim_time_ns must be a finite number, got nan"),
    (dict(sim_time_ns=float("inf")), "sim_time_ns must be a finite number, got inf"),
    (dict(warmup_ns=float("nan")), "warmup_ns must be a finite number, got nan"),
    (dict(stats_bin_ns=float("nan")), "stats_bin_ns must be a finite number, got nan"),
    (dict(stats_bin_ns=float("inf")), "stats_bin_ns must be a finite number, got inf"),
])
def test_spec_validation_rejects_non_finite_times(overrides, message):
    with pytest.raises(ValueError, match=message):
        _spec(**overrides)


@pytest.mark.parametrize("field,value,message", [
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", "x", "seed must be an integer"),
    ("sim_time_ns", "nan", "sim_time_ns must be a finite number, got 'nan'"),
    ("sim_time_ns", float("inf"), "sim_time_ns must be a finite number"),
    ("warmup_ns", None, "warmup_ns must be a finite number, got None"),
    ("stats_bin_ns", False, "stats_bin_ns must be a finite number"),
])
def test_spec_from_dict_refuses_numbers_it_would_coerce(field, value, message):
    data = _spec().to_dict()
    data[field] = value
    with pytest.raises(ValueError, match=f"ExperimentSpec: {message}"):
        ExperimentSpec.from_dict(data)


def test_spec_from_dict_accepts_numeric_strings_and_integral_floats():
    data = dict(_spec().to_dict(), sim_time_ns="5e3", warmup_ns=" 1000 ", seed=7.0)
    spec = ExperimentSpec.from_dict(data)
    assert (spec.sim_time_ns, spec.warmup_ns, spec.seed) == (5_000.0, 1_000.0, 7)
    assert type(spec.seed) is int
    assert ExperimentSpec.from_dict(dict(data, seed="12")).seed == 12
    big = 2**63 + 1  # a JSON integer keeps every bit
    assert ExperimentSpec.from_dict(dict(data, seed=big)).seed == big


@pytest.mark.parametrize("overrides,message", [
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(seed=True), "seed must be an integer, got True"),
    (dict(offered_load=True), "offered_load must be a finite number, got True"),
    (dict(offered_load=float("nan")), "offered_load must be a finite number, got nan"),
])
def test_spec_refuses_seeds_and_loads_that_would_run_as_others(overrides, message):
    """A 1.5 or True seed would draw (and serialize) as seed 1, a True load
    would run at 1.0: the constructor applies the rule files are read with."""
    with pytest.raises(ValueError, match=f"ExperimentSpec: {message}"):
        _spec(**overrides)


@pytest.mark.parametrize("overrides,message", [
    (dict(sim_time_ns=True, warmup_ns=False), "sim_time_ns must be a finite number, got True"),
    (dict(warmup_ns=False), "warmup_ns must be a finite number, got False"),
    (dict(stats_bin_ns=True), "stats_bin_ns must be a finite number, got True"),
    (dict(sim_time_ns="long"), "sim_time_ns must be a finite number, got 'long'"),
])
def test_spec_refuses_times_that_would_run_as_others(overrides, message):
    """True / False times would simulate 1 ns with no warm-up (or bin the
    series by 1 ns): the constructor applies the rule ``from_dict`` does."""
    with pytest.raises(ValueError, match=f"ExperimentSpec: {message}"):
        _spec(**overrides)


def test_spec_reads_times_as_floats():
    spec = _spec(sim_time_ns=4_000, warmup_ns="1e3", stats_bin_ns=500)
    assert (spec.sim_time_ns, spec.warmup_ns, spec.stats_bin_ns) == (4_000.0, 1_000.0, 500.0)
    assert {type(spec.sim_time_ns), type(spec.warmup_ns), type(spec.stats_bin_ns)} == {float}
    assert spec_fingerprint(spec) == spec_fingerprint(
        _spec(sim_time_ns=4_000.0, warmup_ns=1_000.0, stats_bin_ns=500.0))


def test_a_study_time_default_is_refused_when_expanded():
    from repro.scenarios.study import Scenario

    with pytest.raises(ValueError, match="study 's': sim_time_ns must be a finite "
                                         "number, got True"):
        Study(name="s", config=TINY, sim_time_ns=True, warmup_ns=False,
              scenarios=[Scenario(name="a", loads=(0.2,))])


def test_spec_normalizes_integral_seeds():
    import numpy as np

    assert _spec(seed=7.0).seed == 7 and type(_spec(seed=7.0).seed) is int
    assert _spec(seed=np.uint64(2**63 + 1)).seed == 2**63 + 1


@pytest.mark.parametrize("value,message", [
    (True, "offered_load must be a finite number, got True"),
    (float("inf"), "offered_load must be a finite number, got inf"),
    ("high", "offered_load must be a finite number, got 'high'"),
])
def test_spec_from_dict_refuses_loads_it_would_coerce(value, message):
    data = _spec().to_dict()
    data["offered_load"] = value
    with pytest.raises(ValueError, match=f"ExperimentSpec: {message}"):
        ExperimentSpec.from_dict(data)


def test_spec_from_dict_reads_a_numeric_string_load():
    data = dict(_spec().to_dict(), offered_load="0.5")
    assert ExperimentSpec.from_dict(data).offered_load == 0.5


@pytest.mark.parametrize("phases,message", [
    ([[0, True], [1_000.0, 0.5]], "[0]: LoadPhase: load must be a finite number, got True"),
    ([[0, 0.2], [False, 0.5]], "[1]: LoadPhase: start_ns must be a finite number, got False"),
    ([[0, 0.2], [float("nan"), 0.5]],
     "[1]: LoadPhase: start_ns must be a finite number, got nan"),
    ([[0, "x"]], "[0]: LoadPhase: load must be a finite number, got 'x'"),
])
def test_load_schedule_from_dict_refuses_phases_it_would_coerce(phases, message):
    with pytest.raises(ValueError, match=re.escape(f"LoadSchedule.phases{message}")):
        LoadSchedule.from_dict({"phases": phases})


def test_load_schedule_from_dict_reads_numeric_strings():
    schedule = LoadSchedule.from_dict({"phases": [["0", "0.3"], ["5e3", 0.6]]})
    assert schedule == LoadSchedule.step(0.3, 5_000.0, 0.6)


def test_study_from_dict_refuses_numbers_it_would_coerce():
    from repro.scenarios.study import Scenario, TrainStage

    study = Study(name="s", config=TINY, sim_time_ns=4_000.0, warmup_ns=1_000.0,
                  scenarios=[Scenario(name="a", routing="Q-adp", loads=(0.2,))],
                  train=TrainStage(load=0.3))
    data = study.to_dict()
    with pytest.raises(ValueError, match="TrainStage: seed must be an integer, got 1.5"):
        Study.from_dict(dict(data, train=dict(data["train"], seed=1.5)))
    for field, value in (("seed", 1.5), ("seed", True), ("sim_time_ns", "nan"),
                         ("stats_bin_ns", float("inf"))):
        with pytest.raises(ValueError, match=f"study 's': {field} must be"):
            Study.from_dict(dict(data, **{field: value}))
        scenario = dict(data["scenarios"][0], **{field: value})
        with pytest.raises(ValueError, match=f"scenario 'a': {field} must be"):
            Study.from_dict(dict(data, scenarios=[scenario]))
    assert Study.from_dict(dict(data, sim_time_ns="5e4")).sim_time_ns == 50_000.0


@pytest.mark.parametrize("loads,by_pattern,message", [
    ((True,), {}, "scenario 'a': loads must be a finite number, got True"),
    ((0.2, "high"), {}, "scenario 'a': loads must be a finite number, got 'high'"),
    ((0.2,), {"UR": (0.3, True)},
     r"scenario 'a': loads_by_pattern\['UR'\] must be a finite number, got True"),
    ((), {"ADV+1": (float("nan"),)},
     r"scenario 'a': loads_by_pattern\['ADV\+1'\] must be a finite number, got nan"),
])
def test_scenario_loads_follow_the_number_rule(loads, by_pattern, message):
    """A True load would run at offered load 1.0: constructors and files
    share the one number rule."""
    from repro.scenarios.study import Scenario

    with pytest.raises(ValueError, match=message):
        Scenario(name="a", loads=loads, loads_by_pattern=by_pattern)
    data = _staged_study_dict()
    scenario = dict(data["scenarios"][0], loads=list(loads))
    if by_pattern:
        scenario["loads_by_pattern"] = {k: list(v) for k, v in by_pattern.items()}
    with pytest.raises(ValueError, match=message):
        Study.from_dict(dict(data, scenarios=[scenario]))


def test_scenario_loads_read_numeric_strings():
    from repro.scenarios.study import Scenario

    scenario = Scenario(name="a", loads=("0.2", 1), loads_by_pattern={"ur": ["5e-1"]})
    assert scenario.loads == (0.2, 1.0)
    assert scenario.loads_by_pattern == {"UR": (0.5,)}


def _staged_study_dict() -> dict:
    from repro.scenarios.study import Scenario, TrainStage

    return Study(name="s", config=TINY, sim_time_ns=4_000.0, warmup_ns=1_000.0,
                 scenarios=[Scenario(name="a", routing="Q-adp", loads=(0.2,))],
                 train=TrainStage(load=0.3)).to_dict()


@pytest.mark.parametrize("value,message", [
    (True, "scenario 'a': replicates must be an integer, got True"),
    (1.5, "scenario 'a': replicates must be an integer, got 1.5"),
    ("two", "scenario 'a': replicates must be an integer, got 'two'"),
    (None, "scenario 'a': replicates must be an integer, got None"),
])
def test_scenario_replicates_follow_the_number_rule(value, message):
    """A True count would run one replicate and 1.5 raised a bare TypeError:
    files and constructors now share the one number rule."""
    from repro.scenarios.study import Scenario

    data = _staged_study_dict()
    scenario = dict(data["scenarios"][0], replicates=value)
    with pytest.raises(ValueError, match=message):
        Study.from_dict(dict(data, scenarios=[scenario]))
    with pytest.raises(ValueError, match=message):
        Scenario(name="a", loads=(0.2,), replicates=value)


def test_scenario_replicates_read_numeric_strings_and_integral_floats():
    data = _staged_study_dict()
    for value in ("2", 2.0):
        scenario = dict(data["scenarios"][0], replicates=value)
        (read,) = Study.from_dict(dict(data, scenarios=[scenario])).scenarios
        assert read.replicates == 2 and type(read.replicates) is int


@pytest.mark.parametrize("field,value,message", [
    ("load", True, "TrainStage: load must be a finite number, got True"),
    ("load", "high", "TrainStage: load must be a finite number, got 'high'"),
    ("load", float("nan"), "TrainStage: load must be a finite number, got nan"),
    ("train_ns", True, "TrainStage: train_ns must be a finite number, got True"),
    ("train_ns", "inf", "TrainStage: train_ns must be a finite number, got 'inf'"),
])
def test_train_stage_numbers_follow_the_number_rule(field, value, message):
    """A True load would train at 1.0 and a True train_ns for 1 ns."""
    from repro.scenarios.study import TrainStage

    data = _staged_study_dict()
    with pytest.raises(ValueError, match=message):
        Study.from_dict(dict(data, train=dict(data["train"], **{field: value})))
    with pytest.raises(ValueError, match=message):
        TrainStage(**{field: value})


def test_train_stage_reads_numeric_strings():
    data = _staged_study_dict()
    train = dict(data["train"], load="0.4", train_ns="5e3")
    stage = Study.from_dict(dict(data, train=train)).train
    assert (stage.load, stage.train_ns) == (0.4, 5_000.0)


@pytest.mark.parametrize("scenario,train,field", [
    (dict(replicates=1.5), {}, "replicates"),
    (dict(replicates=True), {}, "replicates"),
    ({}, dict(load=True), "load"),
    (dict(loads=[True]), {}, "loads"),
    (dict(network_params={"vc_buffer_packets": 2.5}), {}, "vc_buffer_packets"),
    (dict(loads=[], schedule={"phases": [[0.0, True]]}), {}, "LoadPhase: load"),
], ids=["replicates-1.5", "replicates-true", "train-load-true", "loads-true",
        "network-params-vc-2.5", "schedule-load-true"])
def test_study_run_refuses_a_bad_count_with_one_line(tmp_path, scenario, train, field):
    from repro.cli import main

    data = _staged_study_dict()
    data["scenarios"] = [dict(data["scenarios"][0], **scenario)]
    data["train"] = dict(data["train"], **train)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=f"{field} must be") as exited:
        main(["study", "run", str(path)])
    assert isinstance(exited.value.code, str) and "\n" not in exited.value.code


def test_spec_validation_still_accepts_boundary_values():
    assert ExperimentSpec(config=TINY, offered_load=1.0).offered_load == 1.0
    assert ExperimentSpec(config=TINY, offered_load=0.2, warmup_ns=0.0).warmup_ns == 0.0


# ---------------------------------------------- every scale x every figure
@pytest.mark.parametrize("scale_name", ["bench", "reduced", "paper-1056", "paper-2550"])
@pytest.mark.parametrize("study_name", [
    "fig5", "fig6", "fig7", "fig8", "fig9",
    "ablation-maxq", "ablation-hyperparams", "headline",
    "transfer", "warm-fig5", "cross-topology",
])
def test_every_figure_spec_round_trips_at_every_scale(scale_name, study_name):
    """ExperimentSpec.from_dict(spec.to_dict()) for the full paper grid."""
    scale = scale_by_name(scale_name)
    study = study_by_name(study_name, scale)
    specs = study.specs()
    assert specs, "study expanded to nothing"
    for spec in specs:
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert spec_fingerprint(clone) == spec_fingerprint(spec)
    # the study document itself round-trips too
    assert type(study).from_dict(study.to_dict()).to_dict() == study.to_dict()
    assert study_name in STUDIES
