"""One field schema for every spec-like type.

Each numeric field is declared once (``_NUMBERS``) and checked by one rule
(:func:`repro.scenarios.serialize._check_fields`) in the constructor, so a
constructor and ``from_dict`` refuse the same values with the same message,
and an integral float in an int field normalises (one experiment, one
fingerprint).
"""

import math
import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.hysteretic import HystereticParams
from repro.core.qadaptive import QAdaptiveParams
from repro.core.qrouting import QRoutingParams
from repro.experiments import ExperimentSpec, spec_fingerprint
from repro.experiments.presets import BENCH_SCALE, ExperimentScale
from repro.faults import FaultEvent, FaultSchedule
from repro.network.params import NetworkParams
from repro.scenarios.serialize import FieldError
from repro.scenarios.study import Scenario, Study, TrainStage
from repro.topology.config import DragonflyConfig
from repro.topology.fattree import FatTreeConfig
from repro.topology.mesh import MeshConfig
from repro.traffic import (
    AdversarialTraffic,
    HotspotTraffic,
    LoadPhase,
    LoadSchedule,
    RandomNeighborsTraffic,
    TrafficPattern,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TINY = DragonflyConfig.tiny()
_EVENT = dict(time_ns=0.0, kind="link_down", router=0, port=0)
_SPEC = dict(config=TINY, offered_load=0.2, sim_time_ns=4_000.0, warmup_ns=1_000.0, seed=3)


def _study(**fields) -> Study:
    return Study(name="s", config=TINY, scenarios=[Scenario(name="a", loads=(0.2,))], **fields)


def _pattern_paths(pattern):
    """A spec's constructor and from_dict paths for one kwarg of ``pattern``."""
    data = ExperimentSpec(**_SPEC, pattern=pattern).to_dict()
    return (lambda f, v: ExperimentSpec(**_SPEC, pattern=pattern, pattern_kwargs={f: v}),
            lambda f, v: ExperimentSpec.from_dict(dict(data, pattern_kwargs={f: v})))


def _held(built, field):
    """The stored value of ``field`` on whatever a path built."""
    if isinstance(built, FaultSchedule):
        return getattr(built.events[0], field)
    if isinstance(built, LoadSchedule):
        return getattr(built.phases[1], field)
    if isinstance(built, ExperimentSpec) and built.pattern_kwargs:
        return built.pattern_kwargs[field]
    return getattr(built, field)


#: owner -> (class declaring the fields, constructor path, from_dict path or
#: None); each path takes one field's name and value on an otherwise valid
#: object.  A LoadSchedule's numbers are its phases'; a traffic pattern's
#: are a spec's ``pattern_kwargs``.
PATHS = {
    "ExperimentSpec": (
        ExperimentSpec,
        lambda f, v: ExperimentSpec(**dict(_SPEC, **{f: v})),
        lambda f, v: ExperimentSpec.from_dict(dict(ExperimentSpec(**_SPEC).to_dict(), **{f: v})),
    ),
    "LoadSchedule": (
        LoadPhase,
        lambda f, v: LoadSchedule([(0.0, 0.2), (100.0, v) if f == "load" else (v, 0.5)]),
        lambda f, v: LoadSchedule.from_dict(
            {"phases": [[0.0, 0.2], [100.0, v] if f == "load" else [v, 0.5]]}),
    ),
    "NetworkParams": (NetworkParams, lambda f, v: NetworkParams(**{f: v}),
                      lambda f, v: NetworkParams.from_dict({f: v})),
    "DragonflyConfig": (
        DragonflyConfig,
        lambda f, v: DragonflyConfig(**dict(dict(p=2, a=4, h=2), **{f: v})),
        lambda f, v: DragonflyConfig.from_dict(dict(dict(p=2, a=4, h=2), **{f: v})),
    ),
    "FatTreeConfig": (FatTreeConfig, lambda f, v: FatTreeConfig(**{f: v}),
                      lambda f, v: FatTreeConfig.from_dict({f: v})),
    "MeshConfig": (
        MeshConfig,
        lambda f, v: MeshConfig(**dict(dict(rows=2, cols=3, p=1), **{f: v})),
        lambda f, v: MeshConfig.from_dict(dict(dict(rows=2, cols=3, p=1), **{f: v})),
    ),
    "QAdaptiveParams": (QAdaptiveParams, lambda f, v: QAdaptiveParams(**{f: v}),
                        lambda f, v: QAdaptiveParams.from_dict({f: v})),
    "QRoutingParams": (QRoutingParams, lambda f, v: QRoutingParams(**{f: v}),
                       lambda f, v: QRoutingParams.from_dict({f: v})),
    "HystereticParams": (HystereticParams, lambda f, v: HystereticParams(**{f: v}), None),
    "FaultEvent": (
        FaultEvent,
        lambda f, v: FaultSchedule([list(dict(_EVENT, **{f: v}).values())]),
        lambda f, v: FaultSchedule.from_dict(
            {"schema": 1, "events": [list(dict(_EVENT, **{f: v}).values())]}),
    ),
    "Scenario": (
        Scenario,
        lambda f, v: Scenario(**dict(dict(name="a", loads=(0.2,)), **{f: v})),
        lambda f, v: Scenario.from_dict(dict(dict(name="a", loads=[0.2]), **{f: v})),
    ),
    "Study": (Study, lambda f, v: _study(**{f: v}),
              lambda f, v: Study.from_dict(dict(_study().to_dict(), **{f: v}))),
    "TrainStage": (TrainStage, lambda f, v: TrainStage(**{f: v}),
                   lambda f, v: TrainStage.from_dict({f: v})),
    "ExperimentScale": (ExperimentScale, lambda f, v: replace(BENCH_SCALE, **{f: v}), None),
    "HotspotTraffic": (HotspotTraffic, *_pattern_paths("Hotspot")),
    "AdversarialTraffic": (AdversarialTraffic, *_pattern_paths("ADV+1")),
    "RandomNeighborsTraffic": (RandomNeighborsTraffic, *_pattern_paths("Random Neighbors")),
}


def _outcome(path, field, value):
    try:
        return path(field, value), None
    except ValueError as exc:
        return None, str(exc)


# ------------------------------------------------------------------ refusals
@pytest.mark.parametrize("owner,field,value,message", [
    ("NetworkParams", "vc_buffer_packets", 2.5, "vc_buffer_packets must be an integer, got 2.5"),
    ("NetworkParams", "vc_buffer_packets", True,
     "vc_buffer_packets must be an integer, got True"),
    ("NetworkParams", "num_vcs", 2.5, "num_vcs must be an integer, got 2.5"),
    ("NetworkParams", "local_link_latency_ns", math.nan,
     "local_link_latency_ns must be a finite number, got nan"),
    ("NetworkParams", "local_link_latency_ns", -5.0,
     "local_link_latency_ns cannot be negative, got -5.0"),
    ("NetworkParams", "link_bandwidth_bytes_per_ns", math.inf,
     "link_bandwidth_bytes_per_ns must be a finite number, got inf"),
    ("QAdaptiveParams", "epsilon", True, "epsilon must be a finite number, got True"),
    ("QAdaptiveParams", "q_thld1", math.nan, "q_thld1 must be a finite number, got nan"),
    ("QAdaptiveParams", "q_thld1", -1.0, "q_thld1 must be in [0, 1], got -1.0"),
    ("QRoutingParams", "max_q", True, "max_q must be an integer, got True"),
    ("QRoutingParams", "max_q", 1.5, "max_q must be an integer, got 1.5"),
    ("HystereticParams", "alpha", True, "alpha must be a finite number, got True"),
    ("DragonflyConfig", "p", True, "p must be an integer, got True"),
    ("FaultEvent", "router", True, "router must be an integer, got True"),
    ("FaultEvent", "time_ns", math.nan, "time_ns must be a finite number, got nan"),
    ("FaultEvent", "port", 1.5, "port must be an integer, got 1.5"),
    ("LoadSchedule", "load", True, "load must be a finite number, got True"),
    ("ExperimentScale", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("ExperimentScale", "ur_loads", (True,), "ur_loads must be a finite number, got True"),
    ("ExperimentScale", "ur_loads", 0.5, "ur_loads must be a list of numbers, got 0.5"),
    ("HotspotTraffic", "hotspot_fraction", True,
     "hotspot_fraction must be a finite number, got True"),
    ("HotspotTraffic", "hotspot_fraction", 1.5, "hotspot_fraction must be in (0, 1], got 1.5"),
    ("HotspotTraffic", "num_hotspots", 1.5, "num_hotspots must be an integer, got 1.5"),
    ("AdversarialTraffic", "shift", True, "shift must be an integer, got True"),
    ("AdversarialTraffic", "shift", 0, "shift must be >= 1, got 0"),
    ("RandomNeighborsTraffic", "min_targets", 2.5, "min_targets must be an integer, got 2.5"),
    ("RandomNeighborsTraffic", "max_targets", False, "max_targets must be an integer, got False"),
])
def test_a_number_that_would_run_as_another_is_refused_by_both_paths(owner, field, value,
                                                                    message):
    declaring, *paths = PATHS[owner]
    expected = f"{declaring.__name__}: {message}"
    if issubclass(declaring, TrafficPattern):  # the pattern refuses it on its own too
        paths.append(lambda f, v: declaring(**{f: v}))
    for path in paths:
        if path is None:
            continue
        with pytest.raises(ValueError, match=re.escape(expected)):
            path(field, value)


def test_an_unknown_arrival_is_refused_when_the_spec_is_built():
    expected = re.escape("arrival must be 'exponential' or 'deterministic', got 'poisson'")
    for path in PATHS["ExperimentSpec"][1:]:
        with pytest.raises(ValueError, match=expected):
            path("arrival", "poisson")
    with pytest.raises(ValueError, match=expected):
        _study(arrival="poisson")
    with pytest.raises(ValueError, match=expected):
        Scenario(name="a", loads=(0.2,), arrival="poisson")


@pytest.mark.parametrize("pattern,key,accepted", [
    ("Hotspot", "hotspot_frac", "'hotspot_fraction', 'hotspot_nodes', 'num_hotspots'"),
    ("ADV+1", "shfit", "'shift'"),
    ("UR", "shift", "none"),
])
def test_an_unknown_pattern_kwarg_is_refused_when_the_spec_is_built(pattern, key, accepted):
    expected = f"pattern {pattern!r} takes no keyword {key!r}; it accepts {accepted}"
    for path in _pattern_paths(pattern):
        with pytest.raises(ValueError, match=re.escape(expected)):
            path(key, 0.5)


@pytest.mark.parametrize("routing,kwargs,expected", [
    ("UGALn", {"biass": 1.0}, "routing algorithm 'UGALn' takes no keyword 'biass'; "
                              "it accepts 'bias'"),
    ("MIN", {"bias": 1.0}, "routing algorithm 'MIN' takes no keyword 'bias'; it accepts none"),
    # keywords caught by ``**overrides`` build the routing's params
    ("Q-adp", {"q_thld": 0.1}, "routing algorithm 'Q-adp' takes no keyword 'q_thld'; it "
                               "accepts 'alpha', 'beta', 'epsilon', 'feedback', 'params', "
                               "'q_thld1', 'q_thld2'"),
    ("Q-adp", {"params": {"q_thld1": 0.1}},
     "routing algorithm 'Q-adp' takes params as a QAdaptiveParams, not a plain mapping; "
     "in a file, tag the mapping with \"__param__\": 'qadaptive'"),
    ("Q-routing", {"params": {"max_q": 2}},
     "routing algorithm 'Q-routing' takes params as a QRoutingParams, not a plain mapping; "
     "in a file, tag the mapping with \"__param__\": 'qrouting'"),
])
def test_an_unknown_routing_kwarg_is_refused_when_the_spec_is_built(routing, kwargs, expected):
    data = ExperimentSpec(**_SPEC, routing=routing).to_dict()
    with pytest.raises(ValueError, match=re.escape(f"ExperimentSpec: {expected}")):
        ExperimentSpec(**_SPEC, routing=routing, routing_kwargs=kwargs)
    with pytest.raises(ValueError, match=re.escape(expected)):
        ExperimentSpec.from_dict(dict(data, routing_kwargs=kwargs))


@pytest.mark.parametrize("routing,kwargs", [
    ("UGALn", {"bias": 1.0}),
    ("Q-adp", {"q_thld1": 0.1}),
    ("Q-adp", {"params": QAdaptiveParams(q_thld1=0.1)}),
    ("Q-routing", {"max_q": 3}),
])
def test_a_known_routing_kwarg_builds_and_round_trips(routing, kwargs):
    spec = ExperimentSpec(**_SPEC, routing=routing, routing_kwargs=kwargs)
    assert spec.routing_kwargs == kwargs
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_a_bad_nested_field_is_named_by_its_path():
    data = _study(network_params=NetworkParams()).to_dict()
    scenario = dict(data["scenarios"][0], network_params={"vc_buffer_packets": 0})
    with pytest.raises(FieldError, match=re.escape(
            "Study.scenarios[0].network_params: NetworkParams: vc_buffer_packets "
            "must be >= 1, got 0")):
        Study.from_dict(dict(data, scenarios=[scenario]))
    with pytest.raises(ValueError, match=re.escape(
            "Study.network_params: unknown field(s) ['vc_buffer']")):
        Study.from_dict(dict(data, network_params={"vc_buffer": 4}))
    with pytest.raises(ValueError, match=re.escape(
            "Study.config: DragonflyConfig: p must be >= 1, got 0")):
        Study.from_dict(dict(data, config=dict(data["config"], p=0)))
    with pytest.raises(ValueError, match=re.escape(
            "Study.train.routing_kwargs['Q-adp']['params']: QAdaptiveParams: alpha must be "
            "in (0, 1], got 2.0")):
        Study.from_dict(dict(data, train={"routing_kwargs": {
            "Q-adp": {"params": {"__param__": "qadaptive", "alpha": 2.0}}}}))
    with pytest.raises(ValueError, match=re.escape(
            "ExperimentSpec.schedule.phases[0]: LoadPhase: load must be in [0, 1], got 2")):
        ExperimentSpec.from_dict(dict(ExperimentSpec(**_SPEC).to_dict(),
                                      schedule={"phases": [[0.0, 2]]}))


def test_a_manifest_reads_its_numbers_by_the_declared_rule():
    from repro.store.artifact import CheckpointManifest

    data = CheckpointManifest(
        checkpoint_id="c", routing="Q-adp", topology=TINY.to_dict(), table_kind="TwoLevelQTable",
        state_version=1, table_version=1, first_port=1).to_dict()
    loaded = CheckpointManifest.from_dict(dict(data, first_port="2", trained_sim_ns=5))
    assert (loaded.first_port, loaded.trained_sim_ns) == (2, 5.0)
    assert type(loaded.trained_sim_ns) is float
    for field, value, message in (("state_version", 1.5, "must be an integer, got 1.5"),
                                  ("feedback_sent", True, "must be an integer, got True"),
                                  ("trained_sim_ns", "nan", "must be a finite number")):
        with pytest.raises(FieldError, match=f"CheckpointManifest: {field} {message}"):
            CheckpointManifest.from_dict(dict(data, **{field: value}))


@pytest.mark.parametrize("field,value,message", [
    ("loads", 0.5, "loads must be a list of numbers, got 0.5"),
    ("loads", "0.5", "loads must be a list of numbers, got '0.5'"),
    ("loads_by_pattern", {"uniform": [True]},
     "loads_by_pattern['uniform'] must be a finite number, got True"),
    ("loads_by_pattern", {"UR": [1.5]}, "loads_by_pattern['UR'] must be in (0, 1], got 1.5"),
])
def test_a_scenario_load_axis_is_refused_by_both_paths(field, value, message):
    expected = f"scenario 'a': {message}"
    for path in PATHS["Scenario"][1:]:
        with pytest.raises(ValueError, match=re.escape(expected)):
            path(field, value)


def test_a_field_error_survives_pickling():
    with pytest.raises(FieldError) as caught:
        QRoutingParams(max_q=1.5)
    again = pickle.loads(pickle.dumps(caught.value))
    assert type(again) is FieldError and str(again) == str(caught.value)
    assert (again.name, again.what, again.value) == ("max_q", "must be an integer", 1.5)


_POOLED_BAD_KWARG = """
from repro.experiments import ExperimentSpec, SweepRunner
from repro.topology.config import DragonflyConfig
spec = ExperimentSpec(config=DragonflyConfig.tiny(), routing="Q-routing", offered_load=0.2,
                      sim_time_ns=2_000.0, warmup_ns=500.0, routing_kwargs={"max_q": 1.5})
try:
    SweepRunner(workers=2).run([spec, spec.with_overrides(seed=2)])
except ValueError as exc:
    print(exc)
"""


def test_a_pool_worker_refusing_a_routing_kwarg_raises_in_the_parent():
    # A worker's error that cannot be unpickled stalls the pool's result
    # thread and hangs the parent, hence a child process with a timeout.
    done = subprocess.run([sys.executable, "-c", _POOLED_BAD_KWARG], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert "QRoutingParams: max_q must be an integer, got 1.5" in done.stdout


@pytest.mark.parametrize("owner,field,value,normal", [
    ("NetworkParams", "vc_buffer_packets", 20.0, 20),
    ("NetworkParams", "num_vcs", 3.0, 3),
    ("NetworkParams", "local_link_latency_ns", 30, 30.0),
    ("DragonflyConfig", "p", 2.0, 2),
    ("QRoutingParams", "max_q", 5.0, 5),
    ("FaultEvent", "router", 1.0, 1),
    ("ExperimentScale", "seed", 7.0, 7),
    ("HotspotTraffic", "num_hotspots", 2.0, 2),
    ("HotspotTraffic", "hotspot_fraction", 1, 1.0),
    ("AdversarialTraffic", "shift", 2.0, 2),
    ("RandomNeighborsTraffic", "min_targets", 6.0, 6),
])
def test_an_integral_float_normalises_to_the_declared_kind(owner, field, value, normal):
    for path in PATHS[owner][1:]:
        if path is None:
            continue
        held = _held(path(field, value), field)
        assert held == normal and type(held) is type(normal)


def test_an_integral_float_in_an_int_field_fingerprints_as_the_int():
    as_int = ExperimentSpec(**_SPEC, network_params=NetworkParams(vc_buffer_packets=20))
    as_float = ExperimentSpec(**_SPEC, network_params=NetworkParams(vc_buffer_packets=20.0))
    assert spec_fingerprint(as_float) == spec_fingerprint(as_int)
    data = as_int.to_dict()
    data["network_params"]["vc_buffer_packets"] = 20.0
    assert spec_fingerprint(ExperimentSpec.from_dict(data)) == spec_fingerprint(as_int)
    hot_int = ExperimentSpec(**_SPEC, pattern="Hotspot", pattern_kwargs={"num_hotspots": 2})
    hot_float = ExperimentSpec(**_SPEC, pattern="Hotspot", pattern_kwargs={"num_hotspots": 2.0})
    assert spec_fingerprint(hot_float) == spec_fingerprint(hot_int)


# ------------------------------------------------------- one rule, two paths
_VALUES = st.one_of(
    st.integers(-3, 40),
    st.integers(-3, 40).map(float),
    st.floats(-2.0, 50.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 2.5, 1e3, -0.0]),
    st.booleans(),
    st.none(),
    st.sampled_from(["4", "0.5", "2.0", "1e3", "nan", "x", ""]),
)


def _shaped(rule, value):
    return [value] if rule.each else value


@pytest.mark.parametrize("owner", sorted(PATHS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_generated_field_value_constructs_and_round_trips_or_both_paths_refuse(owner, data):
    declaring, construct, load = PATHS[owner]
    numbers = declaring._NUMBERS
    field = data.draw(st.sampled_from(sorted(numbers)), label="field")
    value = _shaped(numbers[field], data.draw(_VALUES, label="value"))
    built, refused = _outcome(construct, field, value)
    if load is not None:
        loaded, load_refused = _outcome(load, field, value)
        assert load_refused == refused
        assert loaded == built
    if refused is not None:
        assert re.search(rf"\b{re.escape(field)}\b", refused), refused
        return
    held = _held(built, field)
    kind = numbers[field].kind
    for number in held if isinstance(held, (tuple, list)) else [held]:
        assert number is None or type(number) is kind
    if hasattr(built, "to_dict"):
        again = type(built).from_dict(built.to_dict())
        assert again == built
        if isinstance(built, ExperimentSpec):
            assert spec_fingerprint(again) == spec_fingerprint(built)
    else:  # no serialized form: re-checking the normalised values is a no-op
        assert replace(built) == built
