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
from repro.traffic import LoadPhase, LoadSchedule

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TINY = DragonflyConfig.tiny()
_EVENT = dict(time_ns=0.0, kind="link_down", router=0, port=0)
_SPEC = dict(config=TINY, offered_load=0.2, sim_time_ns=4_000.0, warmup_ns=1_000.0, seed=3)


def _study(**fields) -> Study:
    return Study(name="s", config=TINY, scenarios=[Scenario(name="a", loads=(0.2,))], **fields)


#: owner -> (class declaring the fields, constructor path, from_dict path or
#: None); each path takes one field's name and value on an otherwise valid
#: object.  A LoadSchedule's numbers are its phases'.
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
        lambda f, v: FaultSchedule([FaultEvent(**dict(_EVENT, **{f: v}))]),
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
    ("LoadSchedule", "load", True, "phase 1 load must be a finite number, got True"),
    ("ExperimentScale", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("ExperimentScale", "ur_loads", (True,), "ur_loads must be a finite number, got True"),
    ("ExperimentScale", "ur_loads", 0.5, "ur_loads must be a list of numbers, got 0.5"),
])
def test_a_number_that_would_run_as_another_is_refused_by_both_paths(owner, field, value,
                                                                    message):
    expected = f"{owner}: {message}"
    for path in PATHS[owner][1:]:
        if path is None:
            continue
        with pytest.raises(ValueError, match=re.escape(expected)):
            path(field, value)


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
])
def test_an_integral_float_normalises_to_the_declared_kind(owner, field, value, normal):
    for path in PATHS[owner][1:]:
        if path is None:
            continue
        built = path(field, value)
        held = getattr(built.events[0] if owner == "FaultEvent" else built, field)
        assert held == normal and type(held) is type(normal)


def test_an_integral_float_in_an_int_field_fingerprints_as_the_int():
    as_int = ExperimentSpec(**_SPEC, network_params=NetworkParams(vc_buffer_packets=20))
    as_float = ExperimentSpec(**_SPEC, network_params=NetworkParams(vc_buffer_packets=20.0))
    assert spec_fingerprint(as_float) == spec_fingerprint(as_int)
    data = as_int.to_dict()
    data["network_params"]["vc_buffer_packets"] = 20.0
    assert spec_fingerprint(ExperimentSpec.from_dict(data)) == spec_fingerprint(as_int)


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
    if isinstance(built, FaultSchedule):
        held = getattr(built.events[0], field)
    elif isinstance(built, LoadSchedule):
        held = getattr(built.phases[1], field)
    else:
        held = getattr(built, field)
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
