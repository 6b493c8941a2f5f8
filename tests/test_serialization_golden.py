"""The serialized form of every spec-like type, pinned.

The result cache, the checkpoint store and study files all key on
``to_dict``.  ``tests/data/golden_serialization.json`` holds, for every
registered study at every registered scale, ``Study.to_dict()`` and each
expanded spec's ``to_dict()`` and ``spec_fingerprint``, plus one hand row per
serialization rule (what is written, what is omitted) and a checkpoint
manifest with and without its optional keys.  Any change to what a spec
serializes to shows here before it reaches a cache key.

Regenerate (only when a format change is intended) with
``PYTHONPATH=src python tests/test_serialization_golden.py``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pkgutil
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

import repro
from repro.core.qadaptive import QAdaptiveParams
from repro.core.qrouting import QRoutingParams
from repro.experiments import ExperimentSpec, spec_fingerprint
from repro.experiments.presets import BENCH_SCALE, ExperimentScale, available_scales, scale_by_name
from repro.faults import FaultEvent, FaultSchedule
from repro.network.params import NetworkParams
from repro.scenarios.catalog import available_studies, study_by_name
from repro.scenarios.serialize import Codec
from repro.scenarios.study import Scenario, Study, TrainStage
from repro.store.artifact import CheckpointManifest
from repro.topology.config import DragonflyConfig
from repro.topology.fattree import FatTreeConfig
from repro.topology.mesh import MeshConfig
from repro.topology.theory import ThroughputBounds
from repro.traffic import LoadPhase, LoadSchedule

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_serialization.json")

TINY = DragonflyConfig.tiny()
_SPEC = dict(config=TINY, offered_load=0.2, sim_time_ns=4_000.0, warmup_ns=1_000.0, seed=3)
_FAULTS = FaultSchedule.single_link_failure(1_000.0, 0, 4, recover_ns=2_000.0)
_STEP = LoadSchedule.step(0.2, 2_000.0, 0.6)
_MANIFEST = dict(checkpoint_id="abc", routing="Q-adp",
                 topology={"family": "dragonfly", "p": 1, "a": 2, "h": 1},
                 table_kind="TwoLevelQTable", state_version=1, table_version=2, first_port=1)


def _scenario(**fields) -> Scenario:
    return Scenario(**dict(dict(name="a", loads=(0.2,)), **fields))


def _study(**fields) -> Study:
    return Study(**dict(dict(name="s", config=TINY, scenarios=[_scenario()]), **fields))


#: (row name, factory) of one object per serialization rule; each row's
#: ``to_dict()`` is pinned and must load back to the same form.
HAND_ROWS: List[Tuple[str, Callable[[], Any]]] = [
    # flat blocks write every field, None included
    ("network_params/defaults", NetworkParams),
    ("network_params/num_vcs", lambda: NetworkParams(num_vcs=3, vc_buffer_packets=8)),
    ("qadaptive/defaults", QAdaptiveParams),
    ("qadaptive/greedy", lambda: QAdaptiveParams(q_thld1=0.05, feedback="greedy")),
    ("qrouting/beta_none", QRoutingParams),
    ("qrouting/beta", lambda: QRoutingParams(beta=0.1, max_q=3)),
    ("dragonfly", lambda: DragonflyConfig(p=2, a=4, h=2)),
    ("mesh/wrap_false", lambda: MeshConfig(rows=2, cols=3, p=1)),
    ("torus", lambda: MeshConfig(rows=2, cols=3, p=1, wrap=True)),
    ("fattree", lambda: FatTreeConfig(k=4)),
    # documents omit an unset field: None where the default is None, empty
    # where the default is empty
    ("spec/minimal", lambda: ExperimentSpec(config=TINY)),
    ("spec/label_empty", lambda: ExperimentSpec(**_SPEC, label="")),
    ("spec/telemetry_empty", lambda: ExperimentSpec(**_SPEC, telemetry=())),
    ("spec/schedule", lambda: ExperimentSpec(config=TINY, schedule=_STEP)),
    ("spec/everything", lambda: ExperimentSpec(
        config=MeshConfig(rows=2, cols=3, p=1, wrap=True), routing="Q-routing",
        pattern="Hotspot", **{k: v for k, v in _SPEC.items() if k != "config"},
        routing_kwargs={"params": QRoutingParams(max_q=2)},
        pattern_kwargs={"hotspot_fraction": 0.5, "num_hotspots": 2},
        network_params=NetworkParams(num_vcs=6), arrival="deterministic",
        stats_bin_ns=500.0, label="all", warm_start="ckpt/dir",
        telemetry=("link-util",), faults=_FAULTS)),
    ("spec/qadp_params", lambda: ExperimentSpec(
        **_SPEC, routing="Q-adp", routing_kwargs={"params": QAdaptiveParams.paper_2550()})),
    ("spec/ugal_kwargs", lambda: ExperimentSpec(**_SPEC, routing="UGALn",
                                                routing_kwargs={"bias": 2.0})),
    ("train/defaults", TrainStage),
    ("train/everything", lambda: TrainStage(
        pattern="ADV+1", load=0.3, train_ns=5_000.0, routing=("Q-adp",), seed=9,
        routing_kwargs={"Q-adp": {"params": QAdaptiveParams(q_thld1=0.1)}})),
    # Scenario: telemetry=() is written as [] (None inherits); replicates
    # is omitted at 1
    ("scenario/minimal", _scenario),
    ("scenario/telemetry_empty", lambda: _scenario(telemetry=())),
    ("scenario/replicates", lambda: _scenario(replicates=3)),
    ("scenario/schedule", lambda: Scenario(name="b", schedule=_STEP)),
    ("scenario/everything", lambda: Scenario(
        name="c", routing=("MIN", "Q-adp"), pattern=("UR", "ADV+1"), loads=(0.1, 0.2),
        loads_by_pattern={"ADV+1": (0.05,)}, replicates=2,
        config=FatTreeConfig(k=4), sim_time_ns=3_000.0, warmup_ns=500.0,
        stats_bin_ns=250.0, seed=4, arrival="deterministic",
        network_params=NetworkParams(vc_buffer_packets=4),
        routing_kwargs={"Q-adp": {"params": QAdaptiveParams(epsilon=0.01)}},
        pattern_kwargs={"ADV+1": {"shift": 2}}, telemetry=("link-util",),
        faults=_FAULTS)),
    ("study/minimal", _study),
    ("study/description_empty", lambda: _study(description="")),
    ("study/everything", lambda: _study(
        description="all fields", sim_time_ns=6_000.0, warmup_ns=2_000.0,
        stats_bin_ns=1_000.0, seed=5, arrival="deterministic",
        network_params=NetworkParams(num_vcs=5), train=TrainStage(load=0.3),
        telemetry=("link-util",), faults=_FAULTS)),
    # checkpoint manifests: hyperparams is always written
    ("manifest/required_only", lambda: CheckpointManifest(**_MANIFEST)),
    ("manifest/everything", lambda: CheckpointManifest(
        **_MANIFEST, hyperparams={"alpha": 0.2, "feedback": "onpolicy"},
        trained_sim_ns=4_000.0, feedback_sent=12, feedback_applied=10,
        spec_fingerprint="f" * 64, spec=ExperimentSpec(**_SPEC).to_dict(),
        created_at="2024-01-01T00:00:00+00:00", state_digest="d" * 64)),
]


def _record() -> Dict[str, Any]:
    """The pinned content: ``hand`` rows; per ``"study@scale"`` (every
    registered study that builds at every registered scale) its ``to_dict()``
    and the fingerprints of its expanded specs in order; and ``specs``, each
    distinct spec's ``to_dict()`` by fingerprint."""
    studies: Dict[str, Any] = {}
    specs: Dict[str, Any] = {}
    for scale_name in available_scales():
        scale = scale_by_name(scale_name)
        for name in available_studies():
            try:
                study = study_by_name(name, scale)
            except ValueError:
                continue  # the study does not exist at this scale
            fingerprints = []
            for spec in study.specs():
                fingerprint = spec_fingerprint(spec)
                specs[fingerprint] = spec.to_dict()
                fingerprints.append(fingerprint)
            studies[f"{name}@{scale_name}"] = {"study": study.to_dict(), "specs": fingerprints}
    hand = {name: build().to_dict() for name, build in HAND_ROWS}
    return _plain({"hand": hand, "studies": studies, "specs": specs})


def _plain(data: Any) -> Any:
    """``data`` as JSON would give it back (tuples as lists)."""
    return json.loads(json.dumps(data))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,build", HAND_ROWS, ids=[name for name, _ in HAND_ROWS])
def test_each_serialization_rule_writes_the_pinned_form(golden, name, build):
    obj = build()
    data = obj.to_dict()
    assert _plain(data) == golden["hand"][name]
    assert type(obj).from_dict(_plain(data)).to_dict() == data


def test_every_registered_study_serializes_to_the_pinned_form(golden):
    current = _record()
    assert current["studies"] == golden["studies"]
    assert current["specs"] == golden["specs"]
    for row in golden["studies"].values():
        assert _plain(Study.from_dict(row["study"]).to_dict()) == row["study"]


# ----------------------------------------------------- every field is written
class _With(dict):
    """Fields changed together; the first one is the field under test."""


#: per codec class: a valid object and, for each of its fields, another
#: valid value.  ``to_dict`` must change whichever field changes — a field it
#: never writes would not fold into a cache fingerprint.
CHANGED: Dict[type, Tuple[Callable[[], Any], Dict[str, Any]]] = {
    NetworkParams: (NetworkParams, dict(
        packet_bytes=64, link_bandwidth_bytes_per_ns=2.0, local_link_latency_ns=20.0,
        global_link_latency_ns=200.0, host_link_latency_ns=5.0, vc_buffer_packets=8,
        num_vcs=4)),
    QAdaptiveParams: (QAdaptiveParams, dict(
        alpha=0.3, beta=0.05, epsilon=0.01, q_thld1=0.1, q_thld2=0.4, feedback="greedy")),
    QRoutingParams: (QRoutingParams, dict(
        alpha=0.3, beta=0.1, epsilon=0.01, max_q=3, feedback="onpolicy")),
    DragonflyConfig: (lambda: DragonflyConfig(p=2, a=4, h=2), dict(p=1, a=2, h=1)),
    MeshConfig: (lambda: MeshConfig(rows=2, cols=3, p=1), dict(rows=3, cols=2, p=2, wrap=True)),
    FatTreeConfig: (lambda: FatTreeConfig(k=4), dict(k=6)),
    ExperimentSpec: (lambda: ExperimentSpec(**_SPEC, routing="Q-routing", pattern="ADV+1"), dict(
        config=FatTreeConfig(k=4), routing="VAL", pattern="Hotspot", offered_load=0.3,
        schedule=_STEP, sim_time_ns=5_000.0, warmup_ns=2_000.0, seed=4,
        routing_kwargs={"params": QRoutingParams(max_q=2)}, pattern_kwargs={"shift": 2},
        network_params=NetworkParams(), arrival="deterministic", stats_bin_ns=1_000.0,
        label="x", warm_start="ckpt", telemetry=("link-util",), faults=_FAULTS)),
    Scenario: (_scenario, dict(
        name="b", routing=("VAL",), pattern=("ADV+1",), loads=(0.3,),
        loads_by_pattern={"UR": (0.4,)}, schedule=_With(schedule=_STEP, loads=()), replicates=2,
        config=FatTreeConfig(k=4), sim_time_ns=5_000.0, warmup_ns=1_000.0,
        stats_bin_ns=500.0, seed=2, arrival="deterministic", network_params=NetworkParams(),
        routing_kwargs={"MIN": {}}, pattern_kwargs={"UR": {}}, telemetry=(),
        faults=_FAULTS)),
    TrainStage: (TrainStage, dict(
        pattern="ADV+1", load=0.3, train_ns=5_000.0, routing=("Q-adp",), seed=2,
        routing_kwargs={"Q-adp": {}})),
    Study: (_study, dict(
        name="t", config=FatTreeConfig(k=4), scenarios=[_scenario(name="b")],
        sim_time_ns=6_000.0, warmup_ns=2_000.0, stats_bin_ns=1_000.0, seed=2,
        arrival="deterministic", network_params=NetworkParams(), description="d",
        train=TrainStage(), telemetry=("link-util",), faults=_FAULTS)),
    CheckpointManifest: (lambda: CheckpointManifest(**_MANIFEST), dict(
        checkpoint_id="xyz", routing="Q-routing",
        topology={"family": "dragonfly", "p": 2, "a": 4, "h": 2},
        table_kind="QRoutingTable", state_version=2, table_version=3, first_port=2,
        hyperparams={"alpha": 0.1}, trained_sim_ns=1.0, feedback_sent=1,
        feedback_applied=1, spec_fingerprint="f", spec={"schema": 5},
        created_at="now", state_digest="d")),
    LoadPhase: (lambda: LoadPhase(0.0, 0.2), dict(start_ns=100.0, load=0.3)),
    LoadSchedule: (lambda: _STEP, dict(phases=((0.0, 0.3),))),
    FaultEvent: (lambda: FaultEvent(1_000.0, "link_down", 0, 4), dict(
        time_ns=2_000.0, kind="link_up", router=1, port=2)),
    FaultSchedule: (lambda: _FAULTS, dict(events=(FaultEvent(5.0, "router_down", 1),))),
    ExperimentScale: (lambda: BENCH_SCALE, dict(
        name="b", config=TINY, scaleup_config=TINY, warmup_ns=1_000.0, measure_ns=2_000.0,
        convergence_ns=3_000.0, ur_loads=(0.3,), adv_loads=(0.2,), ur_reference_load=0.5,
        adv_reference_load=0.2, qadaptive_params=QAdaptiveParams(alpha=0.3),
        qadaptive_scaleup_params=QAdaptiveParams(), seed=2)),
}


@pytest.mark.parametrize("cls", list(CHANGED), ids=lambda cls: cls.__name__)
def test_changing_any_field_changes_the_serialized_form(cls):
    build, changes = CHANGED[cls]
    assert set(changes) == {f.name for f in dataclasses.fields(cls)}, \
        "give every field of the class another valid value here"
    base = build()
    for name, value in changes.items():
        changed = dataclasses.replace(
            base, **(value if isinstance(value, _With) else {name: value}))
        assert changed.to_dict() != base.to_dict(), f"{cls.__name__}.{name}"


def _package_classes() -> Iterator[type]:
    """Every class defined in a module of the package, each module imported."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        yield from (obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == info.name)


def test_every_codec_class_is_checked_field_by_field():
    codecs = {cls for cls in _package_classes() if issubclass(cls, Codec) and cls is not Codec}
    assert codecs == set(CHANGED), "give each Codec class a CHANGED row"


#: modules whose classes' serialized forms key caches, checkpoints and study
#: files, and the classes there that write a form nothing reads back.
SERIALIZATION_SCOPE = ("repro.scenarios", "repro.topology", "repro.experiments.harness",
                       "repro.experiments.presets", "repro.traffic.generator",
                       "repro.network.params", "repro.core.qadaptive", "repro.core.qrouting",
                       "repro.store", "repro.faults")
EXPORT_ONLY = {ThroughputBounds}


def test_every_serialized_form_in_the_spec_modules_is_a_codec():
    # A hand to_dict can skip a field, and a hand from_dict can accept an
    # unknown key; the codec does neither, and CHANGED checks each field.
    hand = {cls for cls in _package_classes() if cls.__module__.startswith(SERIALIZATION_SCOPE)
            and cls is not Codec and {"to_dict", "from_dict"} & vars(cls).keys()}
    assert hand == EXPORT_ONLY
    assert not hasattr(ThroughputBounds, "from_dict")


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(_record(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
