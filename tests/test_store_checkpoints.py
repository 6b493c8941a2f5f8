"""Tests for the learned-state lifecycle: export/import, the artifact store,
warm-started experiments, and staged (train-once/eval-many) studies."""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.engine.batch import BatchSimulation
from repro.engine.batch.model import is_learned
from repro.experiments.harness import (
    ExperimentSpec,
    _execute,
    build_network,
    run_experiment,
    train_experiment,
)
from repro.experiments.parallel import ExperimentResultData, SweepRunner, spec_fingerprint
from repro.routing import make_routing
from repro.scenarios.study import Scenario, Study, TrainStage
from repro.store import ArtifactStore, Checkpoint, CheckpointManifest
from repro.topology.config import DragonflyConfig
from repro.topology.fattree import FatTreeConfig

TINY = DragonflyConfig.tiny()
SMALL = DragonflyConfig.small_72()


def _spec(config=TINY, **overrides) -> ExperimentSpec:
    base = dict(config=config, routing="Q-adp", pattern="UR", offered_load=0.3,
                sim_time_ns=4_000.0, warmup_ns=0.0, seed=9)
    base.update(overrides)
    return ExperimentSpec(**base)


def _trained_network(spec):
    network, generator = build_network(spec)
    generator.start()
    network.run(until=spec.sim_time_ns)
    return network


# ------------------------------------------------------- learned + round trip
def test_only_the_learned_routings_are_learned():
    assert is_learned("Q-adp")
    assert is_learned("qrouting")
    assert not is_learned("MIN")
    assert not is_learned("UGALn")


@pytest.mark.parametrize("routing", ["Q-adp", "Q-routing"])
@pytest.mark.parametrize("config", [TINY, SMALL], ids=["tiny", "small72"])
def test_export_import_round_trip_is_bit_exact(routing, config):
    network = _trained_network(_spec(config=config, routing=routing))
    state = network.routing.export_state()

    fresh, _ = build_network(_spec(config=config, routing=routing))
    fresh.routing.import_state(state)
    restored = fresh.routing.export_state()
    assert np.array_equal(restored["values"], state["values"])
    assert np.array_equal(fresh.routing.values, state["values"])
    assert np.array_equal(restored["updates"], state["updates"])
    assert restored["feedback_sent"] == state["feedback_sent"]
    assert restored["feedback_applied"] == state["feedback_applied"]
    assert restored["hyperparams"] == state["hyperparams"]


#: ``ArtifactStore.state_digest`` and summed update counters of the tiny
#: networks ``_trained_network(_spec(routing=...))`` trains.  Checkpoints
#: already on disk carry these digests: a change to the payload layout or to
#: the learning path moves them.
PAYLOAD_PINS = {
    "Q-adp": ("694a57d34715eb04e437c5edf1953d574fa327f33bd55dc9cc8deb8ebfdfed29", 337,
              "TwoLevelQTable"),
    "Q-routing": ("b68aadec9b4cd517ae1efa1cba776aaa1b1387f224d30f0f4031717ce653838f", 341,
                  "QRoutingTable"),
}


@pytest.mark.parametrize("routing", sorted(PAYLOAD_PINS))
def test_export_payload_is_pinned(routing):
    state = _trained_network(_spec(routing=routing)).routing.export_state()
    digest, updates, table_kind = PAYLOAD_PINS[routing]
    assert ArtifactStore.state_digest(state) == digest
    assert int(state["updates"].sum()) == updates
    assert state["table_kind"] == table_kind and state["table_version"] == 1
    assert list(state) == ["version", "routing", "topology", "table_version", "table_kind",
                           "first_port", "hyperparams", "values", "updates",
                           "feedback_sent", "feedback_applied"]
    assert state["values"].dtype == np.float64 and state["updates"].dtype == np.int64


def _payload(result) -> dict:
    """Every :class:`ExperimentResultData` field of ``result`` but the wall time."""
    payload = dataclasses.asdict(ExperimentResultData.from_result(result))
    del payload["wall_time_s"]
    return payload


def _kernel_state(spec):
    return BatchSimulation(spec, [spec.seed]).export_states()[0]


def _assert_same_state(got, expected):
    assert list(got) == list(expected)
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype, key
            assert np.array_equal(got[key], value), key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("routing", sorted(PAYLOAD_PINS))
def test_kernel_export_reproduces_the_payload_pins(routing):
    state = _kernel_state(_spec(routing=routing))
    digest, updates, _ = PAYLOAD_PINS[routing]
    assert ArtifactStore.state_digest(state) == digest
    assert int(state["updates"].sum()) == updates


def test_kernel_export_takes_a_batch_of_one_seed():
    # The refusal must not depend on the host's CPU count (a pooled batch
    # keeps no replicate state here), nor be reported as "no learned state".
    with pytest.raises(ValueError, match="one seed, this batch has 2"):
        BatchSimulation(_spec(routing="Q-adp"), [3, 4]).export_states()
    with pytest.raises(ValueError, match="no learned state to export"):
        BatchSimulation(_spec(routing="MIN"), [3]).export_states()


@pytest.mark.parametrize("routing,config", [
    pytest.param("Q-adp", SMALL, id="Q-adp-small72"),
    pytest.param("Q-routing", SMALL, id="Q-routing-small72"),
    pytest.param("Q-routing", FatTreeConfig.tiny(), id="Q-routing-fattree"),
])
@pytest.mark.parametrize("feedback", ["greedy", "onpolicy"])
def test_learned_state_is_equal_on_both_engines(routing, config, feedback, tmp_path):
    """Training exports, warm-started results and the state a warm-started
    run carries forward are the same on the flat kernel and the object graph."""
    spec = _spec(config=config, routing=routing, offered_load=0.4,
                 sim_time_ns=3_000.0, routing_kwargs={"feedback": feedback})
    state = _execute(spec)[1].routing.export_state()
    _assert_same_state(_kernel_state(spec), state)

    checkpoint = ArtifactStore(tmp_path).save(state, trained_sim_ns=3_000.0, spec=spec)
    warm = spec.with_overrides(warm_start=str(checkpoint.path), warmup_ns=1_000.0,
                               seed=10)
    reference, network = _execute(warm)
    batch = BatchSimulation(warm, [warm.seed]).run()
    assert batch.events_processed() == [network.sim.events_processed]
    np.testing.assert_equal(_payload(batch.results()[0]), _payload(reference))
    _assert_same_state(batch.export_states()[0], network.routing.export_state())


def test_export_before_attach_is_an_error():
    with pytest.raises(RuntimeError, match="before the algorithm is attached"):
        make_routing("Q-adp").export_state()


def test_import_rejects_wrong_routing_and_topology():
    state = _trained_network(_spec()).routing.export_state()
    other_routing, _ = build_network(_spec(routing="Q-routing"))
    with pytest.raises(ValueError, match="trained with routing 'Q-adp'"):
        other_routing.routing.import_state(state)
    other_topo, _ = build_network(_spec(config=SMALL))
    with pytest.raises(ValueError, match="do not transfer across topologies"):
        other_topo.routing.import_state(state)


# --------------------------------------------------------------------- store
def test_store_save_load_round_trip(tmp_path):
    store = ArtifactStore(tmp_path)
    network = _trained_network(_spec())
    state = network.routing.export_state()
    checkpoint = store.save(state, trained_sim_ns=network.sim.now, name="demo")
    assert store.exists("demo")

    loaded = store.load("demo")
    assert loaded.manifest.routing == "Q-adp"
    assert loaded.manifest.trained_sim_ns == network.sim.now
    assert np.array_equal(loaded.state()["values"], state["values"])
    assert np.array_equal(loaded.state()["updates"], state["updates"])
    # loading by path works without the store
    by_path = Checkpoint.load(checkpoint.path)
    assert np.array_equal(by_path.state()["values"], state["values"])


def test_torn_checkpoint_payload_is_rejected(tmp_path):
    """A ``state.npz`` rewritten in place with a same-shaped array no longer
    matches the manifest's ``state_digest``: loading it is an error naming
    the path, not a silent warm start."""
    store = ArtifactStore(tmp_path)
    state = _trained_network(_spec()).routing.export_state()
    path = store.save(state, name="torn").path
    values = state["values"].copy()
    values[0, 0, 0] += 1.0
    np.savez_compressed(path / "state.npz", values=values, updates=state["updates"])
    with pytest.raises(ValueError, match=re.escape(str(path / "state.npz"))):
        Checkpoint.load(path).state()
    with pytest.raises(ValueError, match="does not match its manifest's state_digest"):
        run_experiment(_spec(warm_start=str(path)))
    # a manifest without a digest loads as before
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest["state_digest"]
    (path / "manifest.json").write_text(json.dumps(manifest))
    assert np.array_equal(Checkpoint.load(path).state()["values"], values)


def test_store_content_derived_ids_are_stable(tmp_path):
    store = ArtifactStore(tmp_path)
    state = _trained_network(_spec()).routing.export_state()
    first = store.save(state)
    second = store.save(state)
    assert first.checkpoint_id == second.checkpoint_id
    assert len(store) == 1


def test_store_list_inspect_prune(tmp_path):
    store = ArtifactStore(tmp_path)
    state = _trained_network(_spec()).routing.export_state()
    store.save(state, name="a")
    store.save(state, name="b")
    store.save(state, name="c")
    assert [m.checkpoint_id for m in store.list()] == ["a", "b", "c"]
    assert isinstance(store.list()[0], CheckpointManifest)
    removed = store.prune(keep=["b"])
    assert sorted(removed) == ["a", "c"]
    assert [m.checkpoint_id for m in store.list()] == ["b"]
    assert store.remove("b") and not store.remove("b")


def test_store_rejects_unsafe_checkpoint_ids(tmp_path):
    """Regression: an empty tag used to resolve to the store root (and saving
    would replace the whole store); separators would escape it."""
    store = ArtifactStore(tmp_path)
    state = _trained_network(_spec()).routing.export_state()
    store.save(state, name="innocent")
    for bad in ("", ".", "..", "a/b", "..\\x", ".hidden"):
        with pytest.raises(ValueError, match="invalid checkpoint id"):
            store.save(state, name=bad)
    # the pre-existing checkpoint survived every rejected save
    assert [m.checkpoint_id for m in store.list()] == ["innocent"]
    with pytest.raises(ValueError, match="invalid checkpoint id"):
        train_experiment(_spec(), store=store, save_state="")
    with pytest.raises(ValueError, match="invalid checkpoint id"):
        run_experiment(_spec(), save_state="", store=store)


def test_import_state_rejects_truncated_updates():
    state = _trained_network(_spec()).routing.export_state()
    state["updates"] = state["updates"][:-1]
    fresh, _ = build_network(_spec())
    with pytest.raises(ValueError, match="truncated or corrupted"):
        fresh.routing.import_state(state)


def test_save_state_precheck_fails_before_simulating(tmp_path):
    """The stateless-routing error must fire without paying for the run."""
    import time

    spec = _spec(routing="MIN", sim_time_ns=50_000_000.0)  # 50 ms of sim time
    started = time.perf_counter()
    with pytest.raises(ValueError, match="no learned state"):
        run_experiment(spec, save_state="x", store=tmp_path)
    assert time.perf_counter() - started < 5.0


def test_store_load_missing_names_known_ids(tmp_path):
    store = ArtifactStore(tmp_path)
    state = _trained_network(_spec()).routing.export_state()
    store.save(state, name="only-one")
    with pytest.raises(FileNotFoundError, match="only-one"):
        store.load("nope")


def test_store_list_skips_corrupted_manifests(tmp_path):
    store = ArtifactStore(tmp_path)
    state = _trained_network(_spec()).routing.export_state()
    store.save(state, name="good")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json", encoding="utf-8")
    assert [m.checkpoint_id for m in store.list()] == ["good"]


def test_store_ignores_and_prunes_crash_leftover_staging_dirs(tmp_path):
    """A hard kill mid-write leaves a `.ckpt-*` staging dir; it must never be
    surfaced as a checkpoint, and prune reclaims it."""
    import shutil

    store = ArtifactStore(tmp_path)
    spec = _spec()
    trained = train_experiment(spec, store=store, save_state="real")
    staging = tmp_path / ".ckpt-leftover"
    shutil.copytree(trained.checkpoint.path, staging)
    assert [m.checkpoint_id for m in store.list()] == ["real"]
    found = store.find_by_fingerprint(spec_fingerprint(spec))
    assert found is not None and found.path == trained.checkpoint.path
    removed = store.prune(keep=["real"])
    assert removed == [".ckpt-leftover"]
    assert not staging.exists() and store.exists("real")


def test_prune_reclaims_corrupted_entries(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save(_trained_network(_spec()).routing.export_state(), name="good")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json", encoding="utf-8")
    assert [m.checkpoint_id for m in store.list()] == ["good"]
    removed = store.prune(keep=["good"])
    assert removed == ["bad"]
    assert not bad.exists() and store.exists("good")


def test_manifest_round_trip_and_schema_strictness(tmp_path):
    store = ArtifactStore(tmp_path)
    spec = _spec()
    trained = train_experiment(spec, store=store, save_state="m")
    manifest = trained.checkpoint.manifest
    clone = CheckpointManifest.from_dict(manifest.to_dict())
    assert clone == manifest
    assert manifest.spec_fingerprint == spec_fingerprint(spec)
    assert manifest.spec == spec.to_dict()
    stale = manifest.to_dict()
    stale["schema"] = 99
    with pytest.raises(ValueError, match="unsupported schema version"):
        CheckpointManifest.from_dict(stale)


# ----------------------------------------------------------- warm-start runs
def test_warm_start_restores_state_before_injection(tmp_path):
    store = ArtifactStore(tmp_path)
    trained = train_experiment(_spec(config=SMALL), store=store)
    warm_net, _ = build_network(
        _spec(config=SMALL, warm_start=str(trained.checkpoint.path)))
    assert np.array_equal(warm_net.routing.export_state()["values"],
                          trained.checkpoint.state()["values"])


def test_warm_started_run_is_deterministic_across_reloads(tmp_path):
    """Acceptance: re-loading the same checkpoint twice yields identical runs."""
    store = ArtifactStore(tmp_path)
    trained = train_experiment(
        _spec(config=SMALL, pattern="ADV+1"), store=store
    )
    spec = _spec(config=SMALL, pattern="ADV+1", sim_time_ns=5_000.0,
                 warmup_ns=1_000.0, warm_start=str(trained.checkpoint.path))
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert first.summary_row() == second.summary_row()
    assert first.stats.to_dict() == second.stats.to_dict()
    assert np.array_equal(first.latencies_ns, second.latencies_ns)


def test_warm_start_with_mismatched_spec_fails_descriptively(tmp_path):
    store = ArtifactStore(tmp_path)
    trained = train_experiment(_spec(), store=store)
    path = str(trained.checkpoint.path)
    with pytest.raises(ValueError, match="do not transfer across topologies"):
        run_experiment(_spec(config=SMALL, warm_start=path))
    with pytest.raises(ValueError, match="cannot warm-start a 'Q-routing' run"):
        run_experiment(_spec(routing="Q-routing", warm_start=path))
    with pytest.raises(FileNotFoundError, match="not a checkpoint"):
        run_experiment(_spec(warm_start=str(tmp_path / "missing")))


def test_warm_start_rejects_a_family_less_manifest(tmp_path):
    trained = train_experiment(_spec(), store=tmp_path)
    manifest_path = trained.checkpoint.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["topology"]["family"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="missing required field 'family'"):
        run_experiment(_spec(warm_start=str(trained.checkpoint.path)))


def test_run_experiment_save_state_round_trips(tmp_path):
    result = run_experiment(_spec(), save_state="saved", store=tmp_path)
    path = result.routing_diagnostics["checkpoint"]
    reloaded = Checkpoint.load(path)
    assert reloaded.checkpoint_id == "saved"
    # continuing from the saved state is bit-exact with the exporting network
    net, _ = build_network(_spec(warm_start=path))
    assert reloaded.manifest.trained_sim_ns == 4_000.0
    assert np.array_equal(net.routing.export_state()["values"],
                          reloaded.state()["values"])


def test_save_state_for_stateless_routing_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="no learned state"):
        run_experiment(
            _spec(routing="MIN"), save_state="x", store=tmp_path
        )


# ------------------------------------------------------------------ training
def test_train_experiment_memoizes_through_the_store(tmp_path):
    store = ArtifactStore(tmp_path)
    spec = _spec()
    first = train_experiment(spec, store=store)
    assert not first.reused and first.result is not None
    second = train_experiment(spec, store=store)
    assert second.reused and second.result is None
    assert second.checkpoint.checkpoint_id == first.checkpoint.checkpoint_id
    # a different training spec does not hit the memo
    third = train_experiment(_spec(seed=10), store=store)
    assert not third.reused


def test_train_save_state_is_the_checkpoint_id(tmp_path):
    trained = train_experiment(_spec(), save_state="tag", store=tmp_path)
    assert not trained.reused
    assert trained.checkpoint.checkpoint_id == "tag"
    assert ArtifactStore(tmp_path).load("tag").manifest.state_digest == \
        trained.checkpoint.manifest.state_digest


def test_train_reuse_copies_under_new_name_without_simulating(tmp_path):
    store = ArtifactStore(tmp_path)
    spec = _spec()
    first = train_experiment(spec, store=store)
    renamed = train_experiment(spec, store=store, save_state="tagged")
    assert renamed.reused and renamed.result is None
    assert renamed.checkpoint.checkpoint_id == "tagged"
    assert np.array_equal(renamed.checkpoint.state()["values"],
                          first.checkpoint.state()["values"])
    assert renamed.checkpoint.manifest.trained_sim_ns == \
        first.checkpoint.manifest.trained_sim_ns


def test_overwriting_a_checkpoint_changes_warm_fingerprints(tmp_path):
    """Regression: the cache key must bind to checkpoint *content*, so a
    re-trained tag cannot be served stale cached eval results."""
    store = ArtifactStore(tmp_path)
    trained = train_experiment(_spec(), store=store, save_state="tag")
    warm = _spec(sim_time_ns=3_000.0, warm_start=str(trained.checkpoint.path))
    before = spec_fingerprint(warm)
    assert before != spec_fingerprint(warm.with_overrides(warm_start=None,
                                                          sim_time_ns=3_000.0))
    # overwrite the same path with a differently-trained policy
    retrained = train_experiment(
        _spec(seed=77), store=store, save_state="tag", reuse=False
    )
    assert str(retrained.checkpoint.path) == str(trained.checkpoint.path)
    assert spec_fingerprint(warm) != before
    # a missing checkpoint degrades to the path-only fingerprint, stably
    ghost = warm.with_overrides(warm_start=str(tmp_path / "missing"))
    assert spec_fingerprint(ghost) == spec_fingerprint(ghost)


def test_train_experiment_rejects_stateless_routing(tmp_path):
    with pytest.raises(ValueError, match="no learned state to train"):
        train_experiment(_spec(routing="MIN"), store=tmp_path)


# ------------------------------------------------------------ staged studies
def _staged_study():
    return Study(
        name="staged-demo",
        config=TINY,
        sim_time_ns=3_000.0,
        warmup_ns=1_000.0,
        seed=4,
        train=TrainStage(pattern="UR", load=0.3, train_ns=4_000.0),
        scenarios=[
            Scenario(name="eval", routing=("MIN", "Q-adp"), pattern=("ADV+1",),
                     loads=(0.2, 0.3)),
        ],
    )


def test_staged_study_trains_then_warm_starts_eval(tmp_path):
    study = _staged_study()
    result = study.run(store=tmp_path)
    assert set(result.checkpoints) == {"Q-adp"}
    for point, _ in result:
        if point.spec.routing == "Q-adp":
            assert point.spec.warm_start == result.checkpoints["Q-adp"]
        else:
            assert point.spec.warm_start is None
    # re-running reuses the training checkpoint (store holds a single entry)
    again = study.run(store=tmp_path)
    assert again.checkpoints == result.checkpoints
    assert len(ArtifactStore(tmp_path)) == 1


def test_staged_study_runs_overridden_topology_scenarios_cold(tmp_path):
    """A scenario overriding the study config to another topology cannot load
    the study-level checkpoint — it must run cold, not crash the study."""
    study = Study(
        name="mixed-topo",
        config=TINY,
        sim_time_ns=3_000.0,
        warmup_ns=1_000.0,
        train=TrainStage(pattern="UR", load=0.3, train_ns=3_000.0),
        scenarios=[
            Scenario(name="same", routing=("Q-adp",), pattern=("UR",),
                     loads=(0.2,)),
            Scenario(name="bigger", routing=("Q-adp",), pattern=("UR",),
                     loads=(0.2,), config=SMALL),
        ],
    )
    result = study.run(store=tmp_path)
    for point, _ in result:
        if point.scenario == "same":
            assert point.spec.warm_start == result.checkpoints["Q-adp"]
        else:
            assert point.spec.warm_start is None


def test_staged_study_round_trips_as_document(tmp_path):
    study = _staged_study()
    data = study.to_dict()
    assert data["schema"] == 5
    assert data["train"]["pattern"] == "UR"
    json.dumps(data)
    clone = Study.from_dict(data)
    assert clone.to_dict() == data
    assert isinstance(clone.train, TrainStage)
    # the train stage is optional; a schema-1 document is not readable
    single_stage = {k: v for k, v in data.items() if k != "train"}
    assert Study.from_dict(single_stage).train is None
    with pytest.raises(ValueError, match=r"Study: unsupported schema version 1 "
                                         r"\(this build reads version 5\)"):
        Study.from_dict({**single_stage, "schema": 1})


def test_train_stage_rejects_stateless_routing():
    study = Study(
        name="bad", config=TINY, sim_time_ns=2_000.0, warmup_ns=0.0,
        train=TrainStage(routing=("MIN",), load=0.2),
        scenarios=[Scenario(name="s", routing=("MIN",), pattern=("UR",),
                            loads=(0.2,))],
    )
    with pytest.raises(ValueError, match="no learned state to train"):
        study.run_train_stage()


def test_train_stage_with_no_checkpointable_routing_is_an_error():
    study = Study(
        name="bad2", config=TINY, sim_time_ns=2_000.0, warmup_ns=0.0,
        train=TrainStage(load=0.2),
        scenarios=[Scenario(name="s", routing=("MIN", "UGALn"), pattern=("UR",),
                            loads=(0.2,))],
    )
    with pytest.raises(ValueError, match="no checkpointable routing"):
        study.run_train_stage()


def test_transfer_catalog_study_is_staged():
    from repro.experiments.presets import BENCH_SCALE
    from repro.scenarios.catalog import transfer_study

    study = transfer_study(BENCH_SCALE)
    assert study.train is not None
    assert study.train.routing == ("Q-adp",)
    assert {s.name for s in study.scenarios} == {"adversarial", "shift"}
    assert study.specs()  # expands cleanly


def test_warm_fig5_keeps_full_warmup_for_cold_algorithms():
    """Non-learned algorithms must measure after the cold study's full
    warm-up, not the short settling window of the warm-started ones."""
    from repro.experiments.presets import BENCH_SCALE
    from repro.scenarios.catalog import warm_fig5_study

    study = warm_fig5_study(BENCH_SCALE)
    for point in study.expand():
        if point.spec.routing == "Q-adp":
            assert point.spec.warmup_ns == pytest.approx(BENCH_SCALE.warmup_ns / 5)
        else:
            assert point.spec.warmup_ns == BENCH_SCALE.warmup_ns
            assert point.spec.sim_time_ns == BENCH_SCALE.sim_time_ns


# ------------------------------------------------- parallel workers + store
def test_warm_started_specs_run_on_worker_pools(tmp_path):
    """Workers restore checkpoints from disk — no pickled arrays required."""
    store = ArtifactStore(tmp_path)
    trained = train_experiment(_spec(), store=store)
    specs = [
        _spec(offered_load=load, sim_time_ns=3_000.0, warmup_ns=500.0,
              warm_start=str(trained.checkpoint.path))
        for load in (0.1, 0.2, 0.3)
    ]
    serial = SweepRunner(workers=1).run(specs)
    parallel = SweepRunner(workers=2).run(specs)
    for left, right in zip(serial, parallel, strict=True):
        assert left.summary_row() == right.summary_row()
