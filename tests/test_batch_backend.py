"""Batched-vs-scalar equivalence suite for the lockstep replicate backend.

The batched backend's contract is *bit-identity*: every per-replicate
statistic, sample array, timeline, diagnostic counter, and the event count
must equal what the scalar backend produces for the same ``(spec, seed)`` —
or the spec must be refused up front with :class:`UnsupportedByBackend`.
These tests pin the contract across routings, patterns, topologies, batch
sizes, and batch compositions, plus the harness/runner integration.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine.batch import BatchSimulation, UnsupportedByBackend, run_batch
from repro.engine.rng import derive_replicate_seeds
from repro.experiments import RunOptions, SweepRunner, run_replicates
from repro.experiments.harness import ExperimentSpec, _execute
from repro.experiments.parallel import ExperimentResultData
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.network.params import NetworkParams
from repro.topology.config import DragonflyConfig
from repro.topology.mesh import MeshConfig


def _spec(routing: str, pattern: str = "UR", load: float = 0.4,
          config: object = None, sim: float = 5_000.0,
          warm: float = 2_000.0, seed: int = 11, **overrides) -> ExperimentSpec:
    return ExperimentSpec(
        config=config if config is not None else DragonflyConfig.small_72(),
        routing=routing,
        pattern=pattern,
        offered_load=load,
        sim_time_ns=sim,
        warmup_ns=warm,
        seed=seed,
        **overrides,
    )


def _assert_identical(scalar_result, scalar_events, batched_result,
                      batched_events) -> None:
    s = scalar_result.stats.to_dict()
    b = batched_result.stats.to_dict()
    for key in s:
        assert s[key] == b[key] or (s[key] != s[key] and b[key] != b[key]), key
    assert scalar_events == batched_events
    assert np.array_equal(scalar_result.latencies_ns, batched_result.latencies_ns)
    assert np.array_equal(scalar_result.hops, batched_result.hops)
    assert scalar_result.routing_diagnostics == batched_result.routing_diagnostics
    for idx in (0, 1):
        assert np.array_equal(scalar_result.latency_timeline_us[idx],
                              batched_result.latency_timeline_us[idx])
        assert np.array_equal(scalar_result.throughput_timeline[idx],
                              batched_result.throughput_timeline[idx])


@pytest.mark.parametrize(
    "routing,pattern,config",
    [
        ("MIN", "UR", None),
        ("Q-adp", "UR", None),
        ("Q-adp", "ADV+1", None),
        ("Q-routing", "UR", None),
        ("Q-routing", "UR", MeshConfig.small_72()),
        ("MIN", "UR", MeshConfig.small_72_torus()),
    ],
)
def test_batched_matches_scalar_bit_for_bit(routing, pattern, config):
    spec = _spec(routing, pattern, config=config)
    scalar_result, network = _execute(spec)
    batch = BatchSimulation(spec, [spec.seed]).run()
    _assert_identical(scalar_result, network.sim.events_processed,
                      batch.results()[0], batch.events_processed()[0])


def test_batched_results_are_probe_free():
    # Probes-off batched runs publish nothing: no telemetry payload at all.
    result = run_batch(_spec("Q-adp"), [11])[0]
    assert result.telemetry == {}


def test_batch_size_invariance():
    # A replicate's outcome depends only on (spec, seed) — never on the size
    # of the batch it rides in.  N=1 must equal the same seed's slice of N=32.
    spec = _spec("Q-adp", load=0.3, sim=3_000.0, warm=1_000.0, seed=7)
    seeds = derive_replicate_seeds(7, 32)
    big = run_batch(spec, seeds)
    lone = run_batch(spec, [seeds[0]])[0]
    assert lone.stats.to_dict() == big[0].stats.to_dict()
    assert np.array_equal(lone.latencies_ns, big[0].latencies_ns)
    mid = run_batch(spec, [seeds[17]])[0]
    assert mid.stats.to_dict() == big[17].stats.to_dict()
    assert np.array_equal(mid.latencies_ns, big[17].latencies_ns)


def test_batch_composition_independence():
    # Reordering or mixing seeds in one batch cannot change any replicate.
    spec = _spec("Q-routing", load=0.3, sim=3_000.0, warm=1_000.0)
    forward = run_batch(spec, [7, 11, 42])
    backward = run_batch(spec, [42, 7])
    assert forward[0].stats.to_dict() == backward[1].stats.to_dict()
    assert forward[2].stats.to_dict() == backward[0].stats.to_dict()
    assert np.array_equal(forward[0].latencies_ns, backward[1].latencies_ns)


def test_events_processed_counts_match_scalar():
    for routing in ("MIN", "Q-adp", "Q-routing"):
        spec = _spec(routing)
        _, network = _execute(spec)
        batch = BatchSimulation(spec, [spec.seed]).run()
        assert batch.events_processed() == [network.sim.events_processed]


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"telemetry": ("link-util",)}, "probes-off"),
        ({"faults": FaultSchedule([FaultEvent(1_000.0, "link_down", 0, 4)])},
         "fault schedules"),
        ({"warm_start": "some-checkpoint"}, "warm-started"),
        ({"routing": "VALg"}, "no batched kernel"),
        ({"network_params": NetworkParams(injection_queue_packets=4)},
         "finite injection queues"),
        ({"network_params": NetworkParams(record_paths=True)}, "record_paths"),
    ],
)
def test_unsupported_specs_are_refused_up_front(overrides, match):
    routing = overrides.pop("routing", "Q-adp")
    spec = _spec(routing, **overrides)
    with pytest.raises(UnsupportedByBackend, match=match):
        run_batch(spec, [11])


def test_unsupported_is_a_value_error():
    # Callers that already catch ValueError (the CLI) need no new handling.
    assert issubclass(UnsupportedByBackend, ValueError)


def test_run_replicates_backends_agree():
    spec = _spec("Q-adp", load=0.3, sim=3_000.0, warm=1_000.0, seed=7)
    scalar = run_replicates(spec, 3)
    batched = run_replicates(spec, 3, options=RunOptions(backend="batched"))
    expected = derive_replicate_seeds(7, 3)
    assert [r.spec.seed for r in scalar] == expected
    assert [r.spec.seed for r in batched] == expected
    for s, b in zip(scalar, batched):
        assert s.stats.to_dict() == b.stats.to_dict()
        assert np.array_equal(s.latencies_ns, b.latencies_ns)
        assert s.routing_diagnostics == b.routing_diagnostics
    # The harness stamps the batch's shared wall time onto every replicate.
    assert all(b.wall_time_s > 0.0 for b in batched)


def test_run_replicates_rejects_save_state():
    spec = _spec("Q-adp")
    with pytest.raises(ValueError, match="save_state"):
        run_replicates(spec, 2, options=RunOptions(save_state="tag"))


def test_run_replicates_explicit_seeds():
    spec = _spec("Q-routing", load=0.3, sim=3_000.0, warm=1_000.0)
    results = run_replicates(
        spec, seeds=[42, 7], options=RunOptions(backend="batched"))
    assert [r.spec.seed for r in results] == [42, 7]
    with pytest.raises(ValueError, match="contradicts"):
        run_replicates(spec, 3, seeds=[42, 7])
    with pytest.raises(ValueError, match="replicate count"):
        run_replicates(spec)


def _payload(result) -> dict:
    """Every :class:`ExperimentResultData` field of ``result`` but the wall time."""
    payload = dataclasses.asdict(ExperimentResultData.from_result(result))
    del payload["wall_time_s"]
    return payload


def test_sweep_runner_chunks_batches_and_shares_cache(tmp_path):
    spec = _spec("Q-adp", load=0.3, sim=3_000.0, warm=1_000.0, seed=7)
    warm = SweepRunner(workers=1, cache_dir=tmp_path)
    batched = warm.run_replicates(spec, 5, backend="batched", batch_size=2)
    assert warm.simulated == 5 and warm.cache_hits == 0
    # Bit-identity makes cache entries backend-agnostic: a scalar re-run of
    # the same replicates is served entirely from the batched run's cache.
    reuse = SweepRunner(workers=1, cache_dir=tmp_path)
    scalar = reuse.run_replicates(spec, 5, backend="scalar")
    assert reuse.simulated == 0 and reuse.cache_hits == 5
    for b, s in zip(batched, scalar):
        assert b.stats.to_dict() == s.stats.to_dict()
    # ... and an entry's content does not depend on which backend filled it:
    # every field but the host-time one equals what a scalar run produces.
    computed = SweepRunner(workers=1).run_replicates(spec, 5, backend="scalar")
    for cached, fresh in zip(scalar, computed):
        np.testing.assert_equal(_payload(cached), _payload(fresh))
    with pytest.raises(ValueError, match="backend"):
        warm.run_replicates(spec, 2, backend="vectorized")


def test_cli_run_replicates_batched(capsys):
    from repro.cli import main

    code = main([
        "run", "--routing", "Q-adp", "--pattern", "UR", "--load", "0.4",
        "--time-us", "3", "--warmup-us", "1", "--seed", "7",
        "--replicates", "2", "--backend", "batched", "--json",
    ])
    assert code == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "batched"
    assert [row["seed"] for row in payload["rows"]] == derive_replicate_seeds(7, 2)


def test_cli_refuses_unsupported_batched_spec():
    from repro.cli import main

    with pytest.raises(SystemExit, match="probes-off"):
        main([
            "run", "--routing", "Q-adp", "--time-us", "3",
            "--backend", "batched", "--telemetry", "link-util",
        ])


def test_run_batched_groups_mixed_specs():
    """Interleaved seed-mates of two parameter points regroup correctly."""
    runner = SweepRunner(workers=1)
    low = _spec("MIN", load=0.2, sim=3_000.0, warm=1_000.0, seed=5)
    high = _spec("MIN", load=0.5, sim=3_000.0, warm=1_000.0, seed=5)
    specs = []
    for seed in derive_replicate_seeds(5, 2):
        specs.append(low.with_overrides(seed=seed))
        specs.append(high.with_overrides(seed=seed))
    batched = runner.run_batched(specs)
    assert runner.simulated == 4
    scalar = SweepRunner(workers=1).run(specs)
    for b, s in zip(batched, scalar):
        assert b.spec == s.spec
        assert b.stats.to_dict() == s.stats.to_dict()


def test_study_backend_option_matches_scalar():
    from repro.scenarios import Scenario, Study
    from repro.topology.config import DragonflyConfig

    study = Study(
        name="backend-demo", config=DragonflyConfig.tiny(),
        sim_time_ns=3_000.0, warmup_ns=1_000.0,
        scenarios=[Scenario(name="mini", routing=("Q-adp",), pattern=("UR",),
                            loads=(0.2, 0.4), replicates=2)],
    )
    scalar = study.run(SweepRunner(workers=1))
    batched = study.run(SweepRunner(workers=1),
                        options=RunOptions(backend="batched"))
    assert scalar.rows() == batched.rows()


def test_cli_study_run_batched(tmp_path, capsys):
    import json

    from repro.cli import main
    from repro.scenarios import Scenario, Study
    from repro.topology.config import DragonflyConfig

    study = Study(
        name="cli-batched", config=DragonflyConfig.tiny(),
        sim_time_ns=3_000.0, warmup_ns=1_000.0,
        scenarios=[Scenario(name="mini", routing=("MIN",), pattern=("UR",),
                            loads=(0.3,), replicates=2)],
    )
    path = study.save(tmp_path / "demo.json")
    assert main(["study", "run", str(path)]) == 0
    scalar_payload = json.loads(capsys.readouterr().out)
    assert main(["study", "run", str(path), "--backend", "batched"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 2 and payload["simulated"] == 2
    assert payload["rows"] == scalar_payload["rows"]
