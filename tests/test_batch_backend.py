"""Flat-kernel-vs-object-graph equivalence suite.

The flat kernel's contract is *bit-identity*: every per-replicate statistic,
sample array, timeline, diagnostic counter, and the event count must equal
what the object-graph engine (``harness._execute``) produces for the same
``(spec, seed)`` — or the spec must be refused up front with
:class:`UnsupportedByBackend`.  These tests pin the contract across routings,
patterns, topologies, batch sizes, and batch compositions, plus the
harness/runner integration.

``run_experiment`` itself picks the kernel whenever it can, so every
reference here comes from ``_execute`` (which only ever runs the object
graph), never from ``run_experiment`` / ``SweepRunner.run`` /
``run_replicates``.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import fanout
from repro.engine.batch import (
    BatchSimulation,
    UnsupportedByBackend,
    build_model,
    check_batchable,
    run_batch,
)
from repro.engine.batch.kernel import EV_QFB, BatchKernel
from repro.engine.batch.model import _KIND_OF_ROUTING, is_learned
from repro.engine.rng import derive_replicate_seeds
from repro.experiments import RunOptions, SweepRunner, run_experiment, run_replicates
from repro.experiments.harness import ExperimentSpec, _execute, build_network
from repro.experiments.parallel import ExperimentResultData
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.network.network import Network
from repro.network.nic import Nic
from repro.network.router import Router
from repro.routing import ROUTING_REGISTRY, available_algorithms
from repro.routing.minimal import MinimalRouting
from repro.topology.config import DragonflyConfig
from repro.topology.fattree import FatTreeConfig
from repro.topology.mesh import MeshConfig
from repro.topology.registry import topology_for
from repro.traffic import LoadSchedule


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
    assert scalar_result.latencies_ns.dtype == batched_result.latencies_ns.dtype
    assert scalar_result.hops.dtype == batched_result.hops.dtype
    assert scalar_result.routing_diagnostics == batched_result.routing_diagnostics
    for idx in (0, 1):
        assert np.array_equal(scalar_result.latency_timeline_us[idx],
                              batched_result.latency_timeline_us[idx])
        assert np.array_equal(scalar_result.throughput_timeline[idx],
                              batched_result.throughput_timeline[idx])


def _assert_flat_equals_object_graph(spec: ExperimentSpec) -> None:
    scalar_result, network = _execute(spec)
    batch = BatchSimulation(spec, [spec.seed]).run()
    _assert_identical(scalar_result, network.sim.events_processed,
                      batch.results()[0], batch.events_processed()[0])


_DRAGONFLY_BASELINES = ("VALg", "VALn", "UGALg", "UGALn", "PAR")
_STEP = LoadSchedule.step(0.2, 2_000.0, 0.6)


@pytest.mark.parametrize(
    "routing,pattern,config",
    [
        ("MIN", "UR", None),
        ("Q-adp", "UR", None),
        ("Q-adp", "ADV+1", None),
        ("Q-routing", "UR", None),
        ("Q-routing", "UR", MeshConfig.small_72()),
        ("MIN", "UR", MeshConfig.small_72_torus()),
        *[(routing, pattern, None) for routing in _DRAGONFLY_BASELINES
          for pattern in ("UR", "ADV+1")],
        ("VAL", "UR", MeshConfig.small_72()),
        ("VAL", "UR", MeshConfig.small_72_torus()),
        # Traffic the generated specs never draw (Figure 8 runs on the
        # kernel): the other patterns, load schedules, deterministic
        # arrivals.  A dict in the config column holds spec overrides.
        *[("Q-adp", pattern, None) for pattern in (
            "Hotspot", "Permutation", "3D Stencil", "Many to Many",
            "Random Neighbors")],
        pytest.param("Q-adp", "UR", {"schedule": _STEP}, id="Q-adp-UR-step"),
        pytest.param("UGALn", "UR",
                     {"schedule": LoadSchedule([(0.0, 0.0), (1_500.0, 0.5)])},
                     id="UGALn-UR-idle-then-on"),
        pytest.param("MIN", "UR",
                     {"schedule": LoadSchedule([(0.0, 0.5), (1_500.0, 0.0),
                                                (3_000.0, 0.3)])},
                     id="MIN-UR-on-off-on"),
        pytest.param("Q-routing", "UR", {"arrival": "deterministic"},
                     id="Q-routing-UR-deterministic"),
        pytest.param("PAR", "UR", {"schedule": _STEP, "arrival": "deterministic"},
                     id="PAR-UR-step-deterministic"),
        # On-policy feedback off the Dragonfly: fat-tree's table span starts
        # at port 0 (host ports included), the mesh's after its host ports.
        *[pytest.param("Q-routing", "UR",
                       {"config": config, "load": load,
                        "routing_kwargs": {"feedback": "onpolicy"}},
                       id=f"Q-routing-UR-onpolicy-{family}-{load}")
          for family, config in (("fattree", FatTreeConfig.tiny()),
                                 ("mesh", MeshConfig.small_72()))
          for load in (0.4, 0.8)],
    ],
)
def test_batched_matches_scalar_bit_for_bit(routing, pattern, config):
    overrides = config if isinstance(config, dict) else {"config": config}
    _assert_flat_equals_object_graph(_spec(routing, pattern, **overrides))


def test_ugal_bias_reaches_the_kernel():
    spec = _spec("UGALn", "ADV+1", routing_kwargs={"bias": 2.0})
    _assert_flat_equals_object_graph(spec)
    unbiased = run_batch(spec.with_overrides(routing_kwargs={}), [spec.seed])[0]
    biased = run_batch(spec, [spec.seed])[0]
    assert biased.routing_diagnostics != unbiased.routing_diagnostics


def test_ugal_congested_read_path_at_paper_scale():
    # 1 056 nodes under ADV+1: ports are contended, so UGAL's congestion read
    # meets waiters, consumed credits and in-flight credit returns all at once.
    spec = _spec("UGALn", "ADV+1", load=0.4, config=DragonflyConfig.paper_1056(),
                 sim=1_500.0, warm=500.0)
    _assert_flat_equals_object_graph(spec)


@st.composite
def _batchable_specs(draw):
    """Tiny Dragonflies under any routing the kernel accepts."""
    p = draw(st.integers(1, 2))
    a = draw(st.sampled_from((2, 4)))
    h = draw(st.integers(1, 2))
    config = DragonflyConfig(p=p, a=a, h=h)
    routing = draw(st.sampled_from(
        ("MIN", "VAL", "VALg", "VALn", "UGALg", "UGALn", "PAR", "Q-adp",
         "Q-routing")))
    shift = draw(st.integers(0, config.num_groups - 1))
    return ExperimentSpec(
        config=config,
        routing=routing,
        pattern="UR" if shift == 0 else f"ADV+{shift}",
        offered_load=draw(st.sampled_from((0.1, 0.35, 0.6, 0.9))),
        sim_time_ns=2_500.0,
        warmup_ns=500.0,
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=20, deadline=None)
@given(_batchable_specs())
def test_generated_specs_match_the_object_graph(spec):
    """Differential seed of ROADMAP item 1(b): whole-result equality over
    generated specs, not a hand-picked list."""
    check_batchable(spec)
    _assert_flat_equals_object_graph(spec)


def test_batched_results_are_probe_free():
    # Probes-off batched runs publish nothing: no telemetry payload at all.
    result = run_batch(_spec("Q-adp"), [11])[0]
    assert result.telemetry == {}


def test_batch_size_invariance():
    # A replicate's outcome depends only on (spec, seed) — never on the size
    # of the batch it rides in.  Every seed of a pooled N=32 batch must equal
    # the same seed run as a batch of one, in-process.
    spec = _spec("Q-adp", load=0.3, sim=3_000.0, warm=1_000.0, seed=7)
    seeds = derive_replicate_seeds(7, 32)
    big = BatchSimulation(spec, seeds)
    for seed, result, events in zip(seeds, big.results(), big.events_processed(),
                                    strict=True):
        lone = BatchSimulation(spec, [seed])
        assert lone.events_processed() == [events]
        (alone,) = lone.results()
        assert result.spec == alone.spec
        np.testing.assert_equal(_payload(result), _payload(alone))


def test_many_seeds_fan_out_one_process_per_cpu(monkeypatch):
    pools = []
    real = fanout.imap_unordered

    def spy(func, jobs, processes, *args):
        pools.append((len(jobs), processes))
        return real(func, jobs, processes, *args)

    monkeypatch.setattr(fanout, "imap_unordered", spy)
    spec = _spec("Q-routing", load=0.3, sim=3_000.0, warm=1_000.0)
    cpus = os.cpu_count() or 1
    for count in (1, 2, 5):
        sim = BatchSimulation(spec, derive_replicate_seeds(11, count))
        first, second = sim.results(), sim.results()
        # Fresh result objects on every call, equal field for field.
        for a, b in zip(first, second, strict=True):
            assert a is not b and a.latencies_ns is not b.latencies_ns
            np.testing.assert_equal(_payload(a), _payload(b))
    assert pools == ([(2, 2), (5, min(5, cpus))] if cpus >= 2 else [])


def test_events_processed_runs_the_batch_first():
    spec = _spec("Q-adp", load=0.3, sim=3_000.0, warm=1_000.0)
    seeds = [7, 11]
    expected = [BatchSimulation(spec, [seed]).run().events_processed()[0]
                for seed in seeds]
    assert all(events > 0 for events in expected)
    assert BatchSimulation(spec, seeds).events_processed() == expected
    assert BatchSimulation(spec, seeds[:1]).events_processed() == expected[:1]


def test_batch_composition_independence():
    # Reordering or mixing seeds in one batch cannot change any replicate.
    spec = _spec("Q-routing", load=0.3, sim=3_000.0, warm=1_000.0)
    forward = run_batch(spec, [7, 11, 42])
    backward = run_batch(spec, [42, 7])
    assert forward[0].stats.to_dict() == backward[1].stats.to_dict()
    assert forward[2].stats.to_dict() == backward[0].stats.to_dict()
    assert np.array_equal(forward[0].latencies_ns, backward[1].latencies_ns)


def test_events_processed_counts_match_scalar():
    for routing in ("MIN", "Q-adp", "Q-routing", "UGALn"):
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
    ],
)
def test_unsupported_specs_are_refused_up_front(overrides, match):
    spec = _spec("Q-adp", **overrides)
    with pytest.raises(UnsupportedByBackend, match=match):
        run_batch(spec, [11])


def test_every_routing_is_a_decision_kind():
    # The routing set is closed: a registered name without a kind could not
    # run on the kernel, and a kind without a name could not be asked for.
    assert set(available_algorithms()) == set(_KIND_OF_ROUTING)


def test_a_routing_registered_from_outside_is_refused_by_name(monkeypatch):
    # Registered on copies of the registry's tables, which monkeypatch puts
    # back afterwards.
    monkeypatch.setattr(ROUTING_REGISTRY, "_entries", dict(ROUTING_REGISTRY._entries))
    monkeypatch.setattr(ROUTING_REGISTRY, "_alias_of", dict(ROUTING_REGISTRY._alias_of))
    ROUTING_REGISTRY.register("Mine", MinimalRouting)
    closed = r"'Mine' is not one of the nine built-in routings \(MIN, Q-adp, .*PAR\)"
    with pytest.raises(ValueError, match=closed):
        is_learned("Mine")
    with pytest.raises(ValueError, match=closed):
        run_experiment(_spec("Mine", sim=1_000.0, warm=0.0))


@pytest.mark.parametrize("feedback", ["onpolicy", "greedy"])
def test_a_network_port_outside_the_table_span_is_refused_by_both_engines(
        monkeypatch, feedback):
    # No built-in family trips this (Dragonfly and mesh tables start at p,
    # fat-tree's at 0): move the cached topology's table span past a network
    # port.  Its column, port - first_port, would be -1, so in either
    # feedback mode the port would learn into the last port's entry.
    spec = _spec("Q-adp", sim=2_000.0, warm=500.0, routing_kwargs={"feedback": feedback})
    topo = topology_for(spec.config)
    first_port, num_ports = topo.table_port_span()
    monkeypatch.setattr(topo, "table_port_span",
                        lambda: (first_port + 1, num_ports - 1))
    check_batchable(spec)  # a property of the topology, not of an engine
    for build in (build_network, lambda s: BatchSimulation(s, [s.seed]), run_experiment):
        with pytest.raises(ValueError, match="learns one table column per port") as caught:
            build(spec)
        assert not isinstance(caught.value, UnsupportedByBackend)


_SMALL_72_KINDS = ("MIN", "Q-adp", "Q-routing", "VALg", "VALn", "VAL", "UGALg",
                   "UGALn", "PAR")


@pytest.mark.parametrize(
    "routing,config",
    [*[pytest.param(routing, DragonflyConfig.small_72(), id=f"{routing}-dragonfly")
       for routing in _SMALL_72_KINDS],
     *[pytest.param(routing, config, id=f"{routing}-{family}")
       for routing in ("Q-routing", "MIN", "VAL")
       for family, config in (("fattree", FatTreeConfig.tiny()),
                              ("mesh", MeshConfig.small_72()),
                              ("torus", MeshConfig.small_72_torus()))]],
)
def test_build_model_builds_no_object_graph(routing, config, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"build_model constructed a {type(self).__name__}")

    for cls in (Network, Router, Nic):
        monkeypatch.setattr(cls, "__init__", refuse)
    spec = _spec(routing, config=config, sim=1_000.0, warm=0.0)
    gc.collect()
    model = build_model(spec)
    assert model.learned == (routing in ("Q-adp", "Q-routing"))
    del model
    assert gc.collect() == 0  # and it leaves no cyclic garbage behind


@pytest.mark.parametrize("routing", ["Q-adp", "Q-routing"])
def test_replicate_q_tables_never_alias(routing):
    model = build_model(_spec(routing, sim=1_000.0, warm=0.0))
    kernel = BatchKernel(model, [1, 2])
    expected = model.init_values.tolist()
    cols = model.init_values.shape[2]
    distinct = len(np.unique(model.init_values.reshape(-1, cols), axis=0))
    for st in kernel.states:
        assert [[list(row) for row in table] for table in st.qt] == expected
        # Rows are shared until first written: one tuple per distinct row.
        shared = {id(row): row for table in st.qt for row in table}
        assert len(shared) == distinct
        assert all(type(row) is tuple for row in shared.values())

    # One learning write, through the kernel's own path: an EV_QFB event
    # (time, seq, code, (router, row, column, arrival), target, None) for
    # router 3 in replicate 0's calendar, drained by run.
    first, second = kernel.states
    seq = first.seq
    first.seq = seq + 1
    first.cal[0].append((0.0, seq, EV_QFB, (3, 1, 2, 0.0), -1.0, None))
    kernel.run(0.0, slices=1)
    assert (first.c_fb_app, first.updates[3]) == (1, 1)
    current = expected[3][1][2]
    written = current + model.alpha * (-1.0 - current)
    assert written != current
    changed = [
        (state, router, row)
        for state, st in enumerate(kernel.states)
        for router, table in enumerate(st.qt)
        for row, values in enumerate(table)
        if list(values) != expected[router][row]
    ]
    assert changed == [(0, 3, 1)]
    row = first.qt[3][1]
    assert row == expected[3][1][:2] + [written] + expected[3][1][3:]
    assert type(row) is list
    owners = [r for st in kernel.states for table in st.qt for r in table if r is row]
    assert len(owners) == 1
    assert [[list(r) for r in table] for table in second.qt] == expected
    assert model.init_values.tolist() == expected
    with pytest.raises(ValueError, match="read-only"):
        model.init_values[3, 1, 2] = -1.0


@pytest.mark.parametrize("bad", [1.5, True, "x"])
def test_batch_simulation_checks_seeds_before_simulating(bad, monkeypatch):
    import repro.engine.batch.kernel as kernel_module

    def refuse(*args, **kwargs):
        raise AssertionError("a traffic trace was recorded for a bad seed")

    monkeypatch.setattr(kernel_module, "record_traffic_trace", refuse)
    spec = _spec("MIN", sim=1_000.0, warm=0.0)
    with pytest.raises(ValueError, match=f"seed must be an integer, got {bad!r}"):
        BatchSimulation(spec, [7, bad])


def test_batch_simulation_normalizes_integral_seeds():
    spec = _spec("MIN", sim=1_000.0, warm=0.0)
    batch = BatchSimulation(spec, [np.int64(7), 8.0])
    assert batch.seeds == [7, 8] and all(type(seed) is int for seed in batch.seeds)


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
    for seed, s, b in zip(expected, scalar, batched):
        reference = _execute(spec.with_overrides(seed=seed))[0]
        for result in (s, b):
            assert reference.stats.to_dict() == result.stats.to_dict()
            assert np.array_equal(reference.latencies_ns, result.latencies_ns)
            assert reference.routing_diagnostics == result.routing_diagnostics
    # The harness stamps the batch's shared wall time onto every replicate.
    assert all(b.wall_time_s > 0.0 for b in batched)


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


def test_sweep_runner_replicates_fan_out_as_separate_jobs():
    """Seed-mates are one job each and every job's result is what the
    engine-level batch of the same seeds produces."""
    jobs = []

    class Spy(SweepRunner):
        def _execute(self, pending):
            jobs.extend(pending)
            return super()._execute(pending)

    spec = _spec("Q-adp", load=0.3, sim=3_000.0, warm=1_000.0, seed=7)
    seeds = derive_replicate_seeds(7, 4)
    runner = Spy(workers=2)
    results = runner.run_replicates(spec, 4)
    assert [job_spec.seed for _, job_spec in jobs] == seeds
    assert runner.simulated == 4
    for result, batched in zip(results, run_batch(spec, seeds), strict=True):
        assert result.spec == batched.spec
        np.testing.assert_equal(_payload(result), _payload(batched))


def _nested_payloads(spec):
    """Pool job: a 2-spec sweep on 2 workers and a 2-seed batch."""
    seeds = derive_replicate_seeds(spec.seed, 2)
    sweep = SweepRunner(workers=2).run(
        [spec.with_overrides(seed=seed) for seed in seeds])
    return [_payload(result) for result in sweep + run_batch(spec, seeds)]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_pools_inside_a_pool_worker_run_in_process():
    # A daemonic pool worker may not have children: both pools must step
    # aside there instead of raising.
    spec = _spec("Q-adp", load=0.3, sim=3_000.0, warm=1_000.0, seed=7)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        nested = pool.apply(_nested_payloads, (spec,))
    for got, expected in zip(nested, _nested_payloads(spec), strict=True):
        np.testing.assert_equal(got, expected)


def test_cli_run_replicates(capsys):
    import json

    from repro.cli import main

    code = main([
        "run", "--routing", "Q-adp", "--pattern", "UR", "--load", "0.4",
        "--time-us", "3", "--warmup-us", "1", "--seed", "7",
        "--replicates", "2", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"rows"}
    assert [row["seed"] for row in payload["rows"]] == derive_replicate_seeds(7, 2)


def test_study_replicates_equal_a_lockstep_batch():
    from repro.scenarios import Scenario, Study

    study = Study(
        name="replicates-demo", config=DragonflyConfig.tiny(),
        sim_time_ns=3_000.0, warmup_ns=1_000.0, seed=5,
        scenarios=[Scenario(name="mini", routing=("Q-adp",), pattern=("UR",),
                            loads=(0.3,), replicates=3)],
    )
    result = study.run(SweepRunner(workers=1))
    base = result.points[0].spec
    assert base.seed == 5
    batched = run_batch(base, derive_replicate_seeds(5, 3))
    for (point, ran), expected in zip(result, batched, strict=True):
        assert point.spec == expected.spec
        np.testing.assert_equal(_payload(ran), _payload(expected))


# ------------------------------------------------- engine choice by capability
@pytest.fixture
def object_graph_runs(monkeypatch):
    """Counts ``Network.run`` calls: the drain only the object graph makes."""
    calls = []
    real_run = Network.run

    def counting_run(self, *args, **kwargs):
        calls.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Network, "run", counting_run)
    return calls


@pytest.mark.parametrize("routing", ["MIN", "VALn", "UGALn", "PAR", "Q-adp"])
def test_run_experiment_picks_the_kernel_for_a_batchable_spec(routing, monkeypatch):
    spec = _spec(routing, "ADV+1", sim=3_000.0, warm=1_000.0)
    reference = _execute(spec)[0]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a batchable spec must not drain the object graph")

    monkeypatch.setattr(Network, "run", refuse)
    result = run_experiment(spec)
    assert result.spec == spec
    assert result.wall_time_s > 0.0
    np.testing.assert_equal(_payload(result), _payload(reference))


@pytest.mark.parametrize(
    "overrides",
    [
        {"telemetry": ("link-util",)},
        {"faults": FaultSchedule([FaultEvent(1_000.0, "link_down", 0, 4)])},
    ],
    ids=["telemetry", "faults"],
)
def test_run_experiment_falls_back_to_the_object_graph(overrides, object_graph_runs):
    spec = _spec("Q-adp", sim=3_000.0, warm=1_000.0, **overrides)
    with pytest.raises(UnsupportedByBackend):
        check_batchable(spec)
    reference = _execute(spec)[0]
    del object_graph_runs[:]
    result = run_experiment(spec)
    assert len(object_graph_runs) == 1
    np.testing.assert_equal(_payload(result), _payload(reference))
    if spec.telemetry:
        assert result.telemetry["link-util"]


def test_warm_start_and_save_state_run_on_the_kernel(tmp_path, object_graph_runs):
    from repro.experiments import train_experiment
    from repro.store import ArtifactStore

    def digest_of(network):
        return ArtifactStore.state_digest(network.routing.export_state())

    store = ArtifactStore(tmp_path / "store")
    spec = _spec("Q-adp", sim=3_000.0, warm=1_000.0)
    train_spec = spec.with_overrides(seed=12)
    references = {s.seed: _execute(s) for s in (spec, train_spec)}
    del object_graph_runs[:]
    saved = run_experiment(spec, save_state="tag", store=store)
    trained = train_experiment(train_spec, save_state="trained", store=store)
    assert object_graph_runs == []
    checkpoint = saved.routing_diagnostics.pop("checkpoint")
    trained.result.routing_diagnostics.pop("checkpoint")
    for result, ckpt, s in ((saved, store.load("tag"), spec),
                            (trained.result, trained.checkpoint, train_spec)):
        reference, network = references[s.seed]
        np.testing.assert_equal(_payload(result), _payload(reference))
        assert ckpt.manifest.state_digest == digest_of(network)

    warm = spec.with_overrides(warm_start=checkpoint)
    check_batchable(warm)
    reference = _execute(warm)[0]
    del object_graph_runs[:]
    result = run_experiment(warm)
    assert object_graph_runs == []
    assert result.routing_diagnostics["warm_start"] == checkpoint
    np.testing.assert_equal(_payload(result), _payload(reference))


def test_warm_start_with_telemetry_runs_the_object_graph(tmp_path, object_graph_runs):
    spec = _spec("Q-adp", sim=3_000.0, warm=1_000.0)
    saved = run_experiment(spec, save_state="tag", store=tmp_path)
    warm = spec.with_overrides(warm_start=saved.routing_diagnostics["checkpoint"],
                               telemetry=("link-util",))
    with pytest.raises(UnsupportedByBackend, match="probes-off"):
        check_batchable(warm)
    reference = _execute(warm)[0]
    del object_graph_runs[:]
    result = run_experiment(warm)
    assert len(object_graph_runs) == 1
    assert result.routing_diagnostics["warm_start"] == warm.warm_start
    assert result.telemetry["link-util"]
    np.testing.assert_equal(_payload(result), _payload(reference))


def test_pool_and_serial_sweeps_agree_and_share_the_cache(tmp_path):
    specs = [_spec(routing, "ADV+1", load=0.3, sim=3_000.0, warm=1_000.0)
             for routing in ("MIN", "VALn", "UGALn", "PAR", "Q-adp")]
    serial = SweepRunner(workers=1, cache_dir=tmp_path)
    expected = serial.run(specs)
    assert serial.simulated == len(specs)
    for result, spec in zip(expected, specs):
        np.testing.assert_equal(_payload(result), _payload(_execute(spec)[0]))
    pooled = SweepRunner(workers=2).run(specs)
    for p, s in zip(pooled, expected):
        assert p.spec == s.spec
        np.testing.assert_equal(_payload(p), _payload(s))
    # Same fingerprints, same payloads: the pool is served by the serial
    # run's entries without simulating.
    reuse = SweepRunner(workers=2, cache_dir=tmp_path)
    cached = reuse.run(specs)
    assert (reuse.simulated, reuse.cache_hits) == (0, len(specs))
    for c, s in zip(cached, expected):
        np.testing.assert_equal(_payload(c), _payload(s))
