"""Determinism regression tests for the optimized simulator kernel.

``tests/data/golden_determinism.json`` was recorded with the pre-optimization
(seed) kernel: one short pinned run per (routing, pattern) pair at seed 11.
The optimized event core, flattened router path, and memoized topology
lookups must reproduce every fingerprint **bit-for-bit** — the optimization
contract is "same seed ⇒ identical events and statistics".

The property test pins down the ordering rule the fingerprints rely on:
events run in ``(time, schedule order)``, so simultaneous events run FIFO,
including those a callback schedules at the current time.
"""

from __future__ import annotations

import json
import os
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import BatchSimulation, UnsupportedByBackend, check_batchable
from repro.engine.simulator import Simulator
from repro.experiments.harness import ExperimentSpec, build_network
from repro.topology.config import DragonflyConfig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_determinism.json")
GOLDEN_WARMSTART_PATH = os.path.join(os.path.dirname(__file__), "data",
                                     "golden_warmstart.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)

with open(GOLDEN_WARMSTART_PATH) as _fh:
    GOLDEN_WARMSTART = json.load(_fh)


def _golden_spec(key: str) -> ExperimentSpec:
    routing, pattern = key.split("/", 1)
    return ExperimentSpec(
        config=DragonflyConfig.small_72(),
        routing=routing,
        pattern=pattern,
        offered_load=0.3,
        sim_time_ns=6_000.0,
        warmup_ns=2_000.0,
        seed=11,
    )


def _stats_fingerprint(stats, events_processed: int) -> dict:
    return {
        "events_processed": events_processed,
        "generated_packets": stats.generated_packets,
        "delivered_packets": stats.delivered_packets,
        "measured_packets": stats.measured_packets,
        "mean_latency_ns": stats.mean_latency_ns,
        "mean_hops": stats.mean_hops,
        "throughput": stats.throughput,
        "latency_median_ns": stats.latency.median,
        "latency_p99_ns": stats.latency.p99,
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_fingerprint_is_reproduced(key):
    spec = _golden_spec(key)
    network, generator = build_network(spec)
    generator.start()
    network.run(until=spec.sim_time_ns)
    stats = network.finalize()
    assert _stats_fingerprint(stats, network.sim.events_processed) == GOLDEN[key]


def _kernel_accepts(key: str) -> bool:
    try:
        check_batchable(_golden_spec(key))
    except UnsupportedByBackend:
        return False
    return True


@pytest.mark.parametrize("key", [k for k in sorted(GOLDEN) if _kernel_accepts(k)])
def test_golden_fingerprint_is_reproduced_by_the_flat_kernel(key):
    """The goldens were recorded by the seed kernel, before the flat kernel
    existed: an oracle for it that is not today's object-graph engine."""
    spec = _golden_spec(key)
    batch = BatchSimulation(spec, [spec.seed]).run()
    stats = batch.results()[0].stats
    assert _stats_fingerprint(stats, batch.events_processed()[0]) == GOLDEN[key]


def _warmstart_fingerprint(store_dir, kernel: bool = False) -> dict:
    """Train Q-adp briefly, then fingerprint a warm-started measurement run.

    The whole chain — training run, checkpoint bytes, warm-started run — is
    seeded, so the fingerprint is machine independent like the cold ones.
    It runs on one engine: the object graph (``_execute``, then
    ``build_network``) or the flat kernel (``train_experiment`` picks it for
    this spec, then ``BatchSimulation``).
    """
    from repro.experiments.harness import _execute, train_experiment
    from repro.store import ArtifactStore

    train_spec = ExperimentSpec(
        config=DragonflyConfig.small_72(),
        routing="Q-adp",
        pattern="ADV+1",
        offered_load=0.3,
        sim_time_ns=4_000.0,
        warmup_ns=0.0,
        seed=11,
    )
    store = ArtifactStore(store_dir)
    if kernel:
        checkpoint = train_experiment(train_spec, store=store).checkpoint
    else:
        state = _execute(train_spec)[1].routing.export_state()
        checkpoint = store.save(state, trained_sim_ns=train_spec.sim_time_ns,
                                spec=train_spec)
    spec = train_spec.with_overrides(
        sim_time_ns=6_000.0,
        warmup_ns=2_000.0,
        warm_start=str(checkpoint.path),
    )
    if kernel:
        batch = BatchSimulation(spec, [spec.seed]).run()
        return _stats_fingerprint(batch.results()[0].stats, batch.events_processed()[0])
    network, generator = build_network(spec)
    generator.start()
    network.run(until=spec.sim_time_ns)
    stats = network.finalize()
    return _stats_fingerprint(stats, network.sim.events_processed)


def test_warmstart_golden_fingerprint_is_reproduced(tmp_path):
    """Checkpoint save → load → continue is pinned bit-for-bit, and loading
    the same checkpoint twice yields identical results (the reload identity
    of the train/eval lifecycle)."""
    first = _warmstart_fingerprint(tmp_path / "store-a")
    assert first == GOLDEN_WARMSTART["Q-adp/ADV+1"]
    second = _warmstart_fingerprint(tmp_path / "store-b")
    assert second == first


def test_warmstart_golden_fingerprint_is_reproduced_by_the_flat_kernel(tmp_path):
    """The same chain with training and the warm-started run on the kernel."""
    assert _warmstart_fingerprint(tmp_path, kernel=True) == GOLDEN_WARMSTART["Q-adp/ADV+1"]


def test_same_seed_same_summary_row_across_runs():
    """Two fresh builds of the same spec must agree field-for-field."""
    from repro.experiments.harness import run_experiment

    spec = ExperimentSpec(
        config=DragonflyConfig.small_72(),
        routing="Q-adp",
        pattern="ADV+1",
        offered_load=0.25,
        sim_time_ns=5_000.0,
        warmup_ns=1_000.0,
        seed=3,
    )
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert first.summary_row() == second.summary_row()
    assert first.stats.to_dict() == second.stats.to_dict()


# ----------------------------------------------------------- property tests
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
                          st.sampled_from(["none", "after", "push"])),
                min_size=1, max_size=40))
def test_simulator_executes_simultaneous_callbacks_in_schedule_order(entries):
    """Events run by (time, schedule order).  An event a callback schedules at
    ``now`` (through ``after(0.0, ...)`` or ``push(now, ...)``) runs after
    every same-time event already queued, in the order it was scheduled."""
    sim = Simulator()
    seen = []

    def fire(i, spawn):
        seen.append(i)
        if spawn == "after":
            sim.after(0.0, seen.append, ("child", i))
        elif spawn == "push":
            sim.push(sim.now, seen.append, (("child", i),))

    for i, (t, spawn) in enumerate(entries):
        sim.at(t, fire, i, spawn)
    sim.run()
    # Reference: one FIFO per timestamp; a child joins the back of its own.
    expected = []
    for t in sorted({t for t, _ in entries}):
        fifo = deque(i for i, (ti, _) in enumerate(entries) if ti == t)
        while fifo:
            item = fifo.popleft()
            expected.append(item)
            if isinstance(item, int) and entries[item][1] != "none":
                fifo.append(("child", item))
    assert seen == expected
