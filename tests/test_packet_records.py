"""The per-packet record: typed from the delivery log to the result cache.

A run's per-packet results are a float64 latency array and an int16 hop-count
array on every path a result takes — the flat kernel, the object graph, a
pool worker's pickle and a cache hit — with the object graph's values.  The
kernel's delivery log is three flat arrays, not one boxed tuple per packet.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

from repro.engine.batch import build_model
from repro.engine.batch.kernel import BatchKernel
from repro.experiments import (
    ExperimentResultData,
    ResultCache,
    SweepRunner,
    run_experiment,
    spec_fingerprint,
)
from repro.experiments.harness import ExperimentSpec, _execute, build_network
from repro.topology.config import DragonflyConfig


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        config=DragonflyConfig.small_72(), routing="Q-adp", pattern="UR",
        offered_load=0.4, sim_time_ns=5_000.0, warmup_ns=2_000.0, seed=11,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _assert_typed_like(result, reference) -> None:
    assert result.latencies_ns.dtype == np.float64
    assert result.hops.dtype == np.int16
    assert np.array_equal(result.latencies_ns, reference.latencies_ns)
    assert np.array_equal(result.hops, reference.hops)
    assert result.stats == reference.stats


def _footprint(obj: object) -> int:
    """Bytes of a container and of every object it holds, recursively.

    An ``array`` holds its items inline, so its size is the whole cost; a
    list or tuple adds the size of each item it references.
    """
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(_footprint(item) for item in obj)
    return size


def test_every_result_path_ships_float64_latencies_and_int16_hops(tmp_path):
    spec = _spec()
    other = spec.with_overrides(seed=12)
    references = {s.seed: _execute(s)[0] for s in (spec, other)}
    reference = references[spec.seed]
    assert reference.hops.size > 0 and reference.hops.max() > 1

    # The kernel (run_experiment picks it for this spec) ...
    _assert_typed_like(run_experiment(spec), reference)
    # ... the object graph (telemetry is refused by the kernel) ...
    _assert_typed_like(run_experiment(spec.with_overrides(telemetry=("link-util",))),
                       reference)
    # ... a pool worker's pickled result ...
    pooled = SweepRunner(workers=2).run([spec, other])
    for result in pooled:
        _assert_typed_like(result, references[result.spec.seed])
    # ... and a cache hit.
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    runner.run_one(spec)
    hit = runner.run_one(spec)
    assert runner.simulated == 1 and runner.cache_hits == 1
    _assert_typed_like(hit, reference)


def test_delivery_log_costs_at_most_24_bytes_per_packet():
    spec = _spec(sim_time_ns=10_000.0)
    kernel = BatchKernel(build_model(spec), [spec.seed])
    kernel.run(spec.sim_time_ns, slices=1)
    st = kernel.states[0]
    delivered = len(st.dl_create)
    assert delivered > 5_000
    log = (st.dl_create, st.dl_deliver, st.dl_hops)
    assert _footprint(log) - sys.getsizeof(log) <= 24 * delivered
    # The boxed form the arrays replace: one (create, deliver, hops) tuple each.
    assert _footprint(st.dlog) > 3 * _footprint(log)


def test_finalize_mid_run_copies_and_the_run_continues():
    spec = _spec(routing="MIN")
    network, generator = build_network(spec)
    generator.start()
    network.run(until=spec.sim_time_ns / 2)
    mid = network.finalize()
    held = (network.collector.latency_array_ns(), network.collector.hops_array())
    # Held results must not pin the collecting arrays: appending to an array
    # with an exported buffer raises BufferError.
    network.run(until=spec.sim_time_ns)
    final = network.finalize()
    assert held[0].size == held[1].size == mid.measured_packets
    assert final.measured_packets > mid.measured_packets
    assert final == _execute(spec)[0].stats


def test_a_float64_hops_cache_entry_is_still_a_hit(tmp_path):
    # Entries written before hop counts became int16 carry float64 hops under
    # the same key: the values are the same, so they stay valid hits.
    spec = _spec(routing="MIN")
    fresh = run_experiment(spec)
    stale = dataclasses.replace(ExperimentResultData.from_result(fresh),
                                hops=fresh.hops.astype(np.float64))
    ResultCache(tmp_path).put(spec_fingerprint(spec), stale)
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    hit = runner.run_one(spec)
    assert runner.simulated == 0 and runner.cache_hits == 1
    assert hit.hops.dtype == np.float64
    assert np.array_equal(hit.hops, fresh.hops)
    assert np.array_equal(hit.latencies_ns, fresh.latencies_ns)
    assert hit.summary_row() == fresh.summary_row()
