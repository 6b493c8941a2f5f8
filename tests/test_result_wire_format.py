"""The packed wire format of :class:`ExperimentResultData`.

Pickled results (pool pipes, the result cache, pooled batch jobs) store the
per-packet arrays as zlib-compressed byte planes.  The format must be
lossless to the bit, a damaged payload must read as a cache miss, and an
entry written before the format (plain ndarray fields) must stay a hit.
"""

from __future__ import annotations

import copyreg
import io
import json
import os
import pickle
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine import fanout
from repro.engine.batch import BatchSimulation
from repro.experiments import (
    ExperimentResultData,
    ExperimentSpec,
    SweepRunner,
    run_experiment,
    spec_fingerprint,
)
from repro.topology.config import DragonflyConfig

TINY = DragonflyConfig.tiny()


def _spec(**overrides) -> ExperimentSpec:
    base = dict(config=TINY, routing="Q-adp", pattern="UR", offered_load=0.3,
                sim_time_ns=3_000.0, warmup_ns=1_000.0, seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


def _data(latencies: np.ndarray, hops: np.ndarray) -> ExperimentResultData:
    empty = np.zeros(0)
    return ExperimentResultData(
        stats=None, latencies_ns=latencies, hops=hops,
        latency_timeline_us=(empty, empty), throughput_timeline=(empty, empty),
        routing_diagnostics={"feedback_sent": 3}, wall_time_s=0.25,
        telemetry={"probe": {"x": [1, 2]}})


class _UnpackedFormatPickler(pickle.Pickler):
    """Pickles result data as a build without the packed format did: the
    default dataclass reduction, whose state is the plain ``__dict__``."""

    def reducer_override(self, obj):
        if type(obj) is ExperimentResultData:
            return copyreg.__newobj__, (ExperimentResultData,), dict(obj.__dict__), None, None
        return NotImplemented


def _unpacked_format(data: ExperimentResultData) -> bytes:
    buffer = io.BytesIO()
    _UnpackedFormatPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(data)
    return buffer.getvalue()


def _assert_bitwise_equal(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- round trip
_float64 = hnp.arrays(
    np.float64, st.integers(0, 3_000),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                       float.fromhex("0x1.fffffffffffffp+1023")]))
_int16 = hnp.arrays(np.int16, st.integers(0, 3_000),
                    elements=st.integers(-(2**15), 2**15 - 1))


@settings(max_examples=60, deadline=None)
@given(latencies=_float64, hops=_int16, nan_bits=st.integers(1, 2**51 - 1),
       step=st.integers(1, 3))
def test_packed_round_trip_is_bitwise(latencies, hops, nan_bits, step):
    # A NaN with an arbitrary payload (and sign) must survive bit for bit,
    # which no float comparison would check.
    if latencies.size:
        latencies.view(np.uint64)[0] = np.uint64(0xFFF0_0000_0000_0000 | nan_bits)
    # Strided (non-contiguous) slices pack like their contiguous copies.
    latencies, hops = latencies[::step], hops[::step]
    data = pickle.loads(pickle.dumps(_data(latencies, hops), pickle.HIGHEST_PROTOCOL))
    for got, expected in ((data.latencies_ns, latencies), (data.hops, hops)):
        _assert_bitwise_equal(got, expected)
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous
    assert data.routing_diagnostics == {"feedback_sent": 3}
    assert data.telemetry == {"probe": {"x": [1, 2]}}
    assert data.wall_time_s == 0.25


def test_packed_state_is_smaller_than_the_raw_arrays():
    result = run_experiment(_spec(sim_time_ns=6_000.0))
    data = ExperimentResultData.from_result(result)
    packed = pickle.dumps(data, pickle.HIGHEST_PROTOCOL)
    assert pickle.loads(packed).latencies_ns.tobytes() == result.latencies_ns.tobytes()
    assert len(packed) < len(_unpacked_format(data))


# --------------------------------------------------------------------- cache
def test_a_unpacked_format_entry_is_still_a_hit(tmp_path):
    spec = _spec()
    result = run_experiment(spec)
    entry = tmp_path / f"{spec_fingerprint(spec)}.pkl"
    entry.write_bytes(_unpacked_format(ExperimentResultData.from_result(result)))
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    (cached,) = runner.run([spec])
    assert (runner.simulated, runner.cache_hits) == (0, 1)
    for name in ("latencies_ns", "hops"):
        _assert_bitwise_equal(getattr(cached, name), getattr(result, name))
    assert cached.summary_row() == result.summary_row()


def test_a_corrupt_packed_plane_is_a_miss(tmp_path):
    """One flipped byte inside the compressed latency plane: the entry is
    discarded, the run re-simulated and the entry rewritten."""
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    spec = _spec()
    baseline = runner.run_one(spec)
    key = spec_fingerprint(spec)
    entry = tmp_path / f"{key}.pkl"
    blob = entry.read_bytes()
    latencies = np.ascontiguousarray(baseline.latencies_ns)
    plane = zlib.compress(latencies.view(np.uint8).reshape(-1, 8).T.tobytes(), 1)
    start = blob.find(plane)
    assert start > 0 and len(plane) > 64
    damaged = bytearray(blob)
    damaged[start + len(plane) // 2] ^= 0xFF
    entry.write_bytes(bytes(damaged))
    assert runner.cache.get(key) is None
    assert not entry.exists()
    entry.write_bytes(bytes(damaged))
    rerun = runner.run_one(spec)
    assert runner.simulated == 2, "the damaged entry must be re-simulated"
    assert rerun.summary_row() == baseline.summary_row()
    rewritten = runner.cache.get(key)
    assert rewritten is not None
    _assert_bitwise_equal(rewritten.latencies_ns, baseline.latencies_ns)


# -------------------------------------------------------------- pooled batch
def test_a_pooled_batch_ships_result_data(monkeypatch):
    """Each pool job ships ExperimentResultData and the parent re-attaches
    the per-seed spec: results equal an in-process run's, field for field."""
    pools = []
    real = fanout.imap_unordered

    def spy(func, jobs, processes, *args):
        pools.append(len(jobs))
        return real(func, jobs, processes, *args)

    monkeypatch.setattr(fanout, "imap_unordered", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
    spec = _spec()
    seeds = [7, 11]
    pooled = BatchSimulation(spec, seeds).results()
    assert pools == [2]
    for seed, result in zip(seeds, pooled, strict=True):
        (alone,) = BatchSimulation(spec, [seed]).results()
        assert result.spec == alone.spec == spec.with_overrides(seed=seed)
        assert json.dumps(result.stats.to_dict()) == json.dumps(alone.stats.to_dict())
        assert result.routing_diagnostics == alone.routing_diagnostics
        for name in ("latencies_ns", "hops"):
            _assert_bitwise_equal(getattr(result, name), getattr(alone, name))
        for name in ("latency_timeline_us", "throughput_timeline"):
            for got, expected in zip(getattr(result, name), getattr(alone, name)):
                _assert_bitwise_equal(got, expected)
