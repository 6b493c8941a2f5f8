"""Tests for the parallel sweep runner, spec fingerprinting and result cache."""

import pickle

import pytest

from repro.experiments import (
    ExperimentResultData,
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    run_experiment,
    spec_fingerprint,
)
from repro.engine.rng import derive_replicate_seed
from repro.experiments.parallel import RunProgress, default_runner
from repro.network.params import NetworkParams
from repro.scenarios import Scenario, Study
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


# ------------------------------------------------------------- fingerprinting
def test_fingerprint_is_stable_and_discriminates():
    spec = _spec()
    assert spec_fingerprint(spec) == spec_fingerprint(_spec())
    assert spec_fingerprint(spec) != spec_fingerprint(_spec(seed=4))
    assert spec_fingerprint(spec) != spec_fingerprint(_spec(routing="VALn"))
    assert spec_fingerprint(spec) != spec_fingerprint(
        _spec(routing_kwargs={"max_q": 3}, routing="Q-routing")
    )
    assert spec_fingerprint(spec) != spec_fingerprint(
        _spec(network_params=NetworkParams(vc_buffer_packets=4))
    )


def test_fingerprint_covers_schedules():
    stepped = _spec(offered_load=None, schedule=LoadSchedule.step(0.1, 1_000.0, 0.3))
    other = _spec(offered_load=None, schedule=LoadSchedule.step(0.1, 1_000.0, 0.4))
    assert spec_fingerprint(stepped) == spec_fingerprint(
        _spec(offered_load=None, schedule=LoadSchedule.step(0.1, 1_000.0, 0.3))
    )
    assert spec_fingerprint(stepped) != spec_fingerprint(other)


def test_spec_pickle_round_trip_preserves_fingerprint():
    spec = _spec(
        offered_load=None,
        schedule=LoadSchedule.step(0.1, 1_000.0, 0.3),
        routing_kwargs={"max_q": 3},
        routing="Q-routing",
        network_params=NetworkParams(vc_buffer_packets=4),
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert spec_fingerprint(clone) == spec_fingerprint(spec)
    assert clone.schedule.phases == spec.schedule.phases


# ------------------------------------------------------------------ wire data
def test_result_data_round_trip():
    spec = _spec()
    result = run_experiment(spec)
    data = pickle.loads(pickle.dumps(ExperimentResultData.from_result(result)))
    rebuilt = data.to_result(spec)
    assert rebuilt.spec is spec
    assert rebuilt.summary_row() == result.summary_row()
    assert rebuilt.latencies_ns.size == result.latencies_ns.size


# ---------------------------------------------------------------- determinism
def test_parallel_workers_reproduce_serial_summary_rows():
    """Figure 5-style sweep: MIN/UGALn/Q-adp x UR x 3 loads, workers=1 == workers=4."""
    study = Study(
        name="fig5-mini", config=TINY, sim_time_ns=4_000.0, warmup_ns=2_000.0,
        seed=1,
        scenarios=[Scenario(name="ur", routing=("MIN", "UGALn", "Q-adp"),
                            pattern=("UR",), loads=(0.1, 0.2, 0.3))],
    )
    serial = study.run(SweepRunner(workers=1)).rows()
    parallel = study.run(SweepRunner(workers=4)).rows()
    assert {row["routing"] for row in serial} == {"MIN", "UGALn", "Q-adp"}
    assert len(serial) == 9
    assert serial == parallel


def test_derive_replicate_seed_keeps_index_zero_and_spreads_the_rest():
    assert derive_replicate_seed(7, 0) == 7
    seeds = {derive_replicate_seed(7, i) for i in range(8)}
    assert len(seeds) == 8
    assert derive_replicate_seed(7, 3) == derive_replicate_seed(7, 3)
    assert derive_replicate_seed(7, 3) != derive_replicate_seed(8, 3)


def test_expand_replicates_derives_per_run_seeds():
    runner = SweepRunner(workers=1)
    replicates = runner.expand_replicates(_spec(seed=9), 3)
    expected = [9, derive_replicate_seed(9, 1), derive_replicate_seed(9, 2)]
    assert [r.seed for r in replicates] == expected
    assert all(r.routing == "MIN" for r in replicates)


@pytest.mark.parametrize("count", [-2, True, 1.5])
def test_replicate_counts_must_be_non_negative_integers(count):
    # One seed derivation for both entry points: a bad count is refused, not
    # read as an empty (or a one-seed) run.
    runner = SweepRunner(workers=1)
    with pytest.raises(ValueError, match="replicate count"):
        runner.expand_replicates(_spec(seed=9), count)
    with pytest.raises(ValueError, match="replicate count"):
        runner.run_replicates(_spec(seed=9), count)


# ---------------------------------------------------------------------- cache
def test_cache_miss_then_hit(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    specs = [_spec(), _spec(seed=4)]
    first = [r.summary_row() for r in runner.run(specs)]
    assert runner.simulated == 2 and runner.cache_hits == 0
    second = [r.summary_row() for r in runner.run(specs)]
    assert runner.simulated == 2, "warm cache re-run must execute zero simulations"
    assert runner.cache_hits == 2
    assert first == second


def test_cache_is_shared_across_runners_and_worker_counts(tmp_path):
    warm = SweepRunner(workers=2, cache_dir=tmp_path)
    baseline = [r.summary_row() for r in warm.run([_spec(), _spec(seed=4)])]
    cold = SweepRunner(workers=4, cache_dir=tmp_path)
    rows = [r.summary_row() for r in cold.run([_spec(), _spec(seed=4)])]
    assert cold.simulated == 0 and cold.cache_hits == 2
    assert rows == baseline


def test_corrupted_cache_entry_is_discarded_and_resimulated(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    spec = _spec()
    baseline = runner.run_one(spec).summary_row()
    entry = tmp_path / f"{spec_fingerprint(spec)}.pkl"
    assert entry.is_file()
    entry.write_bytes(b"this is not a pickle")
    rerun = runner.run_one(spec).summary_row()
    assert runner.simulated == 2, "corrupted entry must be treated as a miss"
    assert rerun == baseline
    # ... and the bad file was replaced by a fresh, loadable entry
    assert ResultCache(tmp_path).get(spec_fingerprint(spec)) is not None


def test_truncated_cache_entry_is_a_miss(tmp_path):
    """Every proper prefix of a real entry (a torn write by something other
    than ``put``) reads as a miss, and the bad file goes."""
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    spec = _spec(routing="Q-adp", sim_time_ns=2_000.0, warmup_ns=500.0)
    baseline = runner.run_one(spec).summary_row()
    key = spec_fingerprint(spec)
    entry = tmp_path / f"{key}.pkl"
    blob = entry.read_bytes()
    assert len(blob) > 1_000
    for size in range(len(blob)):
        entry.write_bytes(blob[:size])
        assert runner.cache.get(key) is None, f"a {size}-byte prefix was a hit"
        assert not entry.exists()
    entry.write_bytes(blob[:-1])
    assert runner.run_one(spec).summary_row() == baseline
    assert runner.simulated == 2, "the truncated entry must be re-simulated"
    assert runner.cache.get(key) is not None  # replaced by a loadable entry


def test_cache_entry_of_wrong_type_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = spec_fingerprint(_spec())
    (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps({"not": "result data"}))
    assert cache.get(key) is None
    assert not (tmp_path / f"{key}.pkl").exists()


def test_cache_clear(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    runner.run([_spec(), _spec(seed=4)])
    assert len(runner.cache) == 2
    assert runner.cache.clear() == 2
    assert len(runner.cache) == 0


# ------------------------------------------------------------------- progress
def test_progress_callback_streams_every_run(tmp_path):
    updates = []
    runner = SweepRunner(workers=1, cache_dir=tmp_path, progress=updates.append)
    runner.run([_spec(), _spec(seed=4)])
    assert [u.done for u in updates] == [1, 2]
    assert all(isinstance(u, RunProgress) and u.total == 2 for u in updates)
    assert all(not u.cached for u in updates)
    runner.run([_spec()])
    assert updates[-1].cached


# ----------------------------------------------------------------- env wiring
def test_default_runner_env_parsing(tmp_path):
    runner = default_runner(env={})
    assert runner.workers == 1 and runner.cache is None
    runner = default_runner(env={"REPRO_WORKERS": "3", "REPRO_CACHE": str(tmp_path)})
    assert runner.workers == 3
    assert runner.cache is not None and runner.cache.directory == tmp_path
    runner = default_runner(env={"REPRO_CACHE": "1"})
    assert runner.cache is not None
    with pytest.raises(ValueError):
        default_runner(env={"REPRO_WORKERS": "lots"})
    with pytest.raises(ValueError, match="REPRO_WORKERS .* got '-1'"):
        default_runner(env={"REPRO_WORKERS": "-1"})


def test_negative_workers_are_refused():
    with pytest.raises(ValueError, match="got -2"):
        SweepRunner(workers=-2)


def test_workers_zero_means_one_per_cpu():
    import multiprocessing

    assert SweepRunner(workers=0).workers == multiprocessing.cpu_count()
