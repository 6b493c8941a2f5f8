"""Parallel experiment execution with on-disk result memoization.

Every figure of the paper is a sweep of *independent* simulation runs
(algorithms x patterns x loads x seeds), so the natural way to speed them up
is to fan the runs out over a :mod:`multiprocessing` worker pool.  This
module provides the machinery:

* :class:`ExperimentResultData` — a slim, picklable wire format for one run's
  measurements, and the one type that crosses a process boundary or lands
  in the cache.  :class:`~repro.experiments.harness.ExperimentResult`
  itself carries a back-reference to its spec plus full latency arrays; the
  wire format ships only the measured payload (the per-packet arrays
  packed losslessly) and the parent process re-attaches the spec it
  already holds.
* :func:`spec_fingerprint` — a stable content hash of an
  :class:`~repro.experiments.harness.ExperimentSpec`, independent of the
  Python process (no ``id()``/``hash()``), used as the cache key.
* :class:`ResultCache` — a directory of ``<fingerprint>.pkl`` files
  (``.cache/experiments/`` by default).  Corrupted or unreadable entries are
  treated as misses and deleted.
* :class:`SweepRunner` — runs a list of specs, in-process when ``workers=1``
  (bitwise-identical to calling :func:`run_experiment` in a loop) or on a
  worker pool (:mod:`repro.engine.fanout`) when ``workers>1`` — unless the
  caller is itself a pool worker.  Results come back in spec order either
  way, and completed runs are memoized in the cache so that re-running a
  figure script only simulates what changed.

Determinism: a run is fully determined by its spec (the simulator draws every
random number from streams seeded by ``spec.seed``), so parallel execution
cannot change any result — only the wall-clock time.  For *replicated* runs
of one spec, :func:`repro.engine.rng.derive_replicate_seeds` derives the
per-run seeds from ``(spec.seed, run_index)``; run index 0 keeps the base seed
so a single run is unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import sys
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from repro.engine import fanout
from repro.engine.rng import derive_replicate_seeds
from repro.experiments.harness import ExperimentResult, ExperimentSpec, run_experiment
from repro.stats.collectors import RunStats

#: bump when the simulator or the wire format changes in a way that makes
#: previously cached results stale.  (2: fingerprints re-based on the
#: serialized spec schema instead of dataclass introspection.  3: spec
#: schema v2 — warm_start checkpoints — retires every v1-keyed entry.
#: 4: spec schema v3 + the telemetry block in the wire format.
#: 5: spec schema v4 — family-tagged ``topology`` blocks replace the
#:    Dragonfly-only ``config`` key in the serialized form.
#: 6: spec schema v5 — optional fault-schedule blocks in the serialized
#:    form, fault diagnostics in the cached payload.)  Hop counts becoming
#: int16 instead of float64 is no bump: the values are unchanged, so an
#: older entry is still a correct hit.
CACHE_VERSION = 6

#: default location of the on-disk result cache, relative to the CWD.
DEFAULT_CACHE_DIR = Path(".cache") / "experiments"


# --------------------------------------------------------------- fingerprints
def _json_default(value: object) -> object:
    """Reduce the few non-JSON scalars a spec may carry (numpy numbers)."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"spec contains an unserializable value: {value!r}")


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Stable content hash of a spec, usable as an on-disk cache key.

    The hash covers the *canonical serialized form* of the spec
    (:meth:`ExperimentSpec.to_dict`, which embeds a schema-version field and
    sorts keys here), not the Python dataclass layout — so cache keys are
    insensitive to field reordering, name-spelling variants and future
    dataclass refactors, and any two specs with equal serialized forms share
    one cache entry regardless of how they were built (catalog study, study
    file, or hand-written code).

    Warm-started specs additionally fold in the referenced checkpoint's
    content digest (read from its manifest): overwriting a checkpoint in
    place — e.g. re-training a tag with ``--retrain`` — changes the
    fingerprint, so stale cached results of the old policy are never served
    for the new one.
    """
    data = spec.to_dict()
    if spec.warm_start is not None:
        from repro.store import read_state_digest

        digest = read_state_digest(spec.warm_start)
        if digest is not None:
            data["warm_start_digest"] = digest
    payload = json.dumps(
        data, sort_keys=True, separators=(",", ":"), default=_json_default,
    )
    return hashlib.sha256(f"{CACHE_VERSION}:{payload}".encode("utf-8")).hexdigest()


# --------------------------------------------------------------- wire format
#: the per-packet arrays, which the pickled state stores packed.
_PACKED_FIELDS = ("latencies_ns", "hops")


def _pack_array(array: np.ndarray) -> Tuple[str, int, bytes]:
    """A 1-D array as ``(dtype.str, length, zlib level-1 byte planes)``.

    The bytes are transposed to one plane per byte position first: the
    sign/exponent and high-mantissa bytes of the float64 latencies (and the
    high bytes of the int16 hop counts) then sit together and compress
    well; the near-random low mantissa bytes cost about what they weigh.
    Lossless.
    """
    array = np.ascontiguousarray(array)
    planes = array.view(np.uint8).reshape(len(array), array.itemsize).T
    return array.dtype.str, len(array), zlib.compress(planes.tobytes(), 1)


def _unpack_array(packed: Tuple[str, int, bytes]) -> np.ndarray:
    """Inverse of :func:`_pack_array`: an owned, writeable, C-contiguous
    array; a damaged payload is a :class:`ValueError`."""
    dtype_str, length, blob = packed
    try:
        dtype = np.dtype(dtype_str)
        planes = zlib.decompress(blob)
    except (TypeError, zlib.error) as exc:
        raise ValueError(f"corrupt packed array: {exc}") from None
    if len(planes) != length * dtype.itemsize:
        raise ValueError(f"corrupt packed array: {len(planes)} bytes decoded, "
                         f"expected {length} x {dtype.itemsize}")
    array = np.empty(length, dtype)
    array.view(np.uint8).reshape(length, dtype.itemsize)[...] = (
        np.frombuffer(planes, np.uint8).reshape(dtype.itemsize, length).T)
    return array


@dataclass
class ExperimentResultData:
    """Picklable measurements of one run, without the spec back-reference.

    This is what crosses the process boundary (a :class:`SweepRunner` pool,
    a pooled :class:`~repro.engine.batch.BatchSimulation`) and what the
    cache stores; the parent reconstructs a full :class:`ExperimentResult`
    by re-attaching the spec it submitted.  The per-packet arrays keep their
    result dtypes: float64 ``latencies_ns`` and int16 ``hops`` (an older
    cache entry may hold the same hop counts as float64; see
    :data:`CACHE_VERSION`).

    Pickled, each of ``latencies_ns`` and ``hops`` is stored packed as
    ``(dtype.str, length, zlib.compress(byte planes, 1))``, the array's
    bytes transposed so that byte ``i`` of every element is contiguous.
    Decoding gives back the same dtype, shape and bytes, as an owned,
    writeable array; every other field pickles as it is.  A state pickled
    before the packed format (plain ndarray fields) loads unchanged, so
    older cache entries stay hits.
    """

    stats: RunStats
    latencies_ns: np.ndarray
    hops: np.ndarray
    latency_timeline_us: Tuple[np.ndarray, np.ndarray]
    throughput_timeline: Tuple[np.ndarray, np.ndarray]
    routing_diagnostics: Dict
    wall_time_s: float
    #: JSON-ready probe summaries keyed by probe name (plain data, so the
    #: telemetry of a cached or worker-executed run survives the pickle
    #: round trip unchanged).
    telemetry: Dict = field(default_factory=dict)

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        for name in _PACKED_FIELDS:
            state[name] = _pack_array(state[name])
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name in _PACKED_FIELDS:
            if not isinstance(state[name], np.ndarray):  # else a pre-packing entry
                state[name] = _unpack_array(state[name])
        self.__dict__.update(state)

    @classmethod
    def from_result(cls, result: ExperimentResult) -> "ExperimentResultData":
        return cls(
            stats=result.stats,
            latencies_ns=result.latencies_ns,
            hops=result.hops,
            latency_timeline_us=result.latency_timeline_us,
            throughput_timeline=result.throughput_timeline,
            routing_diagnostics=result.routing_diagnostics,
            wall_time_s=result.wall_time_s,
            telemetry=result.telemetry,
        )

    def to_result(self, spec: ExperimentSpec) -> ExperimentResult:
        return ExperimentResult(
            spec=spec,
            stats=self.stats,
            latencies_ns=self.latencies_ns,
            hops=self.hops,
            latency_timeline_us=self.latency_timeline_us,
            throughput_timeline=self.throughput_timeline,
            routing_diagnostics=self.routing_diagnostics,
            wall_time_s=self.wall_time_s,
            telemetry=self.telemetry,
        )


# --------------------------------------------------------------------- cache
class ResultCache:
    """Directory of pickled :class:`ExperimentResultData`, one file per spec.

    Entries hold the run's full payload: per-packet latency/hop arrays in
    the packed format of :class:`ExperimentResultData` and both timelines,
    about 6.7 B per measured packet in all (bench-scale ``fig6``: 304,537
    packets in 2.05 MB), where the raw arrays alone take 10 B.  Nothing is
    evicted automatically; the directory is safe to delete at any time.
    An entry that fails to load — truncated, not a pickle, a damaged packed
    array, the wrong type — is deleted and reads as a miss.  An entry
    written before the packed format (plain arrays) is still a hit.
    """

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Optional[ExperimentResultData]:
        """Load a cached entry; corrupted entries are deleted and miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                data = pickle.load(fh)
        except FileNotFoundError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                IndexError, MemoryError, OSError, ValueError):
            self._discard(path)
            return None
        if not isinstance(data, ExperimentResultData):
            self._discard(path)
            return None
        return data

    def put(self, key: str, data: ExperimentResultData) -> None:
        """Store an entry atomically (a crash never leaves a partial file)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            self._discard(Path(tmp))
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()

    def __len__(self) -> int:
        return len(list(self.directory.glob("*.pkl"))) if self.directory.is_dir() else 0


# -------------------------------------------------------------------- runner
def _run_spec_to_data(indexed_spec: Tuple[int, ExperimentSpec]) -> Tuple[int, ExperimentResultData]:
    """Worker entry point: run one spec, ship back its index and wire data."""
    index, spec = indexed_spec
    result = run_experiment(spec)
    return index, ExperimentResultData.from_result(result)


@dataclass
class RunProgress:
    """One progress update, emitted as each run finishes (in completion order)."""

    done: int
    total: int
    spec: ExperimentSpec
    cached: bool
    wall_time_s: float


def print_progress(update: RunProgress, stream: Optional[TextIO] = None) -> None:
    """Default progress sink: one line per completed run on stderr."""
    stream = stream or sys.stderr
    source = "cache" if update.cached else f"{update.wall_time_s:.1f}s"
    print(
        f"[{update.done}/{update.total}] {update.spec.display_name} ({source})",
        file=stream,
        flush=True,
    )


class SweepRunner:
    """Executes batches of :class:`ExperimentSpec` with optional parallelism.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs everything
        in-process, preserving the exact semantics — and RNG streams — of a
        serial :func:`run_experiment` loop.  ``0`` or ``None`` means "one per
        CPU"; a negative count is refused.
    cache_dir:
        Directory for the on-disk result cache.  ``None`` disables caching.
    progress:
        Optional callback invoked with a :class:`RunProgress` after every
        completed run (pass :func:`print_progress` for stderr logging).

    The counters ``simulated`` and ``cache_hits`` accumulate across calls and
    let callers (and tests) verify that a warm-cache re-run executed zero
    simulations.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache_dir: Optional[os.PathLike] = None,
        progress: Optional[Callable[[RunProgress], None]] = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValueError(
                f"workers must be 0 (one per CPU) or positive, got {workers}")
        if not workers:
            workers = os.cpu_count() or 1
        self.workers = int(workers)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.progress = progress
        self.simulated = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------- API
    def run_one(self, spec: ExperimentSpec) -> ExperimentResult:
        """Run (or fetch from cache) a single experiment."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        """Run every spec, returning results in spec order.

        Cached runs are loaded without simulating; the rest are executed
        in-process (``workers=1``) or on a ``multiprocessing`` pool.
        """
        specs = list(specs)
        total = len(specs)
        results: List[Optional[ExperimentResult]] = [None] * total
        done = 0

        pending: List[Tuple[int, ExperimentSpec]] = []
        keys: Dict[int, str] = {}
        for index, spec in enumerate(specs):
            data = None
            if self.cache is not None:
                keys[index] = spec_fingerprint(spec)
                data = self.cache.get(keys[index])
            if data is not None:
                self.cache_hits += 1
                results[index] = data.to_result(spec)
                done += 1
                self._emit(done, total, spec, cached=True, wall_time_s=0.0)
            else:
                pending.append((index, spec))

        for index, data in self._execute(pending):
            spec = specs[index]
            self.simulated += 1
            if self.cache is not None:
                self.cache.put(keys[index], data)
            results[index] = data.to_result(spec)
            done += 1
            self._emit(done, total, spec, cached=False, wall_time_s=data.wall_time_s)

        return results  # type: ignore[return-value]

    def expand_replicates(
        self, spec: ExperimentSpec, replicates: int
    ) -> List[ExperimentSpec]:
        """Copies of ``spec`` with per-run seeds derived from (seed, index).

        ``replicates`` must be a non-negative integer (``ValueError``
        otherwise, from :func:`repro.engine.rng.derive_replicate_seeds`).
        """
        return [spec.with_overrides(seed=seed)
                for seed in derive_replicate_seeds(spec.seed, replicates)]

    def run_replicates(
        self, spec: ExperimentSpec, replicates: int
    ) -> List[ExperimentResult]:
        """Run ``replicates`` seeds of one spec, in seed-derivation order:
        ``run(expand_replicates(spec, replicates))`` — one job per seed."""
        return self.run(self.expand_replicates(spec, replicates))

    # -------------------------------------------------------------- internals
    def _emit(self, done: int, total: int, spec: ExperimentSpec,
              cached: bool, wall_time_s: float) -> None:
        if self.progress is not None:
            self.progress(RunProgress(done, total, spec, cached, wall_time_s))

    def _execute(
        self, pending: Sequence[Tuple[int, ExperimentSpec]],
    ) -> Iterator[Tuple[int, ExperimentResultData]]:
        """Yield ``(index, ExperimentResultData)`` as runs finish."""
        if fanout.in_process(len(pending), self.workers):
            yield from map(_run_spec_to_data, pending)
        else:
            yield from fanout.imap_unordered(
                _run_spec_to_data, pending, min(self.workers, len(pending)))


# ----------------------------------------------------------- env-driven setup
def default_runner(env: Optional[Dict[str, str]] = None) -> SweepRunner:
    """Build a runner from the environment.

    ``REPRO_WORKERS=<n>`` sets the pool size (``0`` = one per CPU; default 1,
    i.e. serial).  ``REPRO_CACHE=1`` enables the default on-disk cache and
    ``REPRO_CACHE=<dir>`` points it elsewhere; unset/``0`` disables caching.
    """
    environment = os.environ if env is None else env
    workers_raw = environment.get("REPRO_WORKERS", "1")
    try:
        workers = int(workers_raw)
        if workers < 0:
            raise ValueError(workers_raw)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be 0 (one per CPU) or a positive integer, "
            f"got {workers_raw!r}") from None
    cache_raw = environment.get("REPRO_CACHE", "")
    cache_dir: Optional[Path]
    if not cache_raw or cache_raw == "0":
        cache_dir = None
    elif cache_raw in ("1", "true", "yes"):
        cache_dir = DEFAULT_CACHE_DIR
    else:
        cache_dir = Path(cache_raw)
    return SweepRunner(workers=workers, cache_dir=cache_dir)
