"""Deterministic cost of a run: the calls and bytecodes it executes in the
package, and the heap one replicate keeps alive.

Wall-clock and RSS move with the host; what the interpreter executes and
keeps alive does not.  Each case runs in a fresh interpreter and reports
counts that are pinned in ``bench_counts.json``.

**Counts.**  A tracer (``sys.settrace`` with opcode events) counts, for every
Python frame whose code lies under ``src/repro``, one call per frame entry
(a generator's resume is one more) and one bytecode per instruction
executed, bucketed by the file that holds the code.  Frames of numpy, the
stdlib and this file are not counted, so only a change to the package moves
a count.  Each case counts two phases, ``setup`` and ``drain``, and reports
the drain's ``events``.  In a simulation, set-up is constructing a one-seed
:class:`~repro.engine.batch.BatchSimulation` on the flat kernel, or
``build_network`` plus the generator's ``start`` on the object graph, and
the drain runs to the horizon:

* ``tiny-<routing>-<engine>``: every routing of the closed set on the 6-node
  Dragonfly, ADV+1 at 0.3 for 2 µs, on both engines;
* ``72-<routing>-<pattern>-<engine>``: four 72-node specs on both engines,
  for 3 µs;
* ``fig5-specs``: set-up builds the specs of a 16-run Figure 5 sweep (four
  routings, two patterns, two loads each), and the drain takes their 16
  fingerprints (its events are the specs);
* ``trace-1056``: set-up builds the 1 056-node kernel model, and the drain
  records the traffic trace of ADV+1 at 0.3 over 8 µs (its events are the
  wake-ups).

The tracer also fails a case when the drain calls a package function that
takes ``**kwargs`` (building a keyword dict per call on the per-event path).

**Footprint.**  For three specs the cases record, with ``tracemalloc``, the
live bytes and blocks after set-up and again after draining to the horizon:

* ``small-72-qadp-ur``: 72 nodes, Q-adp, UR at 0.5, on the flat kernel;
* ``paper-1056-qadp-adv1``: 1 056 nodes, Q-adp, ADV+1 at 0.3, on the flat
  kernel;
* ``scalar-1056-qadp-adv1``: the same spec on the object graph.

On the kernel, set-up is constructing a one-seed ``BatchSimulation`` (model,
traffic trace and replicate state); on the object graph it is
``build_network`` plus the generator's ``start``.  That case also counts the
garbage collections that run inside ``build_network`` and inside the drain.
Both pause the collector, so each defers its collections to one pass: the
build's runs as ``build_network`` returns (a count of 1, against about 75
with the collector on), the drain's after ``run`` returns (a count of 0).
All run 2 µs at seed 7: ``tracemalloc`` finds the line of every allocation
by scanning the allocating function's line table, which makes the kernel's
one large drain function tens of times slower while it traces.  Array data
counts wherever numpy allocated it; other blocks allocated inside numpy's
own files (its caches, which vary from run to run), by the import machinery
or by ``tracemalloc`` do not, so the pins count what this package keeps
alive.

Before measuring, each case makes one throwaway run of the same code on a
Dragonfly it does not measure, so every first call (lazy imports, numpy's
caches) is made and no topology it measures is cached yet.  Each case runs
under two hash seeds, which must agree.  The pins hold for the Python minor
version that wrote them; under any other version the counts are printed,
not compared.  A count that moves is a finding: say in the change which
counts moved and why, file by file.

Run ``python -m pytest -q benchmarks/bench_counts.py`` to check the pins (a
mismatch writes the measured counts to ``bench_counts.measured.json`` beside
this file), ``python benchmarks/bench_counts.py`` to print the counts, and
``python benchmarks/bench_counts.py --update`` to rewrite the pins after an
intended change.
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Set, Tuple

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
PINS = os.path.join(_HERE, "bench_counts.json")
MEASURED = os.path.join(_HERE, "bench_counts.measured.json")
HASH_SEEDS = ("0", "1")
SEED = 7

#: the closed routing set, each a decision kind of the flat kernel.
ROUTINGS = ("MIN", "Q-adp", "Q-routing", "VALg", "VALn", "VAL", "UGALg", "UGALn", "PAR")
ENGINES = ("kernel", "object")
#: the 72-node count specs: routing, pattern, offered load.
SPECS_72 = (("Q-adp", "UR", 0.5), ("MIN", "UR", 0.5), ("UGALn", "ADV+1", 0.3),
            ("Q-adp", "ADV+1", 0.3))

#: spec keyword arguments per case; config is Dragonfly ``(p, a, h)``.
CASES: Dict[str, Dict] = {
    **{f"tiny-{routing}-{engine}": dict(engine=engine, config=(1, 2, 1), routing=routing,
                                        pattern="ADV+1", offered_load=0.3,
                                        sim_time_ns=2_000.0)
       for routing in ROUTINGS for engine in ENGINES},
    **{f"72-{routing}-{pattern}-{engine}": dict(engine=engine, config=(2, 4, 2),
                                                routing=routing, pattern=pattern,
                                                offered_load=load, sim_time_ns=3_000.0)
       for routing, pattern, load in SPECS_72 for engine in ENGINES},
    "fig5-specs": dict(engine="study", config=(2, 4, 2), sim_time_ns=10_000.0),
    "trace-1056": dict(engine="trace", config=(4, 8, 4), routing="Q-adp", pattern="ADV+1",
                       offered_load=0.3, sim_time_ns=8_000.0),
    "small-72-qadp-ur": dict(engine="kernel", config=(2, 4, 2), routing="Q-adp",
                             pattern="UR", offered_load=0.5),
    "paper-1056-qadp-adv1": dict(engine="kernel", config=(4, 8, 4), routing="Q-adp",
                                 pattern="ADV+1", offered_load=0.3),
    "scalar-1056-qadp-adv1": dict(engine="object", config=(4, 8, 4), routing="Q-adp",
                                  pattern="ADV+1", offered_load=0.3),
}
#: the cases that measure the live heap instead of counting.
FOOTPRINT = ("small-72-qadp-ur", "paper-1056-qadp-adv1", "scalar-1056-qadp-adv1")
#: the Dragonfly of the throwaway run before a count case: measured by none.
WARM_UP_CONFIG = (1, 2, 2)


# ------------------------------------------------------------------- counts
class _Tracer:
    """Calls and bytecodes of the package's frames, per file."""

    def __init__(self, check_kwargs: bool) -> None:
        self.package = os.path.join(_SRC, "repro", "")
        self.check_kwargs = check_kwargs
        #: file (relative to the package) -> [calls, bytecodes]
        self.counts: Dict[str, List[int]] = {}
        self.kwargs: Set[str] = set()
        self._files: Dict[str, Tuple[List[int], Callable]] = {}  # path -> (counts, tracer)

    def _file(self, path: str) -> Tuple[List[int], Callable]:
        box = self.counts[path[len(self.package):]] = [0, 0]

        def local(frame, event, arg):
            if event == "opcode":
                box[1] += 1
            return local

        entry = self._files[path] = (box, local)
        return entry

    def call(self, frame, event, arg):
        code = frame.f_code
        path = code.co_filename
        if not path.startswith(self.package):
            return None
        box, local = self._files.get(path) or self._file(path)
        box[0] += 1
        if self.check_kwargs and code.co_flags & inspect.CO_VARKEYWORDS:
            self.kwargs.add(f"{path[len(self.package):]}:{code.co_qualname}")
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local


def _spec(case: Dict, **overrides):
    from repro.experiments.harness import ExperimentSpec
    from repro.topology.config import DragonflyConfig

    fields = {key: value for key, value in case.items() if key != "engine"}
    fields.update(overrides)
    return ExperimentSpec(config=DragonflyConfig(*fields.pop("config")), seed=SEED,
                          warmup_ns=0.0, **fields)


def _run_kernel(spec, phase) -> int:
    from repro.engine.batch import BatchSimulation

    with phase("setup"):
        batch = BatchSimulation(spec, [SEED])
    with phase("drain"):
        batch.run()
    return batch.events_processed()[0]


def _run_object(spec, phase) -> int:
    from repro.experiments.harness import build_network

    with phase("setup"):
        network, generator = build_network(spec)
        generator.start()
    with phase("drain"):
        network.run(until=spec.sim_time_ns)
    return network.sim.events_processed


def _run_study(spec, phase) -> int:
    from repro.experiments.parallel import spec_fingerprint
    from repro.experiments.presets import ExperimentScale
    from repro.scenarios.catalog import fig5_study

    scale = ExperimentScale(
        name="counts-fig5", config=spec.config, scaleup_config=spec.config,
        warmup_ns=spec.sim_time_ns / 2, measure_ns=spec.sim_time_ns / 2,
        convergence_ns=spec.sim_time_ns, ur_loads=(0.3, 0.6), adv_loads=(0.15, 0.3),
        ur_reference_load=0.6, adv_reference_load=0.3, seed=SEED)
    with phase("setup"):
        specs = fig5_study(scale, ("MIN", "VALn", "UGALn", "Q-adp"), ("UR", "ADV+1")).specs()
    with phase("drain"):
        for each in specs:
            spec_fingerprint(each)
    return len(specs)


def _run_trace(spec, phase) -> int:
    from repro.engine.batch.model import build_model
    from repro.engine.batch.trace import record_traffic_trace
    from repro.traffic import make_pattern

    with phase("setup"):
        model = build_model(spec)
        pattern = make_pattern(spec.pattern)
    with phase("drain"):
        times, _ = record_traffic_trace(model.topo, model.params, pattern, SEED,
                                        spec.offered_load, spec.schedule, spec.arrival,
                                        spec.sim_time_ns)
    return sum(map(len, times))


_RUNNERS = {"kernel": _run_kernel, "object": _run_object, "study": _run_study,
            "trace": _run_trace}


def count(case: str) -> Dict:
    """Calls and bytecodes per phase and file of one run of ``case``, in
    this interpreter; ``events`` is what the run reports (events drained,
    specs fingerprinted, wake-ups recorded)."""
    run = _RUNNERS[CASES[case]["engine"]]
    run(_spec(CASES[case], config=WARM_UP_CONFIG, sim_time_ns=500.0),
        lambda name: nullcontext())
    gc.collect()
    counts: Dict = {}

    @contextmanager
    def phase(name: str) -> Iterator[None]:
        tracer = _Tracer(check_kwargs=name == "drain")
        sys.settrace(tracer.call)
        try:
            yield
        finally:
            sys.settrace(None)
        if tracer.kwargs:
            raise RuntimeError(
                f"{case}: the {name} calls functions that take **kwargs: {sorted(tracer.kwargs)}")
        counts[name] = dict(sorted(tracer.counts.items()))

    counts["events"] = run(_spec(CASES[case]), phase)
    return counts


# ---------------------------------------------------------------- footprint
def _snapshot() -> tracemalloc.Snapshot:
    gc.collect()
    # Taken inside tracemalloc.py, so its own memory is never counted.
    return tracemalloc.take_snapshot()


def _count(snapshot: tracemalloc.Snapshot) -> Tuple[int, int]:
    """Live ``(bytes, blocks)`` of a snapshot: every array's data (numpy's
    own trace domain), and every other block except those allocated in
    numpy's files (its caches, which vary run to run), by the import
    machinery or by tracemalloc itself."""
    size = blocks = 0
    for domain in (0, np.lib.tracemalloc_domain):
        for stat in snapshot.filter_traces([tracemalloc.DomainFilter(True, domain)]).statistics(
                "filename"):
            name = stat.traceback[0].filename
            if domain or not ("/numpy/" in name or name.startswith("<frozen ")
                              or name == tracemalloc.__file__):
                size += stat.size
                blocks += stat.count
    return size, blocks


def footprint(case: str) -> Dict[str, int]:
    """The live heap of one run of ``case``, in this interpreter."""
    # Everything the run imports, imported before counting starts.
    import repro.experiments.parallel  # noqa: F401
    from repro.engine.batch import BatchSimulation
    from repro.experiments.harness import build_network
    from repro.topology.config import DragonflyConfig

    spec = _spec(CASES[case], sim_time_ns=2_000.0)
    # A throwaway run on the 6-node Dragonfly makes every first call (numpy's
    # lazy caches included) before counting starts; it caches nothing of the
    # measured topology.
    tiny = spec.with_overrides(config=DragonflyConfig.tiny(), sim_time_ns=500.0)
    object_graph = CASES[case]["engine"] == "object"
    if object_graph:
        network, generator = build_network(tiny)
        generator.start()
        network.run(until=tiny.sim_time_ns)
        network.finalize()
        del network, generator
    else:
        BatchSimulation(tiny, [SEED]).run().results()
    gc.collect()
    collections = []

    def probe(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            collections.append(info["generation"])

    tracemalloc.start()
    if object_graph:
        gc.callbacks.append(probe)
        network, generator = build_network(spec)
        counts = {"build_collections": len(collections)}
        generator.start()
        built = _snapshot()
        collections.clear()
        network.run(until=spec.sim_time_ns)
        counts["drain_collections"] = len(collections)
        gc.callbacks.remove(probe)
        drained = _snapshot()
        counts["events_processed"] = network.sim.events_processed
    else:
        batch = BatchSimulation(spec, [SEED])
        built = _snapshot()
        batch.run()
        drained = _snapshot()
        counts = {"events_processed": batch.events_processed()[0]}
    tracemalloc.stop()
    (built_bytes, built_blocks), (drained_bytes, drained_blocks) = map(_count, (built, drained))
    return {"construct_bytes": built_bytes, "construct_blocks": built_blocks,
            "drain_bytes": drained_bytes, "drain_blocks": drained_blocks, **counts}


def measure(case: str) -> Dict:
    return footprint(case) if case in FOOTPRINT else count(case)


# ------------------------------------------------------------------ harness
def _start(case: str, hash_seed: str) -> subprocess.Popen:
    """:func:`measure` in a new interpreter under ``PYTHONHASHSEED=hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--case", case],
                            env=env, stdout=subprocess.PIPE, text=True)


def _version() -> str:
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def collect() -> Dict[str, Dict]:
    """Every case, measured under each hash seed (the two at once); the
    seeds must agree."""
    counts = {}
    for case in CASES:
        runs = []
        for child in [_start(case, hash_seed) for hash_seed in HASH_SEEDS]:
            out = child.communicate()[0]
            assert child.returncode == 0, (case, child.returncode)
            runs.append(json.loads(out))
        assert all(run == runs[0] for run in runs), (case, runs)
        counts[case] = runs[0]
    return counts


def _flat(tree: Dict, prefix: Tuple[str, ...] = ()) -> Iterator[Tuple[str, object]]:
    """``("case/phase/file", value)`` for every leaf of ``tree``."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _flat(value, prefix + (key,))
        else:
            yield "/".join(prefix + (key,)), value


#: what a count case's ``events`` counts, per engine.
_UNITS = {"kernel": "event", "object": "event", "study": "spec", "trace": "wake-up"}


def report(counts: Dict[str, Dict]) -> str:
    """One line per counted phase: totals, and the drain's bytecodes per event."""
    lines = []
    for case, result in counts.items():
        for name in ("setup", "drain"):
            if name in result:
                calls, bytecodes = map(sum, zip(*result[name].values()))
                line = f"{case:24} {name:5} {calls:>7} calls {bytecodes:>9} bytecodes"
                if name == "drain":
                    unit = _UNITS[CASES[case]["engine"]]
                    line += f"  {bytecodes / result['events']:.1f} per {unit}"
                lines.append(line)
    return "\n".join(lines)


def dump(counts: Dict[str, Dict], path: str) -> None:
    """Write ``counts`` as a pins document, one ``[calls, bytecodes]`` a line."""
    text = json.dumps({"python": _version(), "cases": counts}, indent=1)
    with open(path, "w") as handle:
        handle.write(re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text) + "\n")


def test_counts_are_pinned():
    counts = collect()
    print(report(counts))
    with open(PINS) as handle:
        pins = json.load(handle)
    if pins["python"] != _version():
        print(f"pins are for Python {pins['python']}; not compared on {_version()}")
        return
    pinned, measured = dict(_flat(pins["cases"])), dict(_flat(counts))
    moved = [f"{key}: {pinned.get(key)} -> {measured.get(key)}"
             for key in sorted(pinned.keys() | measured.keys())
             if pinned.get(key) != measured.get(key)]
    if moved:
        dump(counts, MEASURED)
    assert not moved, "counts moved (measured counts in {}):\n{}".format(
        MEASURED, "\n".join(moved))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        print(json.dumps(measure(sys.argv[2])))
    else:
        counts = collect()
        print(report(counts))
        if sys.argv[1:] == ["--update"]:
            dump(counts, PINS)
