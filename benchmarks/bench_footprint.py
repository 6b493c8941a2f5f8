"""Deterministic memory footprint of one run on either engine.

Wall-clock and RSS move with the host; the Python heap a run keeps alive
does not.  For three specs this bench records, with ``tracemalloc``, the
live bytes and blocks after set-up and again after draining to the horizon:

* ``small-72-qadp-ur``: 72 nodes, Q-adp, UR at 0.5, on the flat kernel;
* ``paper-1056-qadp-adv1``: 1 056 nodes, Q-adp, ADV+1 at 0.3, on the flat
  kernel;
* ``scalar-1056-qadp-adv1``: the same spec on the object graph.

On the kernel, set-up is constructing a one-seed
:class:`~repro.engine.batch.BatchSimulation` (model, traffic trace and
replicate state); on the object graph it is ``build_network`` plus the
generator's ``start``.  That case also counts the garbage collections that
run inside ``build_network`` and inside the drain.  Both pause the
collector, so each defers its collections to one pass: the build's runs as
``build_network`` returns (a count of 1, against about 75 with the collector
on), the drain's after ``run`` returns (a count of 0).

All run 2 µs at seed 7: ``tracemalloc`` finds the line of every allocation
by scanning the allocating function's line table, which makes the kernel's
one large drain function tens of times slower while it traces.

Each measurement runs in a fresh interpreter, after one throwaway 6-node run
that makes every first call, so no cache of an earlier measurement is
counted, and is taken under two hash seeds, which must agree.  The counts are pinned in ``bench_footprint.json`` for the
Python minor version that wrote them; under any other version they are
printed, not compared.  Array data counts wherever numpy allocated it;
other blocks allocated inside numpy's own files (its caches, which vary from
run to run), by the import machinery or by ``tracemalloc`` do not, so the
pins count what this package keeps alive.

Run ``python -m pytest -q benchmarks/bench_footprint.py`` to check the pins,
``python benchmarks/bench_footprint.py`` to print the counts, and
``python benchmarks/bench_footprint.py --update`` to rewrite the pins after
an intended change (say which counts moved and why).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from typing import Dict, Tuple

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
PINS = os.path.join(_HERE, "bench_footprint.json")
HASH_SEEDS = ("0", "1")
SEED = 7

#: spec keyword arguments per case; config is Dragonfly ``(p, a, h)``.
CASES: Dict[str, Dict] = {
    "small-72-qadp-ur": dict(config=(2, 4, 2), routing="Q-adp", pattern="UR",
                             offered_load=0.5),
    "paper-1056-qadp-adv1": dict(config=(4, 8, 4), routing="Q-adp", pattern="ADV+1",
                                 offered_load=0.3),
    "scalar-1056-qadp-adv1": dict(config=(4, 8, 4), routing="Q-adp", pattern="ADV+1",
                                  offered_load=0.3),
}
#: the cases run on the object graph; the others run on the flat kernel.
OBJECT_GRAPH = {"scalar-1056-qadp-adv1"}


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


def measure(case: str) -> Dict[str, int]:
    """The live heap of one run of ``case``, in this interpreter."""
    # Everything the run imports, imported before counting starts.
    import repro.experiments.parallel  # noqa: F401
    from repro.engine.batch import BatchSimulation
    from repro.experiments.harness import ExperimentSpec, build_network
    from repro.topology.config import DragonflyConfig

    kwargs = dict(CASES[case])
    spec = ExperimentSpec(config=DragonflyConfig(*kwargs.pop("config")), seed=SEED,
                          sim_time_ns=2_000.0, warmup_ns=0.0, **kwargs)
    # A throwaway run on the 6-node Dragonfly makes every first call (numpy's
    # lazy caches included) before counting starts; it caches nothing of the
    # measured topology.
    tiny = spec.with_overrides(config=DragonflyConfig.tiny(), sim_time_ns=500.0)
    if case in OBJECT_GRAPH:
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
    if case in OBJECT_GRAPH:
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


def _start(case: str, hash_seed: str) -> subprocess.Popen:
    """:func:`measure` in a new interpreter under ``PYTHONHASHSEED=hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--case", case],
                            env=env, stdout=subprocess.PIPE, text=True)


def _version() -> str:
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def collect() -> Dict[str, Dict[str, int]]:
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


def test_replicate_footprint_is_pinned():
    counts = collect()
    print(json.dumps(counts, indent=1))
    with open(PINS) as handle:
        pins = json.load(handle)
    if pins["python"] != _version():
        print(f"pins are for Python {pins['python']}; not compared on {_version()}")
        return
    assert counts == pins["cases"]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        print(json.dumps(measure(sys.argv[2])))
    else:
        counts = collect()
        print(json.dumps(counts, indent=1))
        if sys.argv[1:] == ["--update"]:
            with open(PINS, "w") as handle:
                json.dump({"python": _version(), "cases": counts}, handle, indent=1)
                handle.write("\n")
