"""The five frozen workloads of the ledger (plain data: no ``repro`` import).

Every spec is written out here and never imported from ``benchmarks/`` or a
preset, so a change elsewhere in the repo cannot silently change what the
ledger measures.  ``--seed`` re-derives every spec seed; everything else is
fixed.  The ``tiny`` scale exists for ``ledger/tests`` only: same code path,
a 6-node Dragonfly and a few simulated microseconds.

Sizing (single shots on the 2-core authoring box, py 3.11.7 / numpy 2.4.6 /
no numba): one repeat takes 1.4-3 s, so one timed invocation (``--seconds
15``) holds 5-9 repeats.  Short repeats are deliberate: the box's noise comes
in bursts of a second or so, and a median over many short repeats shrugs off
a burst that would spoil half of a few long ones.  The driver's 114
invocations take about 2200 s of its 3420 s budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Dragonfly ``(p, a, h)`` triples, spelled out rather than named presets.
PAPER_1056 = (4, 8, 4)
SMALL_72 = (2, 4, 2)
TINY_6 = (1, 2, 1)

#: pool size of the sweep workload; fixed so numbers compare across machines.
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark input: what runs, through which engine, and why."""

    name: str
    #: ``scalar`` | ``batched`` | ``sweep``: which adapter drives it.
    kind: str
    #: results one repeat attempts (the sweep counts cold + warm).
    ops: int
    why: str
    #: keyword arguments of the spec (or of the sweep scale), per scale.
    params: Dict[str, Dict]

    def at(self, scale: str) -> Dict:
        """Everything the adapter needs to run this workload at ``scale``."""
        return {"name": self.name, "kind": self.kind, "ops": self.ops,
                "params": self.params[scale]}


def _spec(config: Tuple[int, int, int], routing: str, pattern: str, load: float,
          sim_ns: float, warmup_ns: float, replicates: int = 1) -> Dict:
    """One spec; ``replicates`` is the batch size (batched workloads only)."""
    return {"config": config, "routing": routing, "pattern": pattern,
            "offered_load": load, "sim_time_ns": sim_ns, "warmup_ns": warmup_ns,
            "replicates": replicates}


def _fig5(config: Tuple[int, int, int], warmup_ns: float, measure_ns: float) -> Dict:
    return {
        "config": config,
        "warmup_ns": warmup_ns,
        "measure_ns": measure_ns,
        "algorithms": ("MIN", "VALn", "UGALn", "Q-adp"),
        "patterns": ("UR", "ADV+1"),
        "ur_loads": (0.3, 0.6),
        "adv_loads": (0.15, 0.3),
    }


_QADP_ADV1 = {
    "full": _spec(PAPER_1056, "Q-adp", "ADV+1", 0.3, 8_000.0, 3_000.0),
    "tiny": _spec(TINY_6, "Q-adp", "ADV+1", 0.3, 3_000.0, 1_000.0),
}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="scalar-qadp-adv1-1056",
        kind="scalar",
        ops=1,
        why="paper's headline case at paper size: learned routing and feedback "
            "events do the most work, the working set is largest, set-up is visible",
        params=_QADP_ADV1,
    ),
    Workload(
        name="scalar-min-ur-72",
        kind="scalar",
        ops=1,
        why="MIN bypasses routing/core entirely: calendar, router/NIC chain, "
            "traffic and stats are all the time, so a Q-table change must show nothing",
        params={
            "full": _spec(SMALL_72, "MIN", "UR", 0.5, 40_000.0, 12_000.0),
            "tiny": _spec(TINY_6, "MIN", "UR", 0.5, 4_000.0, 1_000.0),
        },
    ),
    Workload(
        name="batched-qadp-ur-72x16",
        kind="batched",
        ops=16,
        why="16 lockstep replicates of BENCH_core's smoke_qadp_ur spec: the flat "
            "kernel does most of the work and set-up is amortised over the batch",
        params={
            "full": _spec(SMALL_72, "Q-adp", "UR", 0.5, 8_000.0, 3_000.0, 16),
            "tiny": _spec(TINY_6, "Q-adp", "UR", 0.5, 3_000.0, 1_000.0, 16),
        },
    ),
    Workload(
        name="batched-qadp-adv1-1056x1",
        kind="batched",
        ops=1,
        why="batch of one on the first workload's exact spec: nothing is amortised, "
            "the result must equal the scalar engine's bit for bit",
        params=_QADP_ADV1,
    ),
    Workload(
        name="sweep-fig5-fast-w2",
        kind="sweep",
        ops=32,
        why="a whole paper figure through a 2-worker pool and the result cache, "
            "cold then warm: scenarios, fingerprints, pickling, cache I/O, UGAL/VAL",
        params={
            "full": _fig5(SMALL_72, 6_000.0, 4_000.0),
            "tiny": _fig5(TINY_6, 1_500.0, 1_000.0),
        },
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
