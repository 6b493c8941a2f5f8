"""Metric definitions: what the ledger reports, in which unit, and why.

``BENCHMARK.json`` is rendered from this module (:func:`benchmark_json`); the
test suite fails when the two disagree.  Host time and simulated time are
kept apart: every ``*_s`` / ``*_share`` / ``*_per_s`` metric is host time,
the ``model.*`` metrics are simulated time and must repeat bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ledger.workloads import WORKLOADS

#: what the driver runs (it appends --workload/--seed/--seconds/--trace).
COMMAND = ["python3", "-m", "ledger"]
PATHS = ["ledger"]
#: measuring window of one invocation; holds 5-9 repeats of any workload.
RUN_SECONDS = 15


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the simulator sees; gated by ``bound``."""

    name: str
    unit: str
    better: str
    #: share of the baseline median by which it may worsen (driver and compare).
    #: Sized to the authoring box, not to taste: its neighbours slow a repeat
    #: down by up to a third in bursts and for minutes at a time, ten-run
    #: quartile spreads of the timings reached 6 % (single core) and 27 % (the
    #: two-core sweep), and a bound must stay well above the spread.  The
    #: size bounds only have to cover seed-to-seed variation.
    bound: float
    #: absolute change below which ``compare`` never reports a regression.
    floor: float
    what: str
    #: same seed gives the same value: ``compare`` allows no increase at all.
    exact: bool = False


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.25, 0.05,
             "host seconds from frozen spec(s) to pickled result(s): set-up + drain + "
             "finalize/assemble + package (sweep: cold call + warm call); excludes "
             "interpreter start and import"),
    EndToEnd("cpu_s", "s", "lower", 0.25, 0.05,
             "user+system CPU of the workload process and its children over the "
             "wall_s region"),
    EndToEnd("setup_s", "s", "lower", 0.25, 0.02,
             "the part of wall_s before the first simulated event can run"),
    EndToEnd("events_per_s", "1/s", "higher", 0.25, 0.0,
             "scalar-equivalent events per host second of drain (sweep: events of "
             "the 16 runs over the cold wall)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.12, 2.0,
             "max ru_maxrss of the workload process and its children"),
    EndToEnd("result_bytes", "B", "lower", 0.08, 0.0,
             "pickled size of the ExperimentResultData payloads (pool pipe, cache)",
             exact=True),
)


@dataclass(frozen=True)
class Layer:
    """A metric of one layer; recorded, never gated."""

    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload glob)`` pairs it should move.
    moves: Tuple[Tuple[str, str], ...]
    what: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_SCALAR = "scalar-*"
_BATCHED = "batched-*"
_BIG = "*-1056*"
_SWEEP = "sweep-*"
_ALL = "*"

PER_LAYER: Tuple[Layer, ...] = (
    # topology
    Layer("topology.build_s", "s", "lower", (("setup_s", _BIG),),
          "topology_for(config) in a fresh process"),
    # network
    Layer("network.build_s", "s", "lower", (("setup_s", "scalar-qadp-adv1-1056"),),
          "build_network(spec) with the topology already built"),
    Layer("network.profiled_share", "ratio", "lower", (("events_per_s", _SCALAR),),
          "share of profiled drain self time in repro/network"),
    Layer("network.packets_generated", "count", "lower", (("events_per_s", _SCALAR),),
          "packets generated (exact)"),
    Layer("network.packets_delivered", "count", "lower", (("events_per_s", _SCALAR),),
          "packets delivered (exact)"),
    Layer("network.events_per_packet", "ratio", "lower", (("events_per_s", _SCALAR),),
          "events processed per delivered packet (exact)"),
    # engine (the scalar calendar)
    Layer("engine.drain_s", "s", "lower", (("wall_s", _SCALAR),),
          "Network.run: the whole scalar event loop"),
    Layer("engine.us_per_event", "us", "lower", (("events_per_s", _SCALAR),),
          "host microseconds per scalar event"),
    Layer("engine.profiled_share", "ratio", "lower", (("events_per_s", _SCALAR),),
          "share of profiled drain self time in engine/events.py, simulator.py, heapq"),
    Layer("engine.events", "count", "lower", (("events_per_s", _ALL),),
          "scalar-equivalent events processed (exact)"),
    Layer("engine.cancelled_events", "count", "lower", (("events_per_s", _SCALAR),),
          "dead entries left in the calendar (exact)"),
    Layer("engine.compactions", "count", "lower", (("events_per_s", _SCALAR),),
          "calendar compaction passes (exact)"),
    # routing + core
    Layer("routing.profiled_share", "ratio", "lower",
          (("events_per_s", "scalar-qadp-adv1-1056"),),
          "share of profiled drain self time in repro/routing + repro/core"),
    Layer("routing.decisions", "count", "lower",
          (("events_per_s", "scalar-qadp-adv1-1056"), ("events_per_s", _BATCHED)),
          "counted routing decisions (exact)"),
    Layer("routing.nonminimal_share", "ratio", "lower",
          (("events_per_s", "scalar-qadp-adv1-1056"), ("events_per_s", _BATCHED)),
          "decisions that left the minimal path, over all decisions (exact)"),
    Layer("routing.feedback_sent", "count", "lower",
          (("events_per_s", "scalar-qadp-adv1-1056"), ("events_per_s", _BATCHED)),
          "Q-feedback messages sent (exact)"),
    Layer("routing.feedback_applied", "count", "lower",
          (("events_per_s", "scalar-qadp-adv1-1056"), ("events_per_s", _BATCHED)),
          "Q-feedback folds applied (exact)"),
    Layer("core.qtable_bytes", "B", "lower", (("peak_rss_mb", _BIG),),
          "Q-table memory of all routers (exact)"),
    # traffic
    Layer("traffic.build_s", "s", "lower", (("setup_s", _SCALAR),),
          "TrafficGenerator.start: first event of every node"),
    Layer("traffic.profiled_share", "ratio", "lower", (("events_per_s", _SCALAR),),
          "share of profiled drain self time in repro/traffic"),
    Layer("traffic.trace_s", "s", "lower", (("setup_s", _BATCHED),),
          "record_traffic_trace, summed over the replicates"),
    # stats
    Layer("stats.finalize_s", "s", "lower", (("wall_s", _SCALAR),),
          "Network.finalize"),
    Layer("stats.profiled_share", "ratio", "lower", (("events_per_s", _SCALAR),),
          "share of profiled drain self time in repro/stats"),
    Layer("stats.replay_s", "s", "lower", (("wall_s", "batched-qadp-ur-72x16"),),
          "replay_generated + replay_deliveries + finalize on the kernel's logs"),
    Layer("stats.measured_packets", "count", "lower",
          (("wall_s", "batched-qadp-ur-72x16"),),
          "packets inside the measurement window (exact)"),
    # engine.batch
    Layer("batch.model_build_s", "s", "lower", (("setup_s", _BATCHED),),
          "build_model(spec): the replicate-independent precompute"),
    Layer("batch.construct_s", "s", "lower", (("setup_s", _BATCHED),),
          "BatchSimulation(spec, seeds): model + traces + per-replicate state"),
    Layer("batch.drain_s", "s", "lower", (("events_per_s", _BATCHED),),
          "BatchSimulation.run(): BatchKernel.run + BatchKernel.finalize"),
    Layer("batch.finalize_s", "s", "lower", (("events_per_s", _BATCHED),),
          "BatchKernel.finalize alone (a part of batch.drain_s)"),
    Layer("batch.us_per_event", "us", "lower", (("events_per_s", _BATCHED),),
          "host microseconds per scalar-equivalent event"),
    Layer("batch.advance_self_share", "ratio", "lower", (("events_per_s", _BATCHED),),
          "share of profiled kernel time that is _advance's own frame"),
    Layer("batch.calendar_share", "ratio", "lower", (("events_per_s", _BATCHED),),
          "share of profiled kernel time in insort + list.sort"),
    Layer("batch.assemble_s", "s", "lower", (("wall_s", _BATCHED),),
          "BatchSimulation.results(): per-replicate assembly"),
    Layer("batch.events_executed", "count", "lower", (("events_per_s", _BATCHED),),
          "events that travelled through the calendar (exact)"),
    Layer("batch.events_elided", "count", "higher", (("events_per_s", _BATCHED),),
          "events accounted for without executing (exact)"),
    Layer("batch.elided_share", "ratio", "higher", (("events_per_s", _BATCHED),),
          "elided over executed + elided (exact)"),
    Layer("batch.jit_engaged", "bool", "higher", (("events_per_s", _BATCHED),),
          "1 when the numba tier ran, else 0"),
    Layer("batch.replicates", "count", "higher", (("events_per_s", _BATCHED),),
          "batch size"),
    # experiments.harness
    Layer("harness.import_s", "s", "lower", (),
          "import of the ledger's adapters and repro (outside wall_s)"),
    Layer("harness.build_network_s", "s", "lower", (("setup_s", _SCALAR),),
          "build_network(spec) cold: topology.build_s + network.build_s"),
    Layer("harness.user_path_s", "s", "lower", (("wall_s", _ALL),),
          "one plain run_experiment / run_replicates call plus packaging"),
    # experiments.parallel
    Layer("parallel.fingerprint_s", "s", "lower", (("wall_s", _ALL),),
          "spec_fingerprint per spec"),
    Layer("parallel.package_s", "s", "lower", (("wall_s", _ALL), ("result_bytes", _ALL)),
          "ExperimentResultData.from_result + pickle.dumps of every result"),
    Layer("parallel.unpickle_s", "s", "lower", (("wall_s", _ALL),),
          "pickle.loads of every payload"),
    Layer("parallel.cache_put_s", "s", "lower", (("wall_s", _SWEEP), ("cpu_s", _SWEEP)),
          "ResultCache.put of every payload, median pass"),
    Layer("parallel.cache_get_s", "s", "lower", (("wall_s", _SWEEP), ("cpu_s", _SWEEP)),
          "ResultCache.get of every payload, median pass"),
    Layer("parallel.cache_bytes", "B", "lower", (("result_bytes", _SWEEP),),
          "bytes on disk after the cold call (exact)"),
    Layer("parallel.cold_wall_s", "s", "lower", (("wall_s", _SWEEP),),
          "figure5_sweep on an empty cache"),
    Layer("parallel.warm_wall_s", "s", "lower", (("wall_s", _SWEEP),),
          "figure5_sweep again: every run is a cache hit"),
    Layer("parallel.serial_wall_s", "s", "lower", (("cpu_s", _SWEEP),),
          "the same runs in one process, no pool, no cache"),
    Layer("parallel.speedup", "ratio", "higher", (("wall_s", _SWEEP),),
          "serial_wall_s / cold_wall_s"),
    Layer("parallel.scaling_efficiency", "ratio", "higher", (("wall_s", _SWEEP),),
          "speedup / workers"),
    Layer("parallel.job_wall_sum_s", "s", "lower", (("cpu_s", _SWEEP),),
          "sum of the per-run drain walls stamped by the workers"),
    Layer("parallel.slowest_job_s", "s", "lower", (("wall_s", _SWEEP),),
          "longest single run: the tail that sets the sweep's time"),
    Layer("parallel.simulated", "count", "lower", (("wall_s", _SWEEP),),
          "runs simulated over cold + warm (exact)"),
    Layer("parallel.cache_hits", "count", "higher", (("wall_s", _SWEEP),),
          "cache hits over cold + warm (exact)"),
    # scenarios
    Layer("scenarios.expand_s", "s", "lower", (("setup_s", _SWEEP),),
          "fig5_study(...) + Study.specs()"),
    # model: simulated time, recorded not gated
    Layer("model.mean_latency_ns", "ns", "lower", (),
          "simulated mean packet latency of the first result (exact)"),
    Layer("model.p99_latency_ns", "ns", "lower", (),
          "simulated p99 packet latency of the first result (exact)"),
    Layer("model.throughput", "ratio", "higher", (),
          "simulated delivered share of injection bandwidth, first result (exact)"),
    Layer("model.mean_hops", "count", "lower", (),
          "simulated mean hop count of the first result (exact)"),
    # the ledger itself
    Layer("trace.overhead_ratio", "ratio", "lower", (),
          "wall_s of the traced repeat over wall_s of the untraced repeat"),
    Layer("machine.calib_s", "s", "lower", (),
          "fixed pure-Python loop timed before the round: the host's speed"),
)

#: layers whose metrics describe the model or the harness, not a cost to move.
UNGATED_LAYERS = ("model", "trace", "machine", "harness")


def benchmark_json() -> Dict:
    """The contract file, rendered from the definitions above."""
    workloads: List[Dict] = [{"name": w.name, "why": w.why} for w in WORKLOADS]
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
