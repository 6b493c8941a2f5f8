"""Public entry points of the batched replicate backend.

:class:`BatchSimulation` runs N replicates of one spec and assembles
per-replicate :class:`~repro.experiments.harness.ExperimentResult` objects
that are bit-identical to N scalar ``run_experiment`` calls with the same
derived seeds.  The seeds run concurrently: one job per seed on a pool of
``min(len(seeds), cpu_count)`` workers (:mod:`repro.engine.fanout`), unless
the batch runs in-process.  :func:`run_batch` is the one-shot wrapper.

Wall-clock timing deliberately lives with the callers (the harness, the
benchmarks): simulation packages carry no wall-time dependency, so the
``wall_time_s`` of every assembled result is 0.0 until a caller stamps it.
"""

from __future__ import annotations

import gc
import os
import pickle
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import collector_paused, fanout
from repro.engine.batch.kernel import BatchKernel, ReplicateState
from repro.engine.batch.model import (
    KIND_PAR,
    KIND_QADP,
    KIND_QROUTING,
    KIND_UGALG,
    KIND_UGALN,
    BatchModel,
    build_model,
)
from repro.routing import make_routing
from repro.scenarios.serialize import checked_number

if TYPE_CHECKING:  # typing only
    from repro.experiments.harness import ExperimentResult, ExperimentSpec

_worker_model: BatchModel  # a pool worker's batch model (see _adopt_model)


def _adopt_model(model: BatchModel) -> None:
    """Pool initializer: the parent's model, and no cyclic collector."""
    global _worker_model
    _worker_model = model
    gc.disable()


def _run_seed(job: Tuple[int, int]) -> Tuple[int, int, bytes]:
    """Pool job: one seed's event count and pickled result data (the wire
    format without the spec, which the parent re-attaches)."""
    from repro.experiments.parallel import ExperimentResultData

    index, seed = job
    kernel = BatchKernel(_worker_model, [seed])
    kernel.run(kernel.horizon, slices=1)
    kernel.finalize(kernel.horizon)
    (state,) = kernel.states
    data = ExperimentResultData.from_result(_assemble(_worker_model, state))
    return index, state.events_processed(), pickle.dumps(data, pickle.HIGHEST_PROTOCOL)


class BatchSimulation:
    """N replicates of one spec, run concurrently (see module docstring)."""

    def __init__(self, spec: "ExperimentSpec", seeds: Sequence[int]) -> None:
        self.spec = spec
        # The spec's seed rule, checked before anything is built or simulated.
        self.seeds = [checked_number(s, "seed", "BatchSimulation", int) for s in seeds]
        self._workers = min(len(self.seeds), os.cpu_count() or 1)
        # A pooled batch has no replicate state here: its workers build it.
        self.kernel: Optional[BatchKernel] = None
        # Model, traces and states form no cycles (the model builds no Network).
        with collector_paused():
            self.model = build_model(spec)  # raises UnsupportedByBackend early
            if fanout.in_process(len(self.seeds), self._workers):
                self.kernel = BatchKernel(self.model, self.seeds)
        self._ran = False
        self._pooled: List[Tuple[int, int, bytes]] = []  # (index, events, result data)

    def run(self) -> "BatchSimulation":
        """Advance every replicate to the spec's horizon (idempotent)."""
        if not self._ran:
            if self.kernel is None:
                self._pooled = sorted(fanout.imap_unordered(
                    _run_seed, list(enumerate(self.seeds)), self._workers,
                    _adopt_model, (self.model,)))
            else:
                self.kernel.run(self.kernel.horizon, slices=1)
                self.kernel.finalize(self.kernel.horizon)
            self._ran = True
        return self

    def events_processed(self) -> List[int]:
        """Scalar-equivalent per-replicate event counts (runs if needed)."""
        self.run()
        if self.kernel is None:
            return [events for _, events, _ in self._pooled]
        return [state.events_processed() for state in self.kernel.states]

    def export_states(self) -> List[Dict[str, Any]]:
        """The one replicate's ``export_state`` payload at the horizon, as a
        one-element list (runs if needed).

        Only a batch of one seed exports: a many-seed batch may run its seeds
        in pool workers, which keep their state, so it is refused on every
        host rather than only where a pool is used.
        """
        if len(self.seeds) != 1:
            raise ValueError(f"export_states needs a batch of one seed, this batch "
                             f"has {len(self.seeds)}")
        if not self.model.learned:
            raise ValueError("this batch keeps no learned state to export")
        self.run()
        assert self.kernel is not None  # a batch of one always runs in-process
        (st,) = self.kernel.states
        routing = make_routing(self.spec.routing, **self.spec.routing_kwargs)
        return [routing.state_payload(self.model.topo, st.qt, st.updates, st.c_fb_sent,
                                      st.c_fb_app)]

    def results(self) -> List["ExperimentResult"]:
        """Fresh per-replicate results, ordered like ``seeds`` (runs if needed)."""
        self.run()
        with collector_paused():
            if self.kernel is None:
                return [pickle.loads(blob).to_result(self.spec.with_overrides(seed=self.seeds[i]))
                        for i, _, blob in self._pooled]
            return [_assemble(self.model, st) for st in self.kernel.states]


# ----------------------------------------------------------------- assembly
def _assemble(model: BatchModel, st: ReplicateState) -> "ExperimentResult":
    from repro.experiments.harness import ExperimentResult
    from repro.stats.collectors import StatsCollector

    spec = model.spec
    collector = StatsCollector(
        warmup_ns=spec.warmup_ns,
        bin_ns=spec.stats_bin_ns,
        num_nodes=model.num_nodes,
        node_bandwidth_bytes_per_ns=model.params.link_bandwidth_bytes_per_ns,
        packet_bytes=model.params.packet_bytes,
    )
    collector.offered_load = model.offered_load
    collector.adopt_log(st.generated(), st.dl_create, st.dl_deliver, st.dl_hops)
    # The scalar simulator leaves now == until whether or not the heap
    # drained early, so the aggregation window is always the horizon.
    stats = collector.finalize(spec.sim_time_ns)

    diagnostics: Dict = {}
    kind = model.kind
    if kind == KIND_QADP:
        diagnostics = {
            "source_minimal": st.c_src_min,
            "source_best": st.c_src_best,
            "intermediate_minimal": st.c_int_min,
            "intermediate_reroutes": st.c_int_rr,
            "feedback_sent": st.c_fb_sent,
            "feedback_applied": st.c_fb_app,
            "table_memory_bytes": model.table_memory_bytes,
        }
    elif kind == KIND_QROUTING:
        diagnostics = {
            "table_memory_bytes": model.table_memory_bytes,
            "forced_minimal": st.c_forced,
        }
    elif kind in (KIND_UGALG, KIND_UGALN, KIND_PAR):
        diagnostics = {
            "minimal_decisions": st.c_minimal,
            "nonminimal_decisions": st.c_nonminimal,
        }
        if kind == KIND_PAR:
            diagnostics["reevaluations"] = st.c_reevaluations
            diagnostics["diverted_packets"] = st.c_diverted
    return ExperimentResult.from_collector(
        spec.with_overrides(seed=st.seed), collector, stats, diagnostics)


def run_batch(
    spec: "ExperimentSpec",
    seeds: Sequence[int],
) -> List["ExperimentResult"]:
    """Run ``spec`` under every seed, concurrently; results ordered like ``seeds``.

    Raises :class:`~repro.engine.batch.errors.UnsupportedByBackend` before any
    simulation work when the spec uses a feature the flat kernel does not
    reproduce bit-identically: telemetry or faults (every routing has a
    decision kind).  This entry point never falls back; ``run_experiment``
    is the one that picks an engine per spec.
    """
    return BatchSimulation(spec, seeds).run().results()
