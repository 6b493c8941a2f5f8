"""Public entry points of the batched replicate backend.

:class:`BatchSimulation` advances N replicates of one spec in lockstep and
assembles per-replicate :class:`~repro.experiments.harness.ExperimentResult`
objects that are bit-identical to N scalar ``run_experiment`` calls with the
same derived seeds.  :func:`run_batch` is the one-shot convenience wrapper.

Wall-clock timing deliberately lives with the callers (the harness, the
benchmarks): simulation packages carry no wall-time dependency, so the
``wall_time_s`` of every assembled result is 0.0 until a caller stamps it.
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.engine.batch.kernel import BatchKernel, ReplicateState
from repro.engine.batch.model import (
    KIND_PAR,
    KIND_QADP,
    KIND_QROUTING,
    KIND_UGALG,
    KIND_UGALN,
    build_model,
)

if TYPE_CHECKING:  # typing only
    from repro.experiments.harness import ExperimentResult, ExperimentSpec

#: lockstep granularity: each call advances every replicate by one slice of
#: the simulated horizon before any replicate starts the next slice.  The
#: default runs each replicate straight through: results are identical for
#: any slice count (replicates are independent), and one slice keeps a
#: replicate's working set hot in cache instead of cycling N working sets
#: through it per slice.  Pass a larger count to interleave progress.
DEFAULT_SLICES = 1


class BatchSimulation:
    """N replicates of one spec advancing in lockstep (see module docstring)."""

    def __init__(self, spec: "ExperimentSpec", seeds: Sequence[int]) -> None:
        self.spec = spec
        self.seeds = list(seeds)
        self.model = build_model(spec)  # raises UnsupportedByBackend early
        # Trace recording and per-replicate state construction allocate
        # heavily against an already-large live heap; suspend the cyclic
        # collector like the kernel drain does (nothing here forms cycles).
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self.kernel = BatchKernel(self.model, self.seeds)
        finally:
            if was_enabled:
                gc.enable()
        self._ran = False

    def run(self, slices: int = DEFAULT_SLICES) -> "BatchSimulation":
        """Advance every replicate to the spec's horizon (idempotent)."""
        if not self._ran:
            until = self.spec.sim_time_ns
            self.kernel.run(until, slices=slices)
            self.kernel.finalize(until)
            self._ran = True
        return self

    def events_processed(self) -> List[int]:
        """Scalar-equivalent per-replicate event counts (after :meth:`run`)."""
        return [state.events_processed() for state in self.kernel.states]

    def results(self) -> List["ExperimentResult"]:
        """Per-replicate results, ordered like ``seeds`` (runs if needed)."""
        self.run()
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return [self._assemble(state) for state in self.kernel.states]
        finally:
            if was_enabled:
                gc.enable()

    # ------------------------------------------------------------- assembly
    def _assemble(self, st: ReplicateState) -> "ExperimentResult":
        from repro.experiments.harness import ExperimentResult
        from repro.stats.collectors import StatsCollector

        model = self.model
        spec = self.spec
        collector = StatsCollector(
            warmup_ns=spec.warmup_ns,
            bin_ns=spec.stats_bin_ns,
            num_nodes=model.num_nodes,
            node_bandwidth_bytes_per_ns=model.params.link_bandwidth_bytes_per_ns,
        )
        collector.offered_load = model.offered_load
        # Replay the generation/delivery logs chronologically: each stream is
        # recorded in event order, and the two streams touch disjoint
        # collector state, so every float accumulates in scalar order.
        collector.replay_generated(st.glog)
        collector.replay_deliveries(st.dlog, model.params.packet_bytes)
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
    slices: int = DEFAULT_SLICES,
) -> List["ExperimentResult"]:
    """Run ``spec`` under every seed in lockstep; results ordered like ``seeds``.

    Raises :class:`~repro.engine.batch.errors.UnsupportedByBackend` before any
    simulation work when the spec uses a feature the flat kernel does not
    reproduce bit-identically: telemetry, faults, warm starts, path recording,
    finite injection queues, or a routing plugged in from outside the package
    (every built-in routing has a decision kind).  This entry point never
    falls back; ``run_experiment`` is the one that picks an engine per spec.
    """
    return BatchSimulation(spec, seeds).run(slices=slices).results()
