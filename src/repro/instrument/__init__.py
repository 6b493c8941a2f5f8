"""Pluggable instrumentation: probe bus, telemetry probes, report analysis.

The measurement layer is split in three:

* :mod:`repro.instrument.bus` — the :class:`ProbeBus` and the typed hooks the
  simulation layer publishes to (with a probes-off ``None`` fast path that
  keeps the hot loop monomorphic).
* :mod:`repro.instrument.probes` — the built-in probes (link utilization,
  queue occupancy, per-source-group latency/fairness, Q-convergence) and the
  :data:`PROBE_REGISTRY` behind ``ExperimentSpec.telemetry``.
* :mod:`repro.instrument.report` — the analysis layer turning telemetry
  payloads into the tables behind ``repro-sim report``.

Attach probes directly::

    from repro.instrument import LinkUtilizationProbe

    net = Network(config, routing, seed=1)
    probe = LinkUtilizationProbe(bin_ns=1_000.0)
    net.attach_probe(probe)
    net.run(until=50_000.0)
    print(probe.summary(net.sim.now)["links"][:5])

or declaratively through the harness::

    spec = ExperimentSpec(config, routing="Q-adp", pattern="ADV+1",
                          telemetry=("link-util", "source-latency"))
    result = run_experiment(spec)
    print(result.telemetry["source-latency"]["jain_fairness_mean"])
"""

from repro.instrument.bus import HOOKS, Probe, ProbeBus
from repro.instrument.probes import (
    PROBE_REGISTRY,
    FaultDeliveryProbe,
    InstrumentProbe,
    LinkUtilizationProbe,
    QConvergenceProbe,
    QueueOccupancyProbe,
    ReconvergenceProbe,
    SourceLatencyProbe,
    available_probes,
    canonical_probe_name,
    jain_fairness_index,
    make_probe,
)

__all__ = [
    "HOOKS",
    "FaultDeliveryProbe",
    "InstrumentProbe",
    "LinkUtilizationProbe",
    "PROBE_REGISTRY",
    "Probe",
    "ProbeBus",
    "QConvergenceProbe",
    "QueueOccupancyProbe",
    "ReconvergenceProbe",
    "SourceLatencyProbe",
    "available_probes",
    "canonical_probe_name",
    "jain_fairness_index",
    "make_probe",
]
