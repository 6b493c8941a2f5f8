"""Telemetry: typed run logs, the probes that reduce them, report analysis.

The measurement layer is split in three:

* :mod:`repro.instrument.logs` — the typed run logs (array columns) a run
  appends to, each kept only when a requested probe reads it; otherwise its
  slot is ``None`` and the hot path pays one ``is not None`` check.
* :mod:`repro.instrument.probes` — the built-in probes (link utilization,
  queue occupancy, per-source-group latency/fairness, Q-convergence, fault
  delivery, re-convergence), each a pure reduction over the logs at the end
  of the run, and the :data:`PROBE_REGISTRY` behind
  ``ExperimentSpec.telemetry``.
* :mod:`repro.instrument.report` — the analysis layer turning telemetry
  payloads into the tables behind ``repro-sim report``.

Declare probes on a spec::

    spec = ExperimentSpec(config, routing="Q-adp", pattern="ADV+1",
                          telemetry=("link-util", "source-latency"))
    result = run_experiment(spec)
    print(result.telemetry["source-latency"]["jain_fairness_mean"])

or keep their logs on a hand-built network and reduce them yourself::

    from repro.instrument import make_probe, probe_context

    net = Network(config, routing, seed=1)
    probe = make_probe("link-util")
    logs = net.record_logs(probe.logs)
    net.run(until=50_000.0)
    print(probe.summary(logs, probe_context(net))["links"][:5])
"""

from repro.instrument.logs import LOG_NAMES, RunLogs
from repro.instrument.probes import (
    PROBE_REGISTRY,
    FaultDeliveryProbe,
    InstrumentProbe,
    LinkUtilizationProbe,
    ProbeContext,
    QConvergenceProbe,
    QueueOccupancyProbe,
    ReconvergenceProbe,
    SourceLatencyProbe,
    available_probes,
    canonical_probe_name,
    jain_fairness_index,
    make_probe,
    probe_context,
)

__all__ = [
    "FaultDeliveryProbe",
    "InstrumentProbe",
    "LOG_NAMES",
    "LinkUtilizationProbe",
    "PROBE_REGISTRY",
    "ProbeContext",
    "QConvergenceProbe",
    "QueueOccupancyProbe",
    "ReconvergenceProbe",
    "RunLogs",
    "SourceLatencyProbe",
    "available_probes",
    "canonical_probe_name",
    "jain_fairness_index",
    "make_probe",
    "probe_context",
]
