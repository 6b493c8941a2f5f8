"""repro — Q-adaptive: multi-agent reinforcement-learning routing on Dragonfly.

A from-scratch Python reproduction of *"Q-adaptive: A Multi-Agent
Reinforcement Learning Based Routing on Dragonfly Network"* (HPDC 2021),
including the flit-level network simulator it is evaluated on (topology-generic:
Dragonfly, k-ary fat-tree, 2D mesh/torus), all baseline routing algorithms
(MIN, VAL, VALg, VALn, UGALg, UGALn, PAR, Q-routing), the traffic patterns of
the evaluation, and the experiment harness that regenerates every figure of
the paper.

Quick start — the declarative harness is the supported entry point::

    from repro import DragonflyConfig, ExperimentSpec, run_experiment

    spec = ExperimentSpec(DragonflyConfig.small_72(), routing="Q-adp",
                          pattern="ADV+1", offered_load=0.3,
                          sim_time_ns=50_000.0)
    print(run_experiment(spec).summary_row())

or drive the simulator directly (lower level, no caching/telemetry)::

    from repro import DragonflyConfig, Network
    from repro.core import QAdaptiveRouting
    from repro.traffic import UniformRandomTraffic, TrafficGenerator

    net = Network(DragonflyConfig.small_72(), QAdaptiveRouting(), seed=1)
    gen = TrafficGenerator(net, UniformRandomTraffic(), offered_load=0.5)
    gen.start()
    net.run(until=50_000.0)        # 50 µs
    print(net.finalize().to_dict())

Public surface
--------------
``__all__`` below is the supported API.  The harness-level names
(:func:`run_experiment`, :class:`ExperimentSpec`, :class:`RunOptions`,
:class:`Study`, :class:`FaultSchedule`, :class:`ArtifactStore` and the
registries) are re-exported lazily (PEP 562), so ``import repro`` stays as
cheap as the simulator core.

What is simulated is the spec, scenario or study (probes and faults
included); where it runs is a :class:`~repro.experiments.SweepRunner`; what
to save is a keyword of the entry point that saves it
(``run_experiment(spec, save_state=..., store=...)``).  ``RunOptions`` holds
only ``backend``, the replicate grouping of ``run_replicates``.
"""

from typing import TYPE_CHECKING

from repro.network.network import Network
from repro.network.params import NetworkParams
from repro.stats.collectors import RunStats
from repro.topology.base import Topology
from repro.topology.config import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeConfig
from repro.topology.mesh import MeshConfig

if TYPE_CHECKING:  # pragma: no cover - typing-only re-exports
    from repro.experiments import (
        ExperimentResult,
        ExperimentSpec,
        RunOptions,
        run_experiment,
        train_experiment,
    )
    from repro.faults import FaultSchedule
    from repro.instrument import PROBE_REGISTRY
    from repro.routing import ROUTING_REGISTRY
    from repro.scenarios import STUDIES, Scenario, Study
    from repro.store import ArtifactStore
    from repro.traffic import PATTERN_REGISTRY

__version__ = "2.0.0"

__all__ = [
    "ArtifactStore",
    "DragonflyConfig",
    "DragonflyTopology",
    "ExperimentResult",
    "ExperimentSpec",
    "FatTreeConfig",
    "FaultSchedule",
    "MeshConfig",
    "Network",
    "NetworkParams",
    "PATTERN_REGISTRY",
    "PROBE_REGISTRY",
    "ROUTING_REGISTRY",
    "RunOptions",
    "RunStats",
    "STUDIES",
    "Scenario",
    "Study",
    "Topology",
    "__version__",
    "run_experiment",
    "train_experiment",
]

#: lazily re-exported harness names: ``{name: module}`` (PEP 562).
_LAZY_EXPORTS = {
    "ArtifactStore": "repro.store",
    "ExperimentResult": "repro.experiments",
    "ExperimentSpec": "repro.experiments",
    "FaultSchedule": "repro.faults",
    "PATTERN_REGISTRY": "repro.traffic",
    "PROBE_REGISTRY": "repro.instrument",
    "ROUTING_REGISTRY": "repro.routing",
    "RunOptions": "repro.experiments",
    "STUDIES": "repro.scenarios",
    "Scenario": "repro.scenarios",
    "Study": "repro.scenarios",
    "run_experiment": "repro.experiments",
    "train_experiment": "repro.experiments",
}


def __getattr__(name: str) -> object:
    if name in _LAZY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
