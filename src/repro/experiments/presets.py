"""Experiment scale presets.

The paper evaluates a 1,056-node and a 2,550-node Dragonfly over measurement
windows of 100 µs after convergence.  Measured here on 2 cores at 1,056
nodes over a 20 µs horizon: Q-adp UR 0.6 23.0 s, Q-adp ADV+1 0.3 3.8 s,
UGALn ADV+1 12.5 s, linear in the horizon — so minutes per 600 µs data
point.  The harness ships three scales:

* ``BENCH_SCALE`` — the default for the pytest benchmarks: a 72-node balanced
  Dragonfly, short windows.  Every figure's *code path* runs end to end in
  minutes; trends (who wins under which pattern) are already visible.
* ``REDUCED_SCALE`` — the scale of the ``headline`` study: the same
  72-node system with windows long enough for Q-adaptive to converge.
* ``PAPER_SCALE_1056`` / ``PAPER_SCALE_2550`` — the exact Table 1 systems and
  Section 5/6 windows; select with the environment variable
  ``REPRO_SCALE=paper`` (budget: minutes per data point, see above).

Offered-load points are scaled alongside the topology: the 72-node system
saturates earlier than the 1,056-node one (fewer parallel local links), so
the sweep covers the same *regimes* (uncongested → near saturation) rather
than the same absolute loads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.qadaptive import QAdaptiveParams
from repro.scenarios.registry import Registry
from repro.scenarios.serialize import (INTEGER, LOADS, NON_NEGATIVE, POSITIVE,
                                       POSITIVE_FRACTION, _check_fields)
from repro.topology.config import DragonflyConfig


@dataclass(frozen=True)
class ExperimentScale:
    """Everything that depends on how big an experiment should be."""

    name: str
    config: object
    scaleup_config: object
    warmup_ns: float
    measure_ns: float
    convergence_ns: float
    ur_loads: Tuple[float, ...]
    adv_loads: Tuple[float, ...]
    ur_reference_load: float
    adv_reference_load: float
    qadaptive_params: QAdaptiveParams = field(default_factory=QAdaptiveParams)
    qadaptive_scaleup_params: QAdaptiveParams = field(
        default_factory=QAdaptiveParams.paper_2550
    )
    seed: int = 1

    _NUMBERS = {"warmup_ns": NON_NEGATIVE, "measure_ns": POSITIVE, "convergence_ns": POSITIVE,
                "ur_loads": LOADS, "adv_loads": LOADS, "ur_reference_load": POSITIVE_FRACTION,
                "adv_reference_load": POSITIVE_FRACTION, "seed": INTEGER}

    def __post_init__(self) -> None:
        _check_fields(self)

    @property
    def sim_time_ns(self) -> float:
        return self.warmup_ns + self.measure_ns

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        return replace(self, **kwargs)

    @property
    def family(self) -> str:
        """Topology family of this scale's config (``"dragonfly"``, ...)."""
        from repro.topology.registry import family_of_config

        return family_of_config(self.config).family

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "family": self.family,
            "config": self.config.describe(),
            "scaleup_config": self.scaleup_config.describe(),
            "warmup_us": self.warmup_ns / 1_000.0,
            "measure_us": self.measure_ns / 1_000.0,
            "convergence_us": self.convergence_ns / 1_000.0,
            "ur_loads": list(self.ur_loads),
            "adv_loads": list(self.adv_loads),
            "seed": self.seed,
        }


#: Smallest scale: used by the pytest benchmarks so the whole harness runs quickly.
BENCH_SCALE = ExperimentScale(
    name="bench",
    config=DragonflyConfig.small_72(),
    scaleup_config=DragonflyConfig.medium_342(),
    warmup_ns=30_000.0,
    measure_ns=20_000.0,
    convergence_ns=60_000.0,
    ur_loads=(0.2, 0.5, 0.7),
    adv_loads=(0.1, 0.25, 0.35),
    ur_reference_load=0.6,
    adv_reference_load=0.3,
)

#: Scale of the ``headline`` study (long enough for Q-adaptive to converge).
REDUCED_SCALE = ExperimentScale(
    name="reduced",
    config=DragonflyConfig.small_72(),
    scaleup_config=DragonflyConfig.medium_342(),
    warmup_ns=150_000.0,
    measure_ns=50_000.0,
    convergence_ns=250_000.0,
    ur_loads=(0.1, 0.3, 0.5, 0.7, 0.8),
    adv_loads=(0.1, 0.2, 0.3, 0.4),
    ur_reference_load=0.7,
    adv_reference_load=0.35,
)

#: The paper's 1,056-node system and Section 5.1 hyper-parameters.
PAPER_SCALE_1056 = ExperimentScale(
    name="paper-1056",
    config=DragonflyConfig.paper_1056(),
    scaleup_config=DragonflyConfig.paper_2550(),
    warmup_ns=500_000.0,
    measure_ns=100_000.0,
    convergence_ns=800_000.0,
    ur_loads=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
    adv_loads=(0.05, 0.15, 0.25, 0.35, 0.45, 0.5),
    ur_reference_load=0.8,
    adv_reference_load=0.45,
    qadaptive_params=QAdaptiveParams.paper_1056(),
)

#: The paper's 2,550-node scale-up system (Section 6).
PAPER_SCALE_2550 = PAPER_SCALE_1056.with_overrides(
    name="paper-2550",
    config=DragonflyConfig.paper_2550(),
    scaleup_config=DragonflyConfig.paper_2550(),
    qadaptive_params=QAdaptiveParams.paper_2550(),
)

# --------------------------------------------------------------------- registry
#: registry of scale presets: aliases, lazy loaders, per-topology entries.
SCALE_REGISTRY = Registry("experiment scale")

SCALE_REGISTRY.register(
    "bench", lambda: BENCH_SCALE,
    metadata={"family": "dragonfly",
              "summary": "72-node Dragonfly, short windows (pytest benchmarks)"},
)
SCALE_REGISTRY.register(
    "reduced", lambda: REDUCED_SCALE,
    metadata={"family": "dragonfly",
              "summary": "72-node Dragonfly, convergence-length windows"},
)
SCALE_REGISTRY.register(
    "paper-1056", lambda: PAPER_SCALE_1056,
    aliases=("paper",),
    metadata={"family": "dragonfly",
              "summary": "the paper's 1,056-node system (minutes per data point)"},
)
SCALE_REGISTRY.register(
    "paper-2550", lambda: PAPER_SCALE_2550,
    metadata={"family": "dragonfly",
              "summary": "the paper's 2,550-node scale-up system"},
)


# Per-topology scales load lazily: listing names must not build fat-tree or
# mesh wiring tables (the CLI lists scales on every `list scales`).
@lru_cache(maxsize=None)
def _fattree_bench_scale() -> ExperimentScale:
    from repro.topology.fattree import FatTreeConfig

    return ExperimentScale(
        name="fattree-bench",
        config=FatTreeConfig.tiny(),
        scaleup_config=FatTreeConfig.small_54(),
        warmup_ns=30_000.0,
        measure_ns=20_000.0,
        convergence_ns=60_000.0,
        ur_loads=(0.2, 0.5, 0.7),
        adv_loads=(0.1, 0.25, 0.35),
        ur_reference_load=0.6,
        adv_reference_load=0.3,
    )


@lru_cache(maxsize=None)
def _mesh_bench_scale() -> ExperimentScale:
    from repro.topology.mesh import MeshConfig

    return ExperimentScale(
        name="mesh-bench",
        config=MeshConfig.small_72(),
        scaleup_config=MeshConfig(rows=8, cols=8, p=2),
        warmup_ns=30_000.0,
        measure_ns=20_000.0,
        convergence_ns=60_000.0,
        # A mesh bisection is narrow relative to injection; sweep lower loads.
        ur_loads=(0.1, 0.3, 0.5),
        adv_loads=(0.05, 0.15, 0.25),
        ur_reference_load=0.4,
        adv_reference_load=0.2,
    )


@lru_cache(maxsize=None)
def _torus_bench_scale() -> ExperimentScale:
    from repro.topology.mesh import MeshConfig

    return _mesh_bench_scale().with_overrides(
        name="torus-bench",
        config=MeshConfig.small_72_torus(),
        scaleup_config=MeshConfig(rows=8, cols=8, p=2, wrap=True),
    )


SCALE_REGISTRY.register(
    "fattree-bench", loader=lambda: _fattree_bench_scale,
    aliases=("fat-tree-bench",),
    metadata={"family": "fattree",
              "summary": "k=4 fat-tree, bench-length windows"},
)
SCALE_REGISTRY.register(
    "mesh-bench", loader=lambda: _mesh_bench_scale,
    metadata={"family": "mesh",
              "summary": "6x6 mesh (72 nodes), bench-length windows"},
)
SCALE_REGISTRY.register(
    "torus-bench", loader=lambda: _torus_bench_scale,
    metadata={"family": "mesh",
              "summary": "6x6 torus (72 nodes), bench-length windows"},
)


def available_scales() -> List[str]:
    """Names accepted by :func:`scale_by_name`, in registration order."""
    return SCALE_REGISTRY.names()


def describe_scales() -> List[Dict[str, object]]:
    """One metadata row per scale (name, family, summary, aliases) without
    building any scale — lazy entries stay unloaded."""
    return SCALE_REGISTRY.describe()


def scale_by_name(name: str) -> ExperimentScale:
    """Look up a scale preset by name or alias (case/hyphen-insensitive)."""
    return SCALE_REGISTRY.build(name)


def default_scale(env: Optional[Dict[str, str]] = None) -> ExperimentScale:
    """Scale selected by the environment.

    ``REPRO_SCALE=<name>`` picks a named preset (``paper`` is the 1,056-node
    paper scale).  The default is ``BENCH_SCALE``.
    """
    environment = os.environ if env is None else env
    explicit = environment.get("REPRO_SCALE")
    if explicit:
        return scale_by_name(explicit)
    return BENCH_SCALE


#: Routing algorithms compared throughout the paper's evaluation, in plot order.
PAPER_ALGORITHMS: Sequence[str] = ("MIN", "VALn", "UGALg", "UGALn", "PAR", "Q-adp")
