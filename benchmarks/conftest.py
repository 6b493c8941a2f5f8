"""Shared configuration of the benchmark harness.

Every benchmark regenerates the data behind one of the paper's tables or
figures (``bench_figures.py``, one test per figure name).  The default scale
is deliberately small (a 72-node Dragonfly, a few tens of simulated
microseconds) so that the complete harness finishes in minutes on a laptop; the *shape* of the results — which algorithm wins under
which traffic pattern — is already visible at that scale.

Environment variables:

* ``REPRO_SCALE=reduced|paper|paper-2550`` — use one of the larger presets
  (``paper`` is the 1,056-node system).

The reduced-scale comparison against the paper is the ``headline`` study
(``repro-sim study run headline``).
"""

from __future__ import annotations

import multiprocessing
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

from repro.experiments.parallel import SweepRunner  # noqa: E402
from repro.experiments.presets import BENCH_SCALE, ExperimentScale, default_scale  # noqa: E402

#: fast default used when no environment override is present
_FAST_BENCH_SCALE = BENCH_SCALE.with_overrides(
    warmup_ns=12_000.0,
    measure_ns=8_000.0,
    convergence_ns=30_000.0,
    ur_loads=(0.3, 0.6),
    adv_loads=(0.15, 0.3),
    ur_reference_load=0.5,
    adv_reference_load=0.3,
)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """Scale used by the benchmarks (env-overridable, fast by default)."""
    if os.environ.get("REPRO_SCALE"):
        return default_scale()
    return _FAST_BENCH_SCALE


@pytest.fixture
def runner() -> SweepRunner:
    """Fresh sweep runner per benchmark (uncached: benchmarks must simulate).

    Two workers when the machine has at least two CPUs, otherwise serial:
    a small pool keeps the benchmarks' run time down without loading the
    machine.
    """
    return SweepRunner(workers=2 if multiprocessing.cpu_count() >= 2 else 1)
