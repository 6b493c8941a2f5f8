"""The paper's contribution: Q-adaptive routing and its RL machinery.

* :mod:`repro.core.qtable` — the original per-destination-router Q-table and
  the paper's two-level Q-table (Tables 2 and 3), both held as one
  ``[routers, rows, cols]`` value block, with their initial values and
  memory comparison;
* :mod:`repro.core.hysteretic` — the hysteretic Q-learning update rule
  (Equation 3);
* :mod:`repro.core.policy` — ε-greedy exploration and the ΔV minimal-path
  bias rule (Equation 2);
* :mod:`repro.core.qadaptive` — Q-adaptive routing (the flow chart of
  Figure 4): fully distributed multi-agent learning, ≤5 hops, 5 VCs;
* :mod:`repro.core.qrouting` — the original Q-routing of Boyan & Littman with
  the naive ``maxQ`` hop-threshold fix, used as the learning baseline /
  ablation of Section 2.3.2;
* :mod:`repro.core.marl` — what the two learners share: the value block
  (``routing.values``), the feedback loop and checkpoint export/import.
"""

from repro.core.hysteretic import HystereticParams, hysteretic_update
from repro.core.policy import delta_v, epsilon_greedy, select_with_threshold
from repro.core.qadaptive import QAdaptiveParams, QAdaptiveRouting
from repro.core.qrouting import QRoutingAlgorithm, QRoutingParams
from repro.core.qtable import qtable_memory_comparison

__all__ = [
    "HystereticParams",
    "QAdaptiveParams",
    "QAdaptiveRouting",
    "QRoutingAlgorithm",
    "QRoutingParams",
    "delta_v",
    "epsilon_greedy",
    "hysteretic_update",
    "qtable_memory_comparison",
    "select_with_threshold",
]
