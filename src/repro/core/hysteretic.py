"""Hysteretic Q-learning update (Equation 3 of the paper).

Q-values estimate *delivery time*, so smaller is better.  The temporal
difference is

    δ = r + Q_y − Q_x

where ``r`` is the packet travelling time between the neighbouring routers x
and y and ``Q_y`` is y's best remaining-time estimate.  Hysteretic learning
applies two different rates:

    Q_x ← Q_x + α·δ   if δ < 0   (good news: the path is faster than believed)
    Q_x ← Q_x + β·δ   otherwise  (bad news: congestion increased the estimate)

With α > β (the paper uses α = 0.2, β = 0.04) the system converges quickly to
improved estimates while staying robust to transient congestion spikes caused
by other agents' exploration — the coordination mechanism that makes the
independent-learner MARL formulation stable (Matignon et al., 2007).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenarios.serialize import FRACTION, POSITIVE_FRACTION, _check_fields


@dataclass(frozen=True)
class HystereticParams:
    """Learning-rate pair of the hysteretic update."""

    alpha: float = 0.2
    beta: float = 0.04

    _NUMBERS = {"alpha": POSITIVE_FRACTION, "beta": FRACTION}

    def __post_init__(self) -> None:
        _check_fields(self)


def td_error(reward: float, q_next: float, q_current: float) -> float:
    """Temporal-difference error δ = r + Q_y − Q_x."""
    return reward + q_next - q_current


def hysteretic_delta(delta: float, params: HystereticParams) -> float:
    """Scaled increment applied to Q_x for a raw TD error ``delta``."""
    rate = params.alpha if delta < 0.0 else params.beta
    return rate * delta


def hysteretic_update(
    q_current: float, reward: float, q_next: float, params: HystereticParams
) -> float:
    """Return the new Q_x after one hysteretic update step."""
    return q_current + hysteretic_delta(td_error(reward, q_next, q_current), params)
