"""Property-based tests on the RL machinery and the statistics helpers."""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.hysteretic import HystereticParams, hysteretic_update
from repro.core.policy import delta_v, epsilon_greedy, select_with_threshold
from repro.stats.summary import summarize_latencies
from repro.stats.timeseries import TimeSeries

finite_floats = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-3, max_value=1e7, allow_nan=False, allow_infinity=False)
rates = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(finite_floats, finite_floats, finite_floats, rates, rates)
def test_hysteretic_update_stays_between_current_and_target(q, reward, q_next, alpha, beta):
    params = HystereticParams(alpha=alpha, beta=beta)
    target = reward + q_next
    new = hysteretic_update(q, reward, q_next, params)
    low, high = min(q, target), max(q, target)
    assert low - 1e-6 <= new <= high + 1e-6


@settings(max_examples=200, deadline=None)
@given(finite_floats, finite_floats, finite_floats, rates)
def test_equal_rates_match_plain_q_learning(q, reward, q_next, rate):
    """With alpha == beta the hysteretic rule is exactly Q-learning."""
    params = HystereticParams(alpha=rate, beta=rate)
    target = reward + q_next
    assert abs(hysteretic_update(q, reward, q_next, params) - (q + rate * (target - q))) < 1e-6


@settings(max_examples=200, deadline=None)
@given(positive_floats, finite_floats)
def test_delta_v_sign_tracks_port_preference(q_min, q_best):
    value = delta_v(q_min, q_best)
    if q_best < q_min:
        assert value > 0
    elif q_best > q_min:
        assert value < 0
    else:
        assert value == 0.0


@settings(max_examples=200, deadline=None)
@given(positive_floats, finite_floats, st.floats(min_value=0.0, max_value=1.0))
def test_threshold_rule_only_two_outcomes(q_min, q_best, threshold):
    port, advantage = select_with_threshold(1, q_min, 2, q_best, threshold)
    assert port in (1, 2)
    if advantage < threshold:
        assert port == 1
    else:
        assert port == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.lists(st.integers(), min_size=1, max_size=8))
def test_epsilon_greedy_always_returns_valid_port(seed, candidates):
    rng = random.Random(seed)
    for epsilon in (0.0, 0.3, 1.0):
        choice = epsilon_greedy(rng, -99, candidates, epsilon)
        assert choice == -99 or choice in candidates


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_latency_summary_orderings(values):
    summary = summarize_latencies(values)
    # one ULP of slack: the mean of n identical floats can round a hair above them
    slack = 1e-12 * max(abs(summary.maximum), 1e-300)
    assert summary.minimum <= summary.q1 <= summary.median <= summary.q3 <= summary.maximum
    assert summary.median <= summary.p95 <= summary.p99 <= summary.maximum + slack
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.whisker_low >= summary.minimum - 1e-9
    assert summary.whisker_high <= summary.maximum + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1e4),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        max_size=100,
    ),
)
def test_timeseries_total_mass_preserved(bin_ns, samples):
    times = np.array([t for t, _ in samples], dtype=float)
    series = TimeSeries.binned(times, np.array([v for _, v in samples], dtype=float), bin_ns)
    assert len(series.counts()) == len(series)
    assert float(series.counts().sum()) == len(samples)
    assert abs(float(series.sums().sum()) - sum(v for _, v in samples)) < 1e-6 * max(
        1.0, sum(abs(v) for _, v in samples)
    )
