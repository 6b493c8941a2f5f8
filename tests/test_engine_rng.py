"""Unit tests for deterministic RNG substreams."""

import random

import pytest

from repro.engine.rng import (
    RngFactory,
    bulk_random,
    bulk_randrange,
    complement_logs,
)


def test_same_seed_same_stream_is_reproducible():
    a = RngFactory(42).py("traffic")
    b = RngFactory(42).py("traffic")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_give_independent_streams():
    factory = RngFactory(42)
    a = [factory.py("alpha").random() for _ in range(5)]
    b = [factory.py("beta").random() for _ in range(5)]
    assert a != b


def test_different_seeds_give_different_streams():
    a = [RngFactory(1).py("x").random() for _ in range(5)]
    b = [RngFactory(2).py("x").random() for _ in range(5)]
    assert a != b


def test_stream_is_cached_per_name():
    factory = RngFactory(0)
    assert factory.py("x") is factory.py("x")


# ------------------------------------------------- bulk draws = scalar draws
_BULK_SEEDS = (0, 1, 7, 2**63 - 1)
_RANGES = (1, 2, 3, 31, 32, 33, 71, 1055, 1056, 100000)


@pytest.mark.parametrize("seed", _BULK_SEEDS)
def test_bulk_random_and_exponential_draws_equal_the_scalar_draws(seed):
    bulk, scalar = random.Random(seed), random.Random(seed)
    for n in (0, 1, 2, 999):
        assert bulk_random(bulk, n).tolist() == [scalar.random() for _ in range(n)]
        assert bulk.getstate() == scalar.getstate()
    # expovariate(rate) is -log(1 - random()) / rate, with math.log.
    for rate in (1.0, 1 / 106.66666666666667, 0.3, 1e-300):
        logs = complement_logs(bulk_random(bulk, 1000))
        assert [-log / rate for log in logs] == [scalar.expovariate(rate) for _ in range(1000)]
        assert bulk.getstate() == scalar.getstate()


@pytest.mark.parametrize("seed", _BULK_SEEDS)
@pytest.mark.parametrize("n", _RANGES)
def test_bulk_randrange_equals_the_scalar_draws(seed, n):
    # Rejections (up to half the words for n = 33 or 1056) must cost the
    # stream exactly the words the scalar calls take.
    bulk, scalar = random.Random(seed), random.Random(seed)
    for count in (0, 1, 700):
        assert bulk_randrange(bulk, n, count).tolist() == [scalar.randrange(n)
                                                           for _ in range(count)]
        assert bulk.getstate() == scalar.getstate()


def test_bulk_randrange_refuses_a_range_past_one_word():
    with pytest.raises(ValueError, match="0 < n < 2"):
        bulk_randrange(random.Random(0), 2**32, 1)
    with pytest.raises(ValueError, match="0 < n < 2"):
        bulk_randrange(random.Random(0), 0, 1)
