"""Tests for the unified plugin registry and its routing/traffic adoption."""

import subprocess
import sys

import pytest

from repro.routing import available_algorithms, canonical_routing_name, make_routing
from repro.scenarios.registry import Registry, normalize_key
from repro.traffic import (
    PATTERN_REGISTRY,
    available_patterns,
    canonical_pattern_name,
    make_pattern,
    register_pattern,
)
from repro.traffic.base import TrafficPattern


# ------------------------------------------------------------------ Registry
def test_normalize_key_ignores_case_spaces_underscores_hyphens():
    assert normalize_key("Q-adp") == normalize_key("qadp") == normalize_key("Q_ADP ")
    assert normalize_key("Many to Many") == normalize_key("many_to-many")


def test_register_resolve_and_aliases():
    registry = Registry("thing")
    registry.register("Foo", dict, aliases=("the foo",))
    entry, display, implied = registry.resolve("THE-FOO")
    assert display == "Foo" and implied == {}
    assert registry.canonical_name("foo") == "Foo"
    assert "foo" in registry and "bar" not in registry
    assert registry.names() == ["Foo"]


def test_duplicate_registration_errors_unless_replaced():
    registry = Registry("thing")
    registry.register("Foo", dict)
    with pytest.raises(ValueError, match="already registered"):
        registry.register("foo", list)
    registry.register("FOO", list, replace=True)
    assert registry.factory("foo") is list
    registry.unregister("foo")
    assert len(registry) == 0
    with pytest.raises(ValueError, match="unknown thing"):
        registry.unregister("foo")


def test_replace_unregisters_an_owner_hit_through_two_keys_once():
    registry = Registry("thing")
    registry.register("Foo", dict, aliases=("the foo",))
    registry.register("Bar", set)
    # Two keys of one old entry plus one of another: each owner goes once.
    registry.register("Foo", list, aliases=("the foo", "bar"), replace=True)
    assert registry.names() == ["Foo"]
    assert registry.factory("the-foo") is list and registry.factory("bar") is list


def test_listing_never_calls_factories_or_loaders():
    calls = {"factory": 0, "loader": 0}

    def booby_trapped_factory():
        calls["factory"] += 1
        return object()

    def loader():
        calls["loader"] += 1
        return booby_trapped_factory

    registry = Registry("thing")
    registry.register("Eager", booby_trapped_factory)
    registry.register("Lazy", loader=loader)
    assert registry.names() == ["Eager", "Lazy"]
    assert registry.describe()[1]["name"] == "Lazy"
    assert calls == {"factory": 0, "loader": 0}
    registry.build("lazy")
    assert calls == {"factory": 1, "loader": 1}


def test_match_hook_parses_dynamic_names():
    def match(key):
        if key.startswith("n"):
            return f"N{key[1:]}", {"value": int(key[1:])}
        return None

    registry = Registry("thing")
    registry.register("N1", lambda value=1: value, match=match)
    assert registry.canonical_name("n42") == "N42"
    assert registry.build("n42") == 42
    # kwargs implied by the name conflict with explicit ones
    with pytest.raises(ValueError, match="already fixes"):
        registry.build("n42", value=3)


def test_signature_introspection_reports_kwargs_without_instantiating():
    class Widget:
        def __init__(self, size=3, color="red"):
            raise AssertionError("signature() must not instantiate")

    registry = Registry("thing")
    registry.register("Widget", Widget)
    assert registry.signature("widget") == {"size": 3, "color": "red"}


def test_unknown_name_error_lists_known_names():
    registry = Registry("thing")
    registry.register("Foo", dict)
    with pytest.raises(ValueError, match=r"unknown thing 'bar'.*Foo"):
        registry.build("bar")


# ------------------------------------------------------- routing registry
def test_available_algorithms_includes_learned_without_prior_build():
    """A fresh interpreter lists Q-adp/Q-routing before any make_routing call."""
    import os

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "from repro.routing import available_algorithms\n"
        "names = available_algorithms()\n"
        "assert 'Q-adp' in names and 'Q-routing' in names, names\n"
        "import sys\n"
        "assert 'repro.core.qadaptive' not in sys.modules, 'listing imported repro.core'\n"
        "print(','.join(names))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert proc.stdout.strip() == (
        "MIN,PAR,Q-adp,Q-routing,UGALg,UGALn,VAL,VALg,VALn"
    )


def test_routing_alias_resolution():
    assert canonical_routing_name("qadp") == "Q-adp"
    assert canonical_routing_name("Q_ADAPTIVE") == "Q-adp"
    assert canonical_routing_name("qrouting") == "Q-routing"
    assert canonical_routing_name("minimal") == "MIN"
    assert make_routing("q adaptive").name == "Q-adp"


# ------------------------------------------------------- pattern registry
def test_every_listed_pattern_name_parses_verbatim():
    """The satellite invariant: available_patterns() ⊆ make_pattern's domain."""
    for name in available_patterns():
        pattern = make_pattern(name)
        assert isinstance(pattern, TrafficPattern)
        # ... and the canonical form of the listed name is the name itself
        assert canonical_pattern_name(name) == name


def test_pattern_alias_and_adv_family_resolution():
    assert canonical_pattern_name("m2m") == "Many to Many"
    assert canonical_pattern_name("stencil") == "3D Stencil"
    assert canonical_pattern_name("adv") == "ADV+1"
    assert canonical_pattern_name("ADV+9") == "ADV+9"
    assert make_pattern("adv9").shift == 9
    with pytest.raises(ValueError, match="already fixes"):
        make_pattern("ADV+4", shift=2)


def test_user_pattern_plugin_round_trip():
    class MirrorTraffic(TrafficPattern):
        name = "Mirror"

        def destination(self, source):  # pragma: no cover - never driven
            return source

    register_pattern("Mirror", MirrorTraffic, aliases=("flip",))
    try:
        assert "Mirror" in available_patterns()
        assert isinstance(make_pattern("flip"), MirrorTraffic)
    finally:
        PATTERN_REGISTRY.unregister("Mirror")
    assert "Mirror" not in available_patterns()
