"""Shared pytest fixtures."""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

import pytest

# Allow running the tests without installing the package (e.g. straight from a
# checkout): put src/ on the path if "repro" is not importable.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

from repro.engine.rng import RngFactory  # noqa: E402
from repro.engine.simulator import Simulator  # noqa: E402
from repro.network.network import Network  # noqa: E402
from repro.network.params import NetworkParams  # noqa: E402
from repro.network.router import Router  # noqa: E402
from repro.topology.config import DragonflyConfig  # noqa: E402
from repro.topology.dragonfly import DragonflyTopology  # noqa: E402


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng_factory() -> RngFactory:
    return RngFactory(1234)


@pytest.fixture(scope="session")
def tiny_config() -> DragonflyConfig:
    return DragonflyConfig.tiny()


@pytest.fixture(scope="session")
def small_config() -> DragonflyConfig:
    return DragonflyConfig.small_72()


@pytest.fixture(scope="session")
def paper_config() -> DragonflyConfig:
    return DragonflyConfig.paper_1056()


@pytest.fixture(scope="session")
def small_topo(small_config) -> DragonflyTopology:
    return DragonflyTopology(small_config)


@pytest.fixture(scope="session")
def tiny_topo(tiny_config) -> DragonflyTopology:
    return DragonflyTopology(tiny_config)


def build_network(routing, config=None, seed: int = 7, **param_overrides) -> Network:
    """Helper used across tests to build a small network quickly."""
    config = config or DragonflyConfig.small_72()
    return Network(config, routing, params=NetworkParams(**param_overrides), seed=seed)


@pytest.fixture
def network_factory():
    return build_network


@pytest.fixture
def router_paths(monkeypatch) -> Dict[int, List[Tuple[int, int]]]:
    """``paths[pid]``: the ``(router, input vc)`` arrivals of every packet.

    Wraps ``Router.receive_packet`` for networks built after the fixture is
    requested (``Router.wire`` binds it then), so routers are recorded in the
    order a packet reached them, source router first.
    """
    paths: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    receive = Router.receive_packet

    def recording(self, packet, in_port, vc):
        paths[packet.pid].append((self.id, vc))
        receive(self, packet, in_port, vc)

    monkeypatch.setattr(Router, "receive_packet", recording)
    return paths
