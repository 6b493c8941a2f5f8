"""Flit-level network hardware model.

This package models the hardware a Dragonfly routing algorithm runs on:

* :class:`~repro.network.params.NetworkParams` — link bandwidth/latencies,
  buffer depths, packet size (defaults are the paper's Section 5.1 values);
* :class:`~repro.network.packet.Packet` — a single-flit message;
* :class:`~repro.network.router.Router` — an input-queued router with virtual
  channels, credit-based flow control and per-output-port serialization;
* :class:`~repro.network.nic.Nic` — node injection/ejection;
* :class:`~repro.network.network.Network` — wires everything together on top
  of any registered :class:`~repro.topology.base.Topology`, from one flat
  per-port table of link delays, far ends and credit capacities.

Links and credits are not objects: each router and NIC keeps its per-port
state in plain lists (see the hot-path notes in :mod:`repro.network.router`).
"""

from repro.network.network import Network
from repro.network.nic import Nic
from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.network.router import Router

__all__ = [
    "Network",
    "Nic",
    "NetworkParams",
    "Packet",
    "Router",
]

