"""Flit-level network hardware model.

This package models the hardware a Dragonfly routing algorithm runs on:

* :class:`~repro.network.params.NetworkParams` — link bandwidth/latencies,
  buffer depths, packet size (defaults are the paper's Section 5.1 values);
* :class:`~repro.network.packet.Packet` — a single-flit message;
* :class:`~repro.network.router.Router` — an input-queued router with virtual
  channels, credit-based flow control and per-output-port serialization;
* :class:`~repro.network.nic.Nic` — node injection/ejection;
* :class:`~repro.network.network.Network` — wires everything together on top
  of any registered :class:`~repro.topology.base.Topology`.
"""

from repro.network.credits import OutputCredits
from repro.network.link import Channel
from repro.network.network import Network
from repro.network.nic import Nic
from repro.network.packet import Packet
from repro.network.params import NetworkParams
from repro.network.router import Router

__all__ = [
    "Channel",
    "Network",
    "Nic",
    "NetworkParams",
    "OutputCredits",
    "Packet",
    "Router",
]

