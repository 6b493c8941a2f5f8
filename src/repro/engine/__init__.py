"""Discrete-event simulation engine.

The engine is deliberately small: a binary-heap event calendar
(:class:`~repro.engine.simulator.Simulator`), a handful of helpers for
deterministic random-number streams (:mod:`repro.engine.rng`), the process
pool that independent runs fan out over (:mod:`repro.engine.fanout`), and
nothing else.  All network components (routers, NICs, links, traffic generators)
schedule plain callables on the shared simulator instance.

Time is measured in **nanoseconds** throughout the code base and carried as
floats.
"""

from repro.engine.events import Event, EventQueue
from repro.engine.rng import RngFactory
from repro.engine.simulator import Simulator

__all__ = ["Event", "EventQueue", "RngFactory", "Simulator"]
