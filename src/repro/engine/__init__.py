"""Discrete-event simulation engine.

The engine is deliberately small: the object graph's clock and calendar
(:class:`~repro.engine.simulator.Simulator`, one heap of plain
``(time, seq, callback, args)`` tuples), a handful of helpers for
deterministic random-number streams (:mod:`repro.engine.rng`), the process
pool that independent runs fan out over (:mod:`repro.engine.fanout`), and
the flat kernel (:mod:`repro.engine.batch`).  All network components
(routers, NICs, links, traffic generators) schedule plain callables on the
shared simulator instance.

Time is measured in **nanoseconds** throughout the code base and carried as
floats.
"""

from repro.engine.rng import RngFactory
from repro.engine.simulator import Simulator

__all__ = ["RngFactory", "Simulator"]
