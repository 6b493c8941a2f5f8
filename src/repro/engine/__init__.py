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

import gc


class collector_paused:
    """``with collector_paused():`` runs the body with the cyclic collector
    off and restores the caller's state on exit, also when the body raises.
    Both engines build and drain under it: they allocate many thousand
    containers against a large live heap and make no cyclic garbage, so the
    scans the body would have run become one, at the first allocation after.
    """

    __slots__ = ("_resume",)

    def __enter__(self) -> None:
        self._resume = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._resume:
            gc.enable()


# The submodules import collector_paused from here, so it comes first.
from repro.engine.rng import RngFactory  # noqa: E402
from repro.engine.simulator import Simulator  # noqa: E402

__all__ = ["RngFactory", "Simulator", "collector_paused"]
