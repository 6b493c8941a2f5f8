"""The typed run logs that telemetry reduces over.

A run appends one row per event of interest to plain :mod:`array` columns,
in the order the events execute, and every probe of
:mod:`repro.instrument.probes` is a reduction over them at the end of the
run.  The delivery log (create time, delivery time, hop count per delivered
packet) is the statistics collector's own and always kept; every other log
is allocated only when a requested probe reads it — otherwise its slot is
``None``, and the code that would append to it pays one ``is not None``
check.

=============== ===========================================================
``source``      the source node of each delivered packet (``'i'``), a
                fourth column of the collector's delivery log
``generation``  the create time of each generated packet (``'d'``)
``forward``     :class:`ForwardLog`: one row per packet put on an output link
``join``        :class:`JoinLog`: one row per packet that queues as a waiter
                of its output port
``q_update``    :class:`QUpdateLog`: one row per applied Q-table fold
=============== ===========================================================

A port is named by its flat index ``router * k + port``, the index of the
network's port table.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Optional

#: the logs a run can be asked to keep, in documentation order.
LOG_NAMES = ("source", "generation", "forward", "join", "q_update")


class ForwardLog(NamedTuple):
    """One row per forward: the output port and the time it starts sending."""

    port: array
    time: array

    @classmethod
    def new(cls) -> "ForwardLog":
        return cls(array("i"), array("d"))

    def add(self, port: int, time: float) -> None:
        self.port.append(port)
        self.time.append(time)


class JoinLog(NamedTuple):
    """One row per waiter join: the output port, its waiter-queue depth after
    the join, whether the packet's output VC had no credit, and the time."""

    port: array
    depth: array
    stalled: array
    time: array

    @classmethod
    def new(cls) -> "JoinLog":
        return cls(array("i"), array("i"), array("b"), array("d"))

    def add(self, port: int, depth: int, stalled: bool, time: float) -> None:
        self.port.append(port)
        self.depth.append(depth)
        self.stalled.append(stalled)
        self.time.append(time)


class QUpdateLog(NamedTuple):
    """One row per applied fold: the router, ``|new - old|`` and the time."""

    router: array
    delta: array
    time: array

    @classmethod
    def new(cls) -> "QUpdateLog":
        return cls(array("i"), array("d"), array("d"))

    def add(self, router: int, delta: float, time: float) -> None:
        self.router.append(router)
        self.delta.append(delta)
        self.time.append(time)


class RunLogs(NamedTuple):
    """Every log of one finished run, as the reducers read them; a log the
    run did not keep is ``None``."""

    dl_create: array
    dl_deliver: array
    source: Optional[array] = None
    generation: Optional[array] = None
    forward: Optional[ForwardLog] = None
    join: Optional[JoinLog] = None
    q_update: Optional[QUpdateLog] = None
