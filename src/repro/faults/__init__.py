"""Fault injection: scheduled link/router failures with credit-safe teardown.

The paper's central claim is that distributed per-router learning adapts to
*changing network conditions*; :mod:`repro.traffic`'s ``LoadSchedule`` covers
dynamic load, and this package covers dynamic *structure* — links and routers
failing and recovering mid-run on any registered topology.

* :class:`~repro.faults.schedule.FaultSchedule` — a serializable, sorted
  timeline of :class:`~repro.faults.schedule.FaultEvent` entries, built
  deterministically (``single_link_failure``/``router_outage``) or from a
  seeded random draw expanded to concrete events at construction time
  (``random_link_failures``), so identical schedules always serialize and
  replay identically.
* :class:`~repro.faults.controller.FaultController` — applies the schedule
  to a built :class:`~repro.network.network.Network`: drops in-flight
  packets on a dying link without leaking credits, detours minimal routing
  around the failure over the live graph, and masks dead ports out of the
  exploration candidates of the learned algorithms (which keep updating, so
  the re-route is *learned*).

Faults-off runs never touch this package: when ``ExperimentSpec.faults`` is
``None`` nothing is imported or attached and the hot path stays byte-for-byte
identical to a build without fault support.
"""

from repro.faults.schedule import (
    FAULTS_SCHEMA_VERSION,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.controller import FaultController

__all__ = [
    "FAULTS_SCHEMA_VERSION",
    "FaultController",
    "FaultEvent",
    "FaultSchedule",
]
