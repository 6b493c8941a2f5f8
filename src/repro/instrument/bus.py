"""The probe bus: typed telemetry hooks with a probes-off ``None`` fast path.

The simulation layer publishes fine-grained telemetry events — packets
injected/delivered, links occupied, credit stalls, router queue growth,
Q-table updates — but only *when somebody listens*.  The contract that keeps
the PR-3 monomorphic hot path intact:

* A :class:`ProbeBus` holds the listeners of every hook.
* Publishers never call the bus per event.  Instead the owning
  :class:`~repro.network.network.Network` resolves each hook to an
  *emitter* once, after every attach/detach, and stores it in a flat slot on
  the publishing component (``router._ev_link_busy``, ``nic._ev_delivery``,
  ...).  With no listener the slot is ``None`` and the per-event cost is a
  single attribute load + ``None`` check; with exactly one listener the slot
  *is* the listener's bound method (no wrapper frame); only multi-listener
  hooks pay a fan-out closure.
* Emitters observe and never mutate simulation state or draw random numbers,
  so attaching probes cannot change any result — determinism fingerprints
  are bit-identical with probes on or off.

Hook signatures (positional, chosen to be cheap at the call site):

=================== =======================================================
``packet_generated`` ``(packet)`` — a packet was created and accounted
``packet_injected``  ``(packet, now)`` — the packet left its NIC's queue
                     onto the host link
``packet_delivered`` ``(packet, now)`` — final delivery at the destination
``link_busy``        ``(router_id, out_port, now, busy_ns)`` — an output
                     link starts serializing one packet for ``busy_ns``
``credit_stall``     ``(router_id, out_port, vc, now)`` — a head packet
                     blocked because its output VC has no credits
``queue_depth``      ``(router_id, out_port, depth, now)`` — the output
                     waiter queue grew to ``depth`` entries
``q_update``         ``(router_id, row, column, old, new, now)`` — one
                     hysteretic Q-table update was applied
=================== =======================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

#: every hook the simulation layer can publish, in documentation order.
HOOKS = (
    "packet_generated",
    "packet_injected",
    "packet_delivered",
    "link_busy",
    "credit_stall",
    "queue_depth",
    "q_update",
)


@runtime_checkable
class Probe(Protocol):
    """Structural protocol of a telemetry probe.

    A probe declares which hooks it listens to (:meth:`subscriptions`) and
    can render everything it measured as a JSON-ready payload
    (:meth:`summary`).  An optional ``bind(network)`` method — checked with
    ``hasattr`` — lets a probe capture topology/parameter context when it is
    attached.
    """

    def subscriptions(self) -> Dict[str, Callable]:
        """``{hook name: callback}`` of every hook this probe listens to."""
        ...

    def summary(self, end_ns: float) -> Dict:
        """JSON-ready summary of everything measured up to ``end_ns``."""
        ...


class ProbeBus:
    """Listener registry for the telemetry hooks of one network.

    Listeners of one hook fire in attach order.  The bus itself is never on
    the per-event path: publishers hold pre-resolved emitters (see
    :meth:`emitter`), which the owning network refreshes after every
    attach/detach.
    """

    def __init__(self) -> None:
        self._listeners: Dict[str, List[Callable]] = {hook: [] for hook in HOOKS}

    # ------------------------------------------------------------ subscription
    def subscribe(self, hook: str, callback: Callable) -> None:
        """Add ``callback`` as a listener of ``hook`` (fires in attach order)."""
        self._check_hook(hook)
        if not callable(callback):
            raise TypeError(f"listener for {hook!r} must be callable, got {callback!r}")
        self._listeners[hook].append(callback)

    def unsubscribe(self, hook: str, callback: Callable) -> None:
        """Remove one previously subscribed listener (error if absent)."""
        self._check_hook(hook)
        try:
            self._listeners[hook].remove(callback)
        except ValueError:
            raise ValueError(f"callback {callback!r} is not subscribed to {hook!r}") from None

    def attach(self, probe: Probe) -> None:
        """Subscribe every hook of ``probe.subscriptions()``."""
        subs = probe.subscriptions()
        # Validate everything before mutating: attach is all-or-nothing, so
        # a bad subscription map cannot leave the probe half-attached.
        for hook, callback in subs.items():
            self._check_hook(hook)
            if not callable(callback):
                raise TypeError(
                    f"listener for {hook!r} must be callable, got {callback!r}")
        for hook, callback in subs.items():
            self.subscribe(hook, callback)

    def detach(self, probe: Probe) -> None:
        """Unsubscribe every hook of ``probe.subscriptions()``."""
        for hook, callback in probe.subscriptions().items():
            self.unsubscribe(hook, callback)

    # ---------------------------------------------------------------- emitters
    def listener_count(self, hook: str) -> int:
        self._check_hook(hook)
        return len(self._listeners[hook])

    @property
    def is_idle(self) -> bool:
        """True when no hook has any listener (the probes-off fast path)."""
        return not any(self._listeners.values())

    def emitter(self, hook: str) -> Optional[Callable]:
        """The pre-resolved publisher callable for ``hook``.

        ``None`` with no listener (publishers skip on a single ``None``
        check), the listener itself with exactly one (monomorphic call, no
        wrapper frame), or a fan-out closure over a snapshot of the listener
        list otherwise.  Callers must re-resolve after attach/detach — the
        snapshot is intentionally not live.
        """
        self._check_hook(hook)
        listeners = self._listeners[hook]
        if not listeners:
            return None
        if len(listeners) == 1:
            return listeners[0]
        snapshot = tuple(listeners)

        def fan_out(*args) -> None:
            for listener in snapshot:
                listener(*args)

        return fan_out

    # ---------------------------------------------------------------- plumbing
    @staticmethod
    def _check_hook(hook: str) -> None:
        if hook not in HOOKS:
            raise ValueError(f"unknown probe hook {hook!r}; known hooks: {list(HOOKS)}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = {hook: len(cbs) for hook, cbs in self._listeners.items() if cbs}
        return f"<ProbeBus listeners={active or 'none'}>"
