"""Errors of the batched replicate backend."""

from __future__ import annotations


class UnsupportedByBackend(ValueError):
    """The flat kernel cannot reproduce this spec bit-identically.

    Raised *before* any simulation work happens, so a spec is either refused
    loudly or produces exactly the object-graph engine's results — never a
    silent approximation.  The message names the offending spec feature.
    ``run_experiment`` catches it and runs the spec on the object graph; the
    explicit many-seed entry points (``run_batch``, ``BatchSimulation``) let
    it propagate.
    """
