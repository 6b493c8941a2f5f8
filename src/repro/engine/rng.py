"""Deterministic random-number streams.

Every stochastic component (traffic generator per node, routing algorithm per
router, Valiant intermediate-group selection, ...) draws from its own named
substream so that

* runs are reproducible bit-for-bit from a single root seed, and
* adding or removing one component does not perturb the draws of any other.

Substreams are derived by hashing ``(root_seed, name)`` with SHA-256, which is
stable across Python processes and versions (unlike ``hash()``).
"""

from __future__ import annotations

import hashlib
import numbers
import random
from typing import Dict, List

import numpy as np

from repro.scenarios.serialize import checked_number


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_replicate_seed(base_seed: int, run_index: int) -> int:
    """Deterministic root seed for replicate ``run_index`` of one spec.

    Index 0 returns ``base_seed`` unchanged, so a non-replicated run keeps
    exactly the RNG streams of the serial harness.  Higher indices hash
    ``(base_seed, run_index)`` with SHA-256, which is stable across Python
    processes, platforms and versions (unlike ``hash()``).  Both the scalar
    sweep path (:mod:`repro.experiments.parallel`) and the batched backend
    (:mod:`repro.engine.batch`) derive replicate seeds from here, so a
    replicate's result is independent of which backend produced it.

    ``base_seed`` is read like every seed of a run
    (:func:`~repro.scenarios.serialize.checked_number`): ``1.0`` derives as
    ``1``, while ``1.5`` or ``True`` raise a :class:`ValueError`.
    """
    base_seed = checked_number(base_seed, "seed", "derive_replicate_seed", int)
    if run_index == 0:
        return base_seed
    digest = hashlib.sha256(f"replicate:{base_seed}:{run_index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_replicate_seeds(base_seed: int, n: int) -> List[int]:
    """The first ``n`` replicate seeds of ``base_seed`` (index 0 = the base).

    ``n`` must be a non-negative integer.  A ``bool`` is refused as well, so a
    flag passed where a count belongs fails instead of meaning 0 or 1.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"replicate count must be a non-negative integer, got {n!r}")
    return [derive_replicate_seed(base_seed, index) for index in range(n)]


class RngFactory:
    """Factory for named, deterministic random streams.

    Parameters
    ----------
    root_seed:
        The experiment seed.  Two factories built with the same seed hand out
        identical substreams for identical names.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._py_streams: Dict[str, random.Random] = {}
        self._np_streams: Dict[str, np.random.Generator] = {}

    def py(self, name: str) -> random.Random:
        """Return (creating on first use) the ``random.Random`` stream ``name``.

        ``random.Random`` is preferred on per-event hot paths: a single scalar
        draw is several times cheaper than from a NumPy generator.
        """
        stream = self._py_streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.root_seed, name))
            self._py_streams[name] = stream
        return stream

    def np(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the NumPy generator stream ``name``."""
        stream = self._np_streams.get(name)
        if stream is None:
            stream = np.random.default_rng(_derive_seed(self.root_seed, name))
            self._np_streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RngFactory":
        """Return a child factory whose streams are independent of the parent's."""
        return RngFactory(_derive_seed(self.root_seed, f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(root_seed={self.root_seed})"
