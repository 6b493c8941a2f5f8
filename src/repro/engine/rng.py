"""Deterministic random-number streams.

Every stochastic component (traffic generator per node, routing algorithm per
router, Valiant intermediate-group selection, ...) draws from its own named
substream so that

* runs are reproducible bit-for-bit from a single root seed, and
* adding or removing one component does not perturb the draws of any other.

Substreams are derived by hashing ``(root_seed, name)`` with SHA-256, which is
stable across Python processes and versions (unlike ``hash()``).

The bulk helpers (:func:`bulk_random`, :func:`complement_logs`,
:func:`bulk_randrange`) take many draws of a ``random.Random`` stream at once
and return exactly the values, and leave exactly the stream state, of the same
sequence of scalar calls: ``stream.getrandbits(32 * n)`` hands out the next
``n`` MT19937 words in draw order, and numpy applies CPython's own formulas to
them.  They never touch ``numpy.random``, which costs 6 MB of resident memory
just to import.
"""

from __future__ import annotations

import hashlib
import math
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


def bulk_words(stream: random.Random, n: int) -> np.ndarray:
    """The next ``n`` 32-bit words of ``stream``'s generator, in draw order."""
    if n <= 0:
        return np.empty(0, dtype=np.uint32)
    return np.frombuffer(stream.getrandbits(32 * n).to_bytes(4 * n, "little"), dtype="<u4")


def bulk_random(stream: random.Random, n: int) -> np.ndarray:
    """``[stream.random() for _ in range(n)]`` as a float64 array: two words
    per value, ``(a >> 5) * 2**26 + (b >> 6)`` scaled by ``2**-53``, all exact."""
    words = bulk_words(stream, 2 * n)
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def complement_logs(uniforms: np.ndarray) -> List[float]:
    """``log(1 - u)`` for each uniform ``u``: ``stream.expovariate(rate)``
    is ``-log(1 - u) / rate``.

    ``math.log`` is taken per value, as ``expovariate`` takes it: ``np.log``
    differs from it in the last bit on a few draws in a thousand.
    """
    return list(map(math.log, (1.0 - uniforms).tolist()))


def bulk_randrange(stream: random.Random, n: int, count: int) -> np.ndarray:
    """``[stream.randrange(n) for _ in range(count)]`` as an int64 array.

    Each draw takes one word's top ``n.bit_length()`` bits and rejects values
    ``>= n`` (CPython's ``_randbelow_with_getrandbits``).  Every round draws
    exactly as many words as values are still missing, so the stream never
    runs ahead of the scalar calls.  ``n`` must be below ``2**32``.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if not 0 < n < 1 << 32:
        raise ValueError(f"bulk_randrange needs 0 < n < 2**32, got {n!r}")
    shift = 32 - n.bit_length()
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        values = bulk_words(stream, count - filled) >> shift
        values = values[values < n]
        out[filled:filled + len(values)] = values
        filled += len(values)
    return out


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

    def py(self, name: str) -> random.Random:
        """Return (creating on first use) the ``random.Random`` stream ``name``.

        Many draws at once go through the bulk helpers below, which leave the
        stream exactly where the scalar calls would.
        """
        stream = self._py_streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.root_seed, name))
            self._py_streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(root_seed={self.root_seed})"
