"""Shared helpers for the versioned ``to_dict``/``from_dict`` protocol.

Every serializable object in the scenario API follows the same rules:

* ``to_dict`` emits only JSON-ready primitives (numbers, strings, booleans,
  lists, dicts) and omits optional fields that are unset/empty, so the
  serialized form — and therefore the cache fingerprint built from it — is
  stable when new optional fields are added later.
* ``from_dict`` is strict: unknown keys are an error (a typo in a scenario
  file must not silently change the experiment), and the top-level documents
  (:class:`~repro.experiments.harness.ExperimentSpec`,
  :class:`~repro.scenarios.study.Study`) carry an explicit ``schema`` version
  that is validated on load.

``routing_kwargs`` / ``pattern_kwargs`` may hold hyper-parameter objects
(:class:`~repro.core.qadaptive.QAdaptiveParams`,
:class:`~repro.core.qrouting.QRoutingParams`); :func:`encode_kwargs` tags them
with a ``__param__`` marker so :func:`decode_kwargs` can rebuild the typed
object instead of a bare dict.
"""

from __future__ import annotations

import math
import operator
from importlib import import_module
from typing import Any, Dict, Mapping, Sequence, Tuple

#: schema version of a serialized ExperimentSpec document: the one version
#: this build writes and reads.
SPEC_SCHEMA_VERSION = 5

#: schema version of a serialized Study document: the one version this build
#: writes and reads.
STUDY_SCHEMA_VERSION = 5

#: tag → (module, class) of hyper-parameter objects allowed inside kwargs.
PARAM_CODECS: Dict[str, Tuple[str, str]] = {
    "qadaptive": ("repro.core.qadaptive", "QAdaptiveParams"),
    "qrouting": ("repro.core.qrouting", "QRoutingParams"),
}

_CLASS_TO_TAG = {cls_name: tag for tag, (_, cls_name) in PARAM_CODECS.items()}


def check_keys(
    data: Mapping[str, Any],
    *,
    required: Sequence[str] = (),
    optional: Sequence[str] = (),
    context: str,
) -> None:
    """Strict key validation shared by every ``from_dict``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{context}: expected a mapping, got {type(data).__name__}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{context}: missing required field(s) {missing}")
    allowed = set(required) | set(optional)
    unknown = sorted(key for key in data if key not in allowed)
    if unknown:
        raise ValueError(
            f"{context}: unknown field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def check_schema(data: Mapping[str, Any], expected: int, context: str) -> None:
    """Validate the ``schema`` field of a top-level document.

    A build reads exactly the version it writes.
    """
    version = data.get("schema")
    if version != expected:
        raise ValueError(
            f"{context}: unsupported schema version {version!r} "
            f"(this build reads version {expected})"
        )


def checked_number(value: Any, name: str, context: str, kind: type = float) -> Any:
    """``value`` as a finite float (``kind=float``) or an integral int
    (``kind=int``), else a :class:`ValueError` naming ``name``.  Numeric
    strings such as YAML 1.1's ``"5e4"`` pass; booleans, NaN, infinities and
    non-integral ints (``1.5``) raise.  The one rule for every number of a
    run, whether it comes from a file or a constructor."""
    if kind is int and not isinstance(value, bool):
        try:
            return operator.index(value)  # exact, numpy integers included
        except TypeError:
            pass
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (math.isfinite(number) and (kind is float or number.is_integer())):
        what = "a finite number" if kind is float else "an integer"
        raise ValueError(f"{context}: {name} must be {what}, got {value!r}")
    return kind(number)


def run_numbers(data: Mapping[str, Any], context: str) -> Dict[str, Any]:
    """``sim_time_ns``, ``warmup_ns``, ``stats_bin_ns`` (finite floats) and
    ``seed`` (an integral int), as far as ``data`` holds them, each read by
    :func:`checked_number`."""
    return {name: checked_number(data[name], name, context, kind)
            for name, kind in (("sim_time_ns", float), ("warmup_ns", float),
                               ("stats_bin_ns", float), ("seed", int))
            if name in data}


def encode_kwargs(kwargs: Mapping[str, Any], context: str) -> Dict[str, Any]:
    """Encode a kwargs dict to JSON-ready primitives (tagging param objects)."""
    return {str(key): _encode_value(value, f"{context}[{key!r}]")
            for key, value in kwargs.items()}


def decode_kwargs(data: Mapping[str, Any], context: str) -> Dict[str, Any]:
    """Inverse of :func:`encode_kwargs`."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{context}: expected a mapping, got {type(data).__name__}")
    return {key: _decode_value(value, f"{context}[{key!r}]")
            for key, value in data.items()}


def _encode_value(value: Any, context: str) -> Any:
    tag = _CLASS_TO_TAG.get(type(value).__name__)
    if tag is not None and hasattr(value, "to_dict"):
        return {"__param__": tag, **value.to_dict()}
    if isinstance(value, Mapping):
        return {str(k): _encode_value(v, f"{context}[{k!r}]") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v, context) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(
        f"{context}: value of type {type(value).__name__} is not serializable; "
        "use primitives, lists, dicts, or a registered hyper-parameter object"
    )


def _decode_value(value: Any, context: str) -> Any:
    if isinstance(value, Mapping):
        if "__param__" in value:
            tag = value["__param__"]
            if tag not in PARAM_CODECS:
                raise ValueError(
                    f"{context}: unknown parameter tag {tag!r}; "
                    f"known: {sorted(PARAM_CODECS)}"
                )
            module_name, class_name = PARAM_CODECS[tag]
            cls = getattr(import_module(module_name), class_name)
            payload = {k: v for k, v in value.items() if k != "__param__"}
            return cls.from_dict(payload)
        return {k: _decode_value(v, f"{context}[{k!r}]") for k, v in value.items()}
    if isinstance(value, list):
        # Sequences inside kwargs round-trip as tuples (JSON has no tuple
        # type and the constructors they feed — grid dims etc. — expect
        # hashable, immutable sequences).
        return tuple(_decode_value(v, context) for v in value)
    return value
