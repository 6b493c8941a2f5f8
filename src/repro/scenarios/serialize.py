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
from dataclasses import dataclass, replace
from importlib import import_module
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

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


class FieldError(ValueError):
    """A refused number, named by class (``context``) and field; a container
    re-raises it under its own name from ``name``, ``what`` and ``value``.
    It pickles as those four parts, so a pool worker's refusal reaches the
    parent."""

    def __init__(self, context: str, name: str, what: str, value: Any) -> None:
        super().__init__(f"{context}: {name} {what}, got {value!r}")
        self.context, self.name, self.what, self.value = context, name, what, value

    def __reduce__(self):
        return type(self), (self.context, self.name, self.what, self.value)


def checked_number(value: Any, name: str, context: str, kind: type = float) -> Any:
    """``value`` as a finite float (``kind=float``) or an integral int
    (``kind=int``), else a :class:`FieldError` naming ``name``.

    The one rule for every number of a run, from a file or a constructor: an
    int field stores an integral float as an ``int`` (``20.0`` → ``20``, so
    one experiment has one fingerprint), a float field stores a ``float``,
    numeric strings such as YAML 1.1's ``"5e4"`` pass, and a bool, a fraction
    in an int field (``1.5``), NaN or ±inf is refused.  Dataclass fields get
    it through :func:`_check_fields`; only other arguments call this."""
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
        raise FieldError(context, name, f"must be {what}", value)
    return kind(number)


@dataclass(frozen=True)
class Number:
    """The declared rule of one numeric field: its ``kind`` (``int`` or
    ``float``), its range ``[low, high]`` (``(low, high]`` with ``open_low``),
    whether ``None`` passes, and whether it holds one number or, with
    ``each``, a sequence of them (stored as a tuple)."""

    kind: type = float
    low: float = -math.inf
    high: float = math.inf
    open_low: bool = False
    optional: bool = False
    each: bool = False

    def or_none(self) -> "Number":
        return replace(self, optional=True)

    def check(self, value: Any, name: str, context: str) -> Any:
        """``value`` normalised by this rule, else a :class:`FieldError`."""
        if value is None and self.optional:
            return None
        if not self.each:
            return self._one(value, name, context)
        if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
            raise FieldError(context, name, "must be a list of numbers", value)
        return tuple(self._one(item, name, context) for item in value)

    def _one(self, value: Any, name: str, context: str) -> Any:
        if type(value) is not self.kind or (self.kind is float and not math.isfinite(value)):
            value = checked_number(value, name, context, self.kind)
        if value < self.low or value > self.high or (self.open_low and value == self.low):
            raise FieldError(context, name, self._bounds(), value)
        return value

    def _bounds(self) -> str:
        if self.high < math.inf:
            return f"must be in {'(' if self.open_low else '['}{self.low:g}, {self.high:g}]"
        if self.low == 0.0:
            return "must be positive" if self.open_low else "cannot be negative"
        return f"must be {'>' if self.open_low else '>='} {self.low:g}"


#: the rules most fields share (a load or a learning rate is a POSITIVE_FRACTION).
INTEGER = Number(int)
POSITIVE = Number(float, 0.0, open_low=True)
NON_NEGATIVE = Number(float, 0.0)
FRACTION = Number(float, 0.0, 1.0)
POSITIVE_FRACTION = Number(float, 0.0, 1.0, open_low=True)
LOADS = replace(POSITIVE_FRACTION, each=True)


def _check_fields(obj: Any, context: Optional[str] = None) -> None:
    """Check and normalise, in declaration order, each numeric field that
    ``type(obj)._NUMBERS`` declares: :func:`checked_number`'s rule (an int
    field stores ``20.0`` as ``20``, a float field a ``float``; a bool, a
    fraction in an int field, NaN or ±inf is refused), then its range.  The
    error names ``context`` (by default the class) and the field.  Every
    spec-like ``__post_init__``, frozen or not, calls this, so ``from_dict``
    gets the same check and message just by constructing."""
    where = context or type(obj).__name__
    for name, rule in type(obj)._NUMBERS.items():
        value = getattr(obj, name)
        # Fast path: one value of the declared kind strictly inside its range.
        if rule.each or type(value) is not rule.kind or not rule.low < value < rule.high:
            object.__setattr__(obj, name, rule.check(value, name, where))


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
