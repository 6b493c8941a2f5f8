"""The one ``to_dict``/``from_dict`` codec of every spec-like type.

A spec-like dataclass inherits :class:`Codec`; its serialized form is derived
from its fields, each value encoded by its field's type: a topology config
(typed ``object``) family-tagged by ``config_to_dict``, a nested
:class:`Codec` (or a sequence of them) recursively, a :data:`Kwargs` field by
:func:`encode_kwargs` (which tags hyper-parameter objects with ``__param__``
so :func:`decode_kwargs` rebuilds them), anything else as plain JSON.

What the fields cannot say, a class declares in its ``_FORM`` (a
:class:`Form`, next to its ``_NUMBERS``): a document's ``schema`` version, a
key that differs from its field name, keys required although their field
has a default, and its shape.  A *flat block* writes every field, ``None``
included; a *document* omits an unset field: ``None`` in an ``Optional``
field, empty in a field whose default is empty.  So the serialized form, and
the cache fingerprint built from it, stays stable when an optional field is
added.  A *row* writes its fields' plain values as one list, in declaration
order, and reads back only a list of that length: a load schedule's phases
are ``[start_ns, load]`` rows, a fault schedule's events ``[time_ns, kind,
router, port]`` rows.

``from_dict`` is strict: the allowed keys come from the fields (a typo in a
scenario file must not silently change the experiment), a document's
``schema`` version is checked, numbers go through ``_NUMBERS`` in the
constructor, and an error in a nested block names its path
(``Study.scenarios[0].network_params: ...``).
"""

from __future__ import annotations

import math
import operator
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from importlib import import_module
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type, Union

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
            return _from_dict(cls, payload, context)
        return {k: _decode_value(v, f"{context}[{k!r}]") for k, v in value.items()}
    if isinstance(value, list):
        # Sequences inside kwargs round-trip as tuples (JSON has no tuple
        # type and the constructors they feed — grid dims etc. — expect
        # hashable, immutable sequences).
        return tuple(_decode_value(v, context) for v in value)
    return value


# ------------------------------------------------------------------ the codec
#: the type of a field of keyword arguments for a registered factory
#: (``routing_kwargs``, ``pattern_kwargs``): written by :func:`encode_kwargs`.
Kwargs = Dict[str, Any]


@dataclass(frozen=True)
class Form:
    """What a :class:`Codec` class declares about its serialized form beyond
    its fields (its ``_FORM``).

    ``schema``: a document's version, written first and checked on load.
    ``keys``: field → key, where the key differs from the field name.
    ``required``: keys required although their field has a default; a tuple
    entry requires one key of the group.
    ``flat``: write every field, ``None`` included (else omit an unset one).
    ``always``: fields a document writes even when unset.
    ``omit_default``: fields a document omits at their default.
    ``removed``: keys older files may still carry → why they were removed.
    ``row``: written as the list of its fields' values, in declaration order.
    """

    schema: Optional[int] = None
    keys: Mapping[str, str] = field(default_factory=dict)
    required: Tuple[Union[str, Tuple[str, ...]], ...] = ()
    flat: bool = False
    always: Tuple[str, ...] = ()
    omit_default: Tuple[str, ...] = ()
    removed: Mapping[str, str] = field(default_factory=dict)
    row: bool = False


class Codec:
    """``to_dict``/``from_dict`` derived from the dataclass fields and the
    class's ``_FORM`` (a flat block unless it declares otherwise).  Its
    numbers are checked on construction: a class whose ``__post_init__``
    does more calls :func:`_check_fields` itself."""

    _FORM = Form(flat=True)

    def __post_init__(self) -> None:
        _check_fields(self)

    def to_dict(self) -> Any:
        """JSON-ready form (see the module docstring for what is written): a
        mapping, or a list for a row."""
        plan = _PLANS.get(type(self)) or _plan(type(self))
        if plan.form.row:
            return [getattr(self, name) for name, *_ in plan.encoders]
        data = {} if plan.form.schema is None else {"schema": plan.form.schema}
        for name, key, encode, unless, default in plan.encoders:
            value = getattr(self, name)
            if unless and (value is None or unless is _EMPTY and not value
                           or unless is _DEFAULT and value == default):
                continue
            data[key] = value if encode is None or value is None else encode(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Strict inverse of :meth:`to_dict`: unknown keys, a missing
        required key or a wrong ``schema`` version raise :class:`ValueError`;
        omitted optional keys keep their field defaults."""
        return _from_dict(cls, data, cls.__name__)


Encoder = Callable[[Any], Any]

#: when a document omits a field: when None, when None or empty (a field
#: whose default is empty), when None or at its default.
_NONE, _EMPTY, _DEFAULT = "none", "empty", "default"


class _Plan(typing.NamedTuple):
    """A class's codec, derived once, on first use, from its fields and
    ``_FORM``.  The annotations are read as written (the codec modules
    postpone theirs), and a class they name is looked up in the module only
    when a file is read: evaluating every annotation of a class would cost
    about a millisecond, paid by a process's first fingerprint."""

    #: (field name, key, encoder or None, when omitted or None, default)
    encoders: Tuple[Tuple[str, str, Optional[Encoder], Optional[str], Any], ...]
    by_key: Dict[str, Tuple[str, str]]  # key → (field name, annotation)
    required: Tuple[str, ...]
    optional: Tuple[str, ...]
    form: Form
    namespace: Mapping[str, Any]  # the names of the class's module


_PLANS: Dict[Type[Codec], _Plan] = {}


def _plan(cls: Type[Codec]) -> _Plan:
    form: Form = cls._FORM
    encoders, by_key = [], {}
    required = [] if form.schema is None else ["schema"]
    for spec in fields(cls):
        name, annotation = spec.name, spec.type
        key = form.keys.get(name, name)
        by_key[key] = (name, annotation)
        core = _core(annotation)
        if core in ("int", "float", "str", "bool"):
            encode: Optional[Encoder] = None
        elif core == "object":  # any registered topology config
            from repro.topology.registry import config_to_dict

            encode = config_to_dict
        elif core in ("Kwargs", "Dict[str, Kwargs]"):  # the latter by factory name
            encode = partial(encode_kwargs, context=f"{cls.__name__}.{key}")
        else:
            encode = list if core == "Tuple[str, ...]" else _plain
        if spec.default is not MISSING:
            default = spec.default
        elif spec.default_factory is not MISSING:
            default = spec.default_factory()
        else:
            default = None
            required.append(key)
        unless = (None if form.flat or name in form.always else
                  _DEFAULT if name in form.omit_default else
                  _EMPTY if isinstance(default, (str, tuple, dict)) and not default else _NONE)
        encoders.append((name, key, encode, unless, default))
    required += [key for key in form.required if isinstance(key, str)]
    plan = _PLANS[cls] = _Plan(tuple(encoders), by_key, tuple(required),
                               tuple(key for key in by_key if key not in required), form,
                               vars(sys.modules[cls.__module__]))
    return plan


def _core(annotation: str) -> str:
    """``Optional[X]`` is ``X``."""
    return annotation[9:-1] if annotation.startswith("Optional[") else annotation


def _plain(value: Any) -> Any:
    """``value`` as JSON-ready primitives: an object by its ``to_dict``,
    sequences as lists, mappings as fresh dicts."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _from_dict(cls: Type[Codec], data: Any, path: str) -> Any:
    """Build ``cls`` from its serialized form; ``path`` names the block in
    error messages (``Study.scenarios[0].network_params`` when nested)."""
    plan = _PLANS.get(cls) or _plan(cls)
    form = plan.form
    if form.row:
        if not isinstance(data, (list, tuple)) or len(data) != len(plan.by_key):
            raise ValueError(f"{path}: expected a [{', '.join(plan.by_key)}] row, got {data!r}")
        data = dict(zip(plan.by_key, data))
    if not isinstance(data, Mapping):
        raise ValueError(f"{path}: expected a mapping, got {type(data).__name__}")
    removed = sorted(form.removed.keys() & data.keys())
    if removed:
        raise ValueError(f"{path}: field(s) {removed} were removed "
                         f"({'; '.join(sorted({form.removed[key] for key in removed}))})")
    missing = [key for key in plan.required if key not in data]
    if missing:
        raise ValueError(f"{path}: missing required field(s) {missing}")
    allowed = {*plan.required, *plan.optional}
    unknown = sorted(key for key in data if key not in allowed)
    if unknown:
        raise ValueError(f"{path}: unknown field(s) {unknown}; allowed: {sorted(allowed)}")
    if form.schema is not None and data["schema"] != form.schema:  # one version read
        raise ValueError(f"{path}: unsupported schema version {data['schema']!r} "
                         f"(this build reads version {form.schema})")
    for group in form.required:
        if not isinstance(group, str) and not any(key in data for key in group):
            raise ValueError(f"{path}: missing required field: {' or '.join(map(repr, group))}")
    kwargs = {}
    for key, value in data.items():
        if key != "schema":
            name, annotation = plan.by_key[key]
            kwargs[name] = _decode(annotation, plan.namespace, value, f"{path}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if path == cls.__name__:  # not nested: the class names itself
            raise
        raise _located(exc, path) from None


def _located(exc: ValueError, path: str) -> ValueError:
    """``exc`` prefixed with the path of the block it was raised for."""
    if isinstance(exc, FieldError):
        return FieldError(f"{path}: {exc.context}", exc.name, exc.what, exc.value)
    return ValueError(f"{path}: {exc}")


def _decode(annotation: str, namespace: Mapping[str, Any], value: Any, path: str) -> Any:
    """The value of a field annotated ``annotation`` (in a module whose names
    are ``namespace``) read from its serialized ``value`` at ``path``."""
    core = _core(annotation)
    if core == "object":  # any registered topology config
        from repro.topology.registry import config_from_dict

        try:
            return config_from_dict(value)
        except ValueError as exc:
            raise _located(exc, path) from None
    if core == "Kwargs":
        return decode_kwargs(value, path)
    if core == "Dict[str, Kwargs]":  # keyword arguments by factory name
        if not isinstance(value, Mapping):
            raise ValueError(f"{path}: expected a mapping, got {type(value).__name__}")
        return {name: decode_kwargs(kwargs, f"{path}[{name!r}]") for name, kwargs in value.items()}
    if core == "Tuple[str, ...]":
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"{path}: expected a list of strings, got {value!r}")
        return tuple(value)
    # Sequence[Scenario] / Tuple[LoadPhase, ...] → the element class's name
    outer, _, inner = core.partition("[")
    codec = namespace.get(inner[:-1].removesuffix(", ...") or outer)
    if isinstance(codec, type) and issubclass(codec, Codec):
        return tuple_of(codec, value, path) if inner else _from_dict(codec, value, path)
    return dict(value) if outer == "Dict" and value is not None else value


def tuple_of(cls: Type[Codec], items: Any, path: str) -> Tuple[Any, ...]:
    """``items`` as a tuple of ``cls`` objects, each item an object of ``cls``
    or its serialized form (a row, for a row form), read as ``from_dict``
    reads it at ``path[index]``: a constructor and a file refuse alike."""
    if isinstance(items, (str, bytes, dict)) or not hasattr(items, "__iter__"):
        raise ValueError(f"{path}: expected a list, got {type(items).__name__}")
    return tuple(item if isinstance(item, cls) else _from_dict(cls, item, f"{path}[{index}]")
                 for index, item in enumerate(items))
