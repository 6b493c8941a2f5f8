"""One name registry for routings, patterns, topologies, studies, probes and scales.

Both ``repro.routing`` and ``repro.traffic`` historically grew their own
string-to-factory mapping (a lowercase dict and a regex/if-chain); this module
replaces them with one :class:`Registry` that supports:

* **canonical names** — each entry has one display name (``"Q-adp"``,
  ``"3D Stencil"``) and any number of aliases; lookup is insensitive to case,
  whitespace, underscores and hyphens.
* **lazy factories** — an entry may be registered with a ``loader`` callable
  instead of the factory itself, so listing names never imports (or
  instantiates) anything.  This is how the learned algorithms avoid the
  ``repro.routing`` ↔ ``repro.core`` circular import.
* **parameterised names** — an entry may carry a ``match`` hook that parses
  dynamic names such as ``"ADV+4"`` into the canonical display form plus the
  implied constructor kwargs (``{"shift": 4}``).
* **kwarg introspection** — :meth:`Registry.signature` reports the keyword
  arguments a factory accepts, and :meth:`Registry.check_kwargs` refuses
  the ones it does not (loading it on demand, never instantiating).
* **user plugins** — patterns (``repro.traffic.register_pattern``),
  topologies and studies accept entries from downstream code, and those
  show up in every listing, the CLI included.  The routing registry
  does not: its nine entries are the flat kernel's decision kinds
  (:mod:`repro.engine.batch.model`), a closed set.
"""

from __future__ import annotations

import inspect
import re
import sys
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.scenarios.serialize import PARAM_CODECS

__all__ = ["MatchResult", "Registry", "RegistryEntry", "normalize_key"]

_KEY_RE = re.compile(r"[\s_\-]+")

#: what a ``match`` hook returns for a recognised dynamic name: the canonical
#: display form of that name and the constructor kwargs it implies.
MatchResult = Tuple[str, Dict[str, Any]]


def normalize_key(name: str) -> str:
    """Normalise a lookup name: lowercase, strip spaces/underscores/hyphens."""
    return _KEY_RE.sub("", name.strip().lower())


@dataclass
class RegistryEntry:
    """One registered factory plus its lookup and documentation metadata."""

    canonical: str
    factory: Optional[Callable[..., Any]] = None
    loader: Optional[Callable[[], Callable[..., Any]]] = None
    aliases: Tuple[str, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)
    match: Optional[Callable[[str], Optional[MatchResult]]] = None

    def __post_init__(self) -> None:
        if (self.factory is None) == (self.loader is None):
            raise ValueError(
                f"entry {self.canonical!r} needs exactly one of factory or loader"
            )

    @property
    def loaded(self) -> bool:
        return self.factory is not None

    def load(self) -> Callable[..., Any]:
        """Return the factory, resolving a lazy loader on first use."""
        if self.factory is None:
            self.factory = self.loader()  # type: ignore[misc]
        return self.factory

    def lookup_keys(self) -> Tuple[str, ...]:
        """Every normalised key this entry answers to (canonical + aliases)."""
        return tuple(dict.fromkeys(
            normalize_key(name) for name in (self.canonical, *self.aliases)
        ))


class Registry:
    """Name → factory mapping with aliases, lazy loading and introspection.

    ``kind`` is a human-readable noun ("routing algorithm", "traffic
    pattern", "study") used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}  # canonical key → entry
        self._alias_of: Dict[str, str] = {}  # normalised alias → canonical key
        self._kwarg_rules: Dict[str, _KwargRules] = {}  # name → check_kwargs's rules

    # -------------------------------------------------------------- mutation
    def register(
        self,
        canonical: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        loader: Optional[Callable[[], Callable[..., Any]]] = None,
        aliases: Sequence[str] = (),
        metadata: Optional[Dict[str, Any]] = None,
        match: Optional[Callable[[str], Optional[MatchResult]]] = None,
        replace: bool = False,
    ) -> RegistryEntry:
        """Register a factory (or a lazy ``loader`` for one) under a name.

        Raises :class:`ValueError` when any of the names is already taken,
        unless ``replace=True`` (which first unregisters the clashing entry).
        """
        self._kwarg_rules.clear()
        entry = RegistryEntry(
            canonical=canonical,
            factory=factory,
            loader=loader,
            aliases=tuple(aliases),
            metadata=dict(metadata or {}),
            match=match,
        )
        taken = [key for key in entry.lookup_keys() if key in self._alias_of]
        if taken:
            if not replace:
                owners = sorted({self._entries[self._alias_of[k]].canonical for k in taken})
                raise ValueError(
                    f"{self.kind} name(s) {taken} already registered by {owners}; "
                    "pass replace=True to override"
                )
            # Distinct owners first: two taken keys may belong to one entry.
            for owner in dict.fromkeys(self._alias_of[key] for key in taken):
                self.unregister(owner)
        key = normalize_key(canonical)
        self._entries[key] = entry
        for alias_key in entry.lookup_keys():
            self._alias_of[alias_key] = key
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (looked up by canonical name or alias)."""
        key = self._alias_of.get(normalize_key(name))
        if key is None:
            raise ValueError(self._unknown_message(name))
        self._kwarg_rules.clear()
        entry = self._entries.pop(key)
        for alias_key in entry.lookup_keys():
            if self._alias_of.get(alias_key) == key:
                del self._alias_of[alias_key]

    # --------------------------------------------------------------- lookup
    def resolve(self, name: str) -> Tuple[RegistryEntry, str, Dict[str, Any]]:
        """Resolve a name to ``(entry, canonical_display, implied_kwargs)``.

        Exact (alias) matches win; otherwise each entry's ``match`` hook gets
        a chance to parse a dynamic name like ``"ADV+4"``.
        """
        key = normalize_key(name)
        canonical_key = self._alias_of.get(key)
        if canonical_key is not None:
            entry = self._entries[canonical_key]
            return entry, entry.canonical, {}
        for entry in self._entries.values():
            if entry.match is not None:
                result = entry.match(key)
                if result is not None:
                    display, implied = result
                    return entry, display, dict(implied)
        raise ValueError(self._unknown_message(name))

    def canonical_name(self, name: str) -> str:
        """Canonical display form of ``name`` (e.g. ``"q-adp"`` → ``"Q-adp"``)."""
        return self.resolve(name)[1]

    def get(self, name: str) -> RegistryEntry:
        return self.resolve(name)[0]

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except ValueError:
            return False
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegistryEntry]:
        return iter(self._entries.values())

    # -------------------------------------------------------------- listing
    def names(self) -> List[str]:
        """Canonical names in registration order.

        Every listed name resolves through :meth:`resolve` / :meth:`build`
        verbatim, and producing the list neither loads lazy factories nor
        instantiates anything.
        """
        return [entry.canonical for entry in self._entries.values()]

    def describe(self) -> List[Dict[str, Any]]:
        """One metadata row per entry (for ``repro-sim list ...``)."""
        rows = []
        for entry in self._entries.values():
            row: Dict[str, Any] = {"name": entry.canonical}
            if entry.aliases:
                row["aliases"] = list(entry.aliases)
            row.update(entry.metadata)
            rows.append(row)
        return rows

    # ------------------------------------------------------------- building
    def factory(self, name: str) -> Callable[..., Any]:
        """The factory behind a name, loading it lazily if needed."""
        return self.resolve(name)[0].load()

    def build(self, name: str, **kwargs) -> Any:
        """Instantiate the factory behind ``name``.

        Kwargs implied by a parameterised name (``"ADV+4"`` → ``shift=4``)
        conflict with explicit ones: passing both is an error rather than a
        silent override.
        """
        entry, display, implied = self.resolve(name)
        overlap = sorted(set(implied) & set(kwargs))
        if overlap:
            raise ValueError(
                f"{self.kind} {display!r} already fixes {overlap}; "
                "drop the explicit keyword(s) or use the base name"
            )
        return entry.load()(**implied, **kwargs)

    def signature(self, name: str) -> Dict[str, Any]:
        """Keyword arguments the factory accepts: ``{kwarg: default}``.

        Required arguments map to :data:`inspect.Parameter.empty`.  Loads the
        factory if it was registered lazily, but never instantiates it.
        """
        factory = self.factory(name)
        params: Dict[str, Any] = {}
        for parameter in inspect.signature(factory).parameters.values():
            if parameter.kind in (inspect.Parameter.VAR_POSITIONAL,
                                  inspect.Parameter.VAR_KEYWORD):
                continue
            params[parameter.name] = parameter.default
        return params

    def check_kwargs(self, name: str, kwargs: Mapping[str, Any], context: str) -> Dict[str, Any]:
        """``kwargs`` for the factory behind ``name``, checked without building
        it.  An unknown keyword is refused, naming the accepted ones, and so
        is a plain mapping given as ``params`` (the factory takes a
        hyper-parameter object: in a file, a mapping tagged ``__param__``).
        A number the factory declares in its ``_NUMBERS`` is normalised by
        that rule.  The rules are read once per name."""
        rules = self._kwarg_rules.get(name)
        if rules is None:
            rules = self._kwarg_rules[name] = _kwarg_rules(self.factory(name))
        accepted, tag, numbers, owner = rules
        if accepted is not None and not accepted.issuperset(kwargs):
            raise ValueError(
                f"{context}: {self.kind} {name!r} takes no keyword "
                f"{', '.join(map(repr, sorted(kwargs.keys() - accepted)))}; it accepts "
                f"{', '.join(map(repr, sorted(accepted))) or 'none'}")
        if tag is not None and isinstance(kwargs.get("params"), dict):
            raise ValueError(
                f"{context}: {self.kind} {name!r} takes params as a {PARAM_CODECS[tag][1]}, "
                f"not a plain mapping; in a file, tag the mapping with \"__param__\": {tag!r}")
        return {key: numbers[key].check(value, key, owner) if key in numbers else value
                for key, value in kwargs.items()}

    # ------------------------------------------------------------- internals
    def _unknown_message(self, name: str) -> str:
        return f"unknown {self.kind} {name!r}; known: {self.names()}"


#: what :meth:`Registry.check_kwargs` reads of a factory: the keywords it
#: takes (``None``: any), the ``__param__`` tag of its ``params`` type, its
#: ``_NUMBERS`` and its name.
_KwargRules = Tuple[Optional[FrozenSet[str]], Optional[str], Dict[str, Any], str]


def _kwarg_rules(factory: Callable[..., Any]) -> _KwargRules:
    """Read from the factory's code, without building it (and without
    ``inspect.signature``, whose first call costs more than a sweep's whole
    set-up of specs).  A ``params`` keyword takes the hyper-parameter class
    its annotation names; keywords caught by a ``**`` parameter are that
    class's, which they build."""
    accepted, any_more, annotations = _keywords(factory)
    annotation = str(annotations.get("params", ""))
    tag = next((tag for tag, (_, cls_name) in PARAM_CODECS.items()
                if "params" in accepted and cls_name in annotation), None)
    if any_more:
        if tag is None:
            return None, None, {}, factory.__name__
        accepted |= _keywords(vars(sys.modules[factory.__module__])[PARAM_CODECS[tag][1]])[0]
    return frozenset(accepted), tag, getattr(factory, "_NUMBERS", {}), factory.__name__


def _keywords(factory: Callable[..., Any]) -> Tuple[set, bool, Dict[str, Any]]:
    """The keywords ``factory`` names, whether a ``**`` parameter takes any
    other, and its annotations, read from its code (a factory without Python
    code takes any keyword)."""
    function = factory.__init__ if isinstance(factory, type) else factory
    code = getattr(function, "__code__", None)
    if code is None:
        return set(), True, {}
    names = code.co_varnames[isinstance(factory, type):code.co_argcount + code.co_kwonlyargcount]
    return set(names), bool(code.co_flags & inspect.CO_VARKEYWORDS), function.__annotations__
