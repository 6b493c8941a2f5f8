"""Declarative scenario API: registries, serializable specs, and studies.

Layers (lowest first):

* :mod:`repro.scenarios.registry` — the unified :class:`Registry` adopted by
  ``repro.routing`` and ``repro.traffic`` (and by the study catalog).
* :mod:`repro.scenarios.serialize` — the versioned ``to_dict``/``from_dict``
  protocol shared by every serializable object.
* :mod:`repro.scenarios.study` — :class:`Scenario` grids composed into a
  :class:`Study`, expanded into :class:`~repro.experiments.harness.ExperimentSpec`
  lists and executed through :class:`~repro.experiments.parallel.SweepRunner`.
* :mod:`repro.scenarios.catalog` — every paper figure/ablation as a named,
  exportable study (``repro-sim study list``), and :func:`figure`, which
  runs one and lays out its data (``repro-sim figure``).

Only the dependency-free modules are imported eagerly; :mod:`.study` and
:mod:`.catalog` sit *above* the experiment harness in the import graph, so
they are loaded lazily (PEP 562) — this lets ``repro.routing`` /
``repro.traffic`` import the registry without creating an import cycle.
"""

from __future__ import annotations

from repro.scenarios.registry import Registry, RegistryEntry, normalize_key
from repro.scenarios.serialize import SPEC_SCHEMA_VERSION, STUDY_SCHEMA_VERSION

__all__ = [
    "Registry",
    "RegistryEntry",
    "SPEC_SCHEMA_VERSION",
    "STUDIES",
    "STUDY_SCHEMA_VERSION",
    "Scenario",
    "Study",
    "StudyPoint",
    "StudyResult",
    "TrainStage",
    "available_studies",
    "figure",
    "figure_names",
    "load_study",
    "normalize_key",
    "register_study",
    "study_by_name",
]

_LAZY = {
    "STUDIES": "repro.scenarios.catalog",
    "Scenario": "repro.scenarios.study",
    "Study": "repro.scenarios.study",
    "StudyPoint": "repro.scenarios.study",
    "StudyResult": "repro.scenarios.study",
    "TrainStage": "repro.scenarios.study",
    "available_studies": "repro.scenarios.catalog",
    "figure": "repro.scenarios.catalog",
    "figure_names": "repro.scenarios.catalog",
    "load_study": "repro.scenarios.catalog",
    "register_study": "repro.scenarios.catalog",
    "study_by_name": "repro.scenarios.catalog",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(module_name), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
