"""On-disk persistence of learned routing state: checkpoints and the store.

A *checkpoint* is one directory holding two files:

* ``state.npz`` — the numeric payload of
  :meth:`~repro.core.marl.TabularMarlRouting.export_state`: the
  ``[routers, rows, cols]`` value block and the per-router update counters.
* ``manifest.json`` — everything needed to decide whether the state may be
  loaded, *without* touching the arrays: a schema version, the routing name
  and table design, the topology it was trained on, the learning
  hyper-parameters, the trained simulated time, and (when known) the spec
  fingerprint of the producing run.

The :class:`ArtifactStore` manages a directory of checkpoints keyed by id
(content-derived by default, or a caller-chosen tag), with list / inspect /
prune operations and a fingerprint index used by
:func:`~repro.experiments.harness.train_experiment` to skip re-training.

Checkpoints are self-describing: :meth:`Checkpoint.load` works on any
checkpoint directory, inside a store or not, which is what lets
``ExperimentSpec.warm_start`` carry a plain path that worker processes can
resolve without pickling arrays across the process boundary.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.scenarios.serialize import INTEGER, Codec, Form, Number

if TYPE_CHECKING:  # circular at runtime: routing/harness import the store
    from repro.experiments.harness import ExperimentSpec
    from repro.routing.base import RoutingAlgorithm

#: schema version of a checkpoint manifest document.
MANIFEST_SCHEMA_VERSION = 1

#: default location of the on-disk checkpoint store, relative to the CWD
#: (sibling of the experiment result cache).
DEFAULT_STORE_DIR = Path(".cache") / "checkpoints"

_MANIFEST_NAME = "manifest.json"
_STATE_NAME = "state.npz"


@dataclass(frozen=True)
class CheckpointManifest(Codec):
    """Sidecar metadata of one checkpoint (everything except the arrays)."""

    checkpoint_id: str
    routing: str
    #: family-tagged topology dims (``{"family": ..., **config dims}``).
    topology: Dict[str, Any]
    table_kind: str
    state_version: int
    table_version: int
    first_port: int
    hyperparams: Dict[str, Any] = field(default_factory=dict)
    trained_sim_ns: float = 0.0
    feedback_sent: int = 0
    feedback_applied: int = 0
    spec_fingerprint: Optional[str] = None
    spec: Optional[Dict[str, Any]] = None
    created_at: Optional[str] = None
    #: full content hash of the state payload; result-cache fingerprints of
    #: warm-started specs fold this in, so overwriting a checkpoint in place
    #: (same path, new state) invalidates their cached results.
    state_digest: Optional[str] = None

    _NUMBERS = {"state_version": INTEGER, "table_version": INTEGER, "first_port": INTEGER,
                "trained_sim_ns": Number(float), "feedback_sent": INTEGER,
                "feedback_applied": INTEGER}
    #: a versioned document that always states its hyper-parameters.
    _FORM = Form(schema=MANIFEST_SCHEMA_VERSION, always=("hyperparams",))


class Checkpoint:
    """One on-disk checkpoint: a manifest plus lazily-loaded table arrays."""

    def __init__(self, path: Path, manifest: CheckpointManifest) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self._state: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------- disk
    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "Checkpoint":
        """Open a checkpoint directory (raises with the path on any problem)."""
        path = Path(path)
        manifest_path = path / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"{path} is not a checkpoint: missing {_MANIFEST_NAME} "
                "(expected a directory written by ArtifactStore.save)"
            )
        try:
            data = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"{manifest_path} is not a readable manifest: {exc}") from exc
        return cls(path, CheckpointManifest.from_dict(data))

    @classmethod
    def write(cls, path: Union[str, os.PathLike], state: Mapping[str, Any],
              manifest: CheckpointManifest) -> "Checkpoint":
        """Write ``state`` + ``manifest`` atomically into directory ``path``.

        The checkpoint is assembled in a temporary sibling directory and
        renamed into place, so a crash never leaves a half-written checkpoint
        where the store would later find it.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(dir=path.parent, prefix=".ckpt-"))
        try:
            np.savez_compressed(
                staging / _STATE_NAME,
                values=np.asarray(state["values"], dtype=np.float64),
                updates=np.asarray(state["updates"], dtype=np.int64),
            )
            (staging / _MANIFEST_NAME).write_text(
                json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            if path.exists():
                shutil.rmtree(path)
            os.replace(staging, path)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return cls(path, manifest)

    # ------------------------------------------------------------------ state
    def state(self) -> Dict[str, Any]:
        """The full ``import_state`` payload (arrays loaded on first access).

        A manifest carrying a ``state_digest`` is checked against the loaded
        payload, so a ``state.npz`` torn or swapped in place is rejected
        instead of silently warm-starting runs cached under the old digest.
        """
        if self._state is None:
            manifest = self.manifest
            state_path = self.path / _STATE_NAME
            try:
                with np.load(state_path) as arrays:
                    values = arrays["values"]
                    updates = arrays["updates"]
            except (OSError, KeyError, ValueError) as exc:
                raise ValueError(
                    f"{state_path} is not a readable checkpoint payload: {exc}"
                ) from exc
            state: Dict[str, Any] = {
                "version": manifest.state_version,
                "routing": manifest.routing,
                "topology": dict(manifest.topology),
                "table_version": manifest.table_version,
                "table_kind": manifest.table_kind,
                "first_port": manifest.first_port,
                "hyperparams": dict(manifest.hyperparams),
                "values": values,
                "updates": updates,
                "feedback_sent": manifest.feedback_sent,
                "feedback_applied": manifest.feedback_applied,
            }
            if (manifest.state_digest is not None
                    and ArtifactStore.state_digest(state) != manifest.state_digest):
                raise ValueError(
                    f"{state_path} does not match its manifest's state_digest: "
                    "the checkpoint payload was modified or torn after it was saved"
                )
            self._state = state
        return self._state

    # ------------------------------------------------------------ application
    def check_compatible(self, routing: str, topology: Mapping[str, Any]) -> None:
        """Raise a descriptive :class:`ValueError` unless this checkpoint may
        be loaded into an algorithm ``routing`` on ``topology``.

        ``topology`` is the family-tagged dict form of a config
        (:func:`repro.topology.registry.config_to_dict`); the manifest's
        topology block must carry ``"family"`` too.
        """
        manifest = self.manifest
        if manifest.routing != routing:
            raise ValueError(
                f"checkpoint {self.path} was trained with routing "
                f"{manifest.routing!r}; it cannot warm-start a {routing!r} run"
            )
        trained = dict(manifest.topology)
        if "family" not in trained:
            raise ValueError(
                f"checkpoint {self.path}: manifest topology block {trained} "
                "is missing required field 'family'"
            )
        requested = dict(topology)
        if trained != requested:
            what = ("topology families" if trained["family"] != requested["family"]
                    else "topologies")
            raise ValueError(
                f"checkpoint {self.path} was trained on topology {trained}; "
                f"this run uses {requested} — learned tables do not transfer "
                f"across {what}"
            )

    def apply(self, routing_algorithm: "RoutingAlgorithm") -> None:
        """Load this checkpoint into an attached routing algorithm."""
        from repro.engine.batch.model import is_learned

        if not is_learned(routing_algorithm.name):
            raise ValueError(
                f"routing algorithm {routing_algorithm.name!r} has no learned "
                "state to restore"
            )
        routing_algorithm.import_state(self.state())

    @property
    def checkpoint_id(self) -> str:
        return self.manifest.checkpoint_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Checkpoint id={self.manifest.checkpoint_id!r} "
                f"routing={self.manifest.routing!r} path={str(self.path)!r}>")


class ArtifactStore:
    """A directory of named checkpoints with list / inspect / prune operations.

    Layout: ``<root>/<checkpoint_id>/{manifest.json,state.npz}``.  Ids are
    either caller-chosen tags or content-derived
    (``<routing-slug>-<digest12>``), so re-saving identical state is a no-op
    that lands on the same id.
    """

    def __init__(self, root: Union[str, os.PathLike] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)

    # -------------------------------------------------------------------- ids
    @staticmethod
    def _slug(name: str) -> str:
        return "".join(ch if ch.isalnum() else "-" for ch in name.lower()).strip("-")

    @staticmethod
    def validate_id(checkpoint_id: str) -> str:
        """Reject ids that are not safe single path components.

        A checkpoint id becomes a directory name under the store root; an
        empty id would resolve to the root itself (and saving would replace
        the entire store), and separators/``..`` would escape it.
        """
        if (not checkpoint_id or not isinstance(checkpoint_id, str)
                or checkpoint_id in (".", "..")
                or any(sep in checkpoint_id for sep in ("/", "\\", os.sep))
                or checkpoint_id.startswith(".")):
            raise ValueError(
                f"invalid checkpoint id {checkpoint_id!r}: must be a non-empty "
                "name without path separators (it becomes a directory under "
                "the store root)"
            )
        return checkpoint_id

    @staticmethod
    def state_digest(state: Mapping[str, Any]) -> str:
        """Full content hash of a state payload (stable across processes)."""
        import hashlib

        hasher = hashlib.sha256()
        hasher.update(np.ascontiguousarray(
            np.asarray(state["values"], dtype=np.float64)).tobytes())
        core = {
            "routing": state.get("routing"),
            "topology": state.get("topology"),
            "table_kind": state.get("table_kind"),
        }
        hasher.update(json.dumps(core, sort_keys=True).encode("utf-8"))
        return hasher.hexdigest()

    def path_of(self, checkpoint_id: str) -> Path:
        return self.root / checkpoint_id

    # ------------------------------------------------------------------- save
    def save(
        self,
        state: Mapping[str, Any],
        *,
        trained_sim_ns: float = 0.0,
        spec: Optional["ExperimentSpec"] = None,
        name: Optional[str] = None,
    ) -> Checkpoint:
        """Persist an ``export_state`` payload (from either engine) as a checkpoint.

        ``spec`` (an :class:`~repro.experiments.harness.ExperimentSpec`, when
        available) records the producing run in the manifest with its cache
        fingerprint, so later training requests for the same spec can reuse it.
        ``name`` overrides the content-derived id (an existing checkpoint
        under that name is replaced).
        """
        spec_dict = None
        spec_fingerprint = None
        if spec is not None:
            from repro.experiments.parallel import spec_fingerprint as fingerprint_of

            spec_dict = spec.to_dict()
            spec_fingerprint = fingerprint_of(spec)
        routing = state.get("routing")
        digest = self.state_digest(state)
        if name is not None:
            checkpoint_id = self.validate_id(name)
        else:
            checkpoint_id = f"{self._slug(str(routing))}-{digest[:12]}"
        manifest = CheckpointManifest(
            checkpoint_id=checkpoint_id,
            routing=str(routing),
            topology=dict(state["topology"]),
            table_kind=str(state["table_kind"]),
            state_version=state["version"],
            table_version=state.get("table_version", 1),
            first_port=state["first_port"],
            hyperparams=dict(state.get("hyperparams", {})),
            trained_sim_ns=trained_sim_ns,
            feedback_sent=state.get("feedback_sent", 0),
            feedback_applied=state.get("feedback_applied", 0),
            spec_fingerprint=spec_fingerprint,
            spec=spec_dict,
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            state_digest=digest,
        )
        return Checkpoint.write(self.path_of(checkpoint_id), state, manifest)

    # ------------------------------------------------------------------- load
    def load(self, ref: Union[str, os.PathLike]) -> Checkpoint:
        """Open a checkpoint by store id or by filesystem path."""
        candidate = self.path_of(str(ref))
        if (candidate / _MANIFEST_NAME).is_file():
            return Checkpoint.load(candidate)
        path = Path(ref)
        if (path / _MANIFEST_NAME).is_file():
            return Checkpoint.load(path)
        known = sorted(m.checkpoint_id for m in self.list())
        raise FileNotFoundError(
            f"no checkpoint {ref!r} in store {self.root} "
            f"(known ids: {known if known else 'none'}) and no checkpoint "
            "directory at that path"
        )

    def exists(self, checkpoint_id: str) -> bool:
        return (self.path_of(checkpoint_id) / _MANIFEST_NAME).is_file()

    # ---------------------------------------------------------------- queries
    def _entries(self) -> Iterator[Path]:
        """Checkpoint directories of the store, in sorted order.

        Dot-prefixed entries are excluded: they are `Checkpoint.write`
        staging directories (prefix ``.ckpt-``) that a crash may leave
        behind, never published checkpoints (`validate_id` forbids leading
        dots) — surfacing one would hand out a path `os.replace` might rip
        away or duplicate a checkpoint mid-write.
        """
        if not self.root.is_dir():
            return
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and not entry.name.startswith("."):
                yield entry

    def list(self) -> List[CheckpointManifest]:
        """Manifests of every checkpoint in the store, sorted by id.

        Unreadable entries are skipped (a corrupted checkpoint must not take
        down ``checkpoint list``); they still occupy disk until pruned.
        """
        manifests = []
        for entry in self._entries():
            if not (entry / _MANIFEST_NAME).is_file():
                continue
            try:
                manifests.append(Checkpoint.load(entry).manifest)
            except (ValueError, OSError):
                continue
        return manifests

    def find_by_fingerprint(self, spec_fingerprint: str) -> Optional[Checkpoint]:
        """The checkpoint produced by the run with this spec fingerprint."""
        for entry in self._entries():
            if not (entry / _MANIFEST_NAME).is_file():
                continue
            try:
                checkpoint = Checkpoint.load(entry)
            except (ValueError, OSError):
                continue
            if checkpoint.manifest.spec_fingerprint == spec_fingerprint:
                return checkpoint
        return None

    # ------------------------------------------------------------------ prune
    def remove(self, checkpoint_id: str) -> bool:
        """Delete one checkpoint; returns whether anything was removed."""
        path = self.path_of(self.validate_id(checkpoint_id))
        if path.is_dir():
            shutil.rmtree(path)
            return True
        return False

    def prune(self, keep: Sequence[str] = ()) -> List[str]:
        """Delete every checkpoint not named in ``keep``; returns removed ids.

        Walks the store directory itself (not :meth:`list`), so corrupted
        entries — unreadable manifests, missing payloads — are reclaimed
        too, along with ``.ckpt-*`` staging directories a crash left behind.
        """
        keep_set = set(keep)
        removed = []
        if not self.root.is_dir():
            return removed
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir():
                continue
            if entry.name.startswith("."):
                shutil.rmtree(entry, ignore_errors=True)  # stale staging dir
                removed.append(entry.name)
                continue
            if entry.name in keep_set:
                continue
            shutil.rmtree(entry)
            removed.append(entry.name)
        return removed

    def __len__(self) -> int:
        return len(self.list())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArtifactStore root={str(self.root)!r}>"


def resolve_store(store: Union[None, str, os.PathLike, ArtifactStore]) -> ArtifactStore:
    """Coerce a store argument (``None`` → default directory) to a store."""
    if isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(DEFAULT_STORE_DIR if store is None else store)


def read_state_digest(path: Union[str, os.PathLike]) -> Optional[str]:
    """The ``state_digest`` of a checkpoint directory, or ``None``.

    A cheap manifest-only read used by
    :func:`~repro.experiments.parallel.spec_fingerprint` to bind warm-started
    cache entries to the checkpoint's *content*: any unreadable/absent
    manifest returns ``None`` (the fingerprint then covers only the path, and
    the run itself fails with the full diagnostic if the checkpoint really is
    broken)."""
    try:
        data = json.loads(
            (Path(path) / _MANIFEST_NAME).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
        return None
    digest = data.get("state_digest") if isinstance(data, dict) else None
    return digest if isinstance(digest, str) else None
