"""Artifact store: on-disk lifecycle of learned routing state.

Learned routing policies (the Q-tables of Q-adaptive and Q-routing) are
expensive to converge and cheap to store.  This subsystem persists them as
*checkpoints* — ``.npz`` array payloads with a JSON manifest — so that a
policy is trained once and reused across load points, seeds, traffic
patterns, and sessions:

* :class:`Checkpoint` — one on-disk checkpoint (load / apply / validate).
* :class:`CheckpointManifest` — the metadata sidecar (schema-versioned).
* :class:`ArtifactStore` — a directory of checkpoints with save / load /
  list / inspect / prune and a spec-fingerprint index.

Entry points above this layer: ``ExperimentSpec(warm_start=...)``,
:func:`repro.experiments.harness.train_experiment`, staged studies
(:class:`repro.scenarios.study.TrainStage`), and the ``repro-sim train`` /
``repro-sim checkpoint`` CLI verbs.
"""

from repro.store.artifact import (
    DEFAULT_STORE_DIR,
    MANIFEST_SCHEMA_VERSION,
    ArtifactStore,
    Checkpoint,
    CheckpointManifest,
    read_state_digest,
    resolve_store,
)

__all__ = [
    "ArtifactStore",
    "Checkpoint",
    "CheckpointManifest",
    "DEFAULT_STORE_DIR",
    "MANIFEST_SCHEMA_VERSION",
    "read_state_digest",
    "resolve_store",
]
