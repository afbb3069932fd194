"""Versioned model artifacts: durable, reloadable fitted synthesizers.

A :class:`ModelArtifact` is a single directory:

* ``manifest.json`` -- format version, model class, human-readable config
  summary, fit metadata supplied by the caller, and the file inventory;
* one ``<name>.npz`` per network (via the engine's checkpoint machinery,
  so the weight files are byte-compatible with training checkpoints);
* the model's :meth:`~repro.core.base.Synthesizer.artifact_state` blob:
  transformer encoders, the condition sampler's integer-code tables, and
  the knowledge-graph reasoner, stored as a pickle-free ``state.npz``
  (:mod:`repro.serve.codec`) that is safe to load from untrusted peers.
  This is **format v2**, the only format written or read: a format v1
  artifact (a pickled ``state.pkl``) is rejected without being unpickled.

The headline invariant (enforced by ``tests/serve/test_artifacts.py``,
including across processes): for every registered model class,
``load_model(save_model(m)).sample(n, seed)`` is bit-identical to
``m.sample(n, seed)``.

The on-disk layout, the trust model, and the v1 -> v2 migration story are
specified in ``docs/artifact-format.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core.base import Synthesizer
from repro.engine.checkpoint import CheckpointError, load_networks, save_networks
from repro.serve.codec import StateCodecError, load_state_npz, save_state_npz

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "MANIFEST_NAME",
    "STATE_NAME",
    "ArtifactError",
    "ModelArtifact",
    "model_registry",
    "save_model",
    "load_model",
]

#: The format written by :func:`save_model`.  Bumped when the on-disk
#: artifact layout changes incompatibly.
ARTIFACT_FORMAT_VERSION = 2

#: Formats :func:`load_model` can read.  v1 (a pickled ``state.pkl``) is
#: rejected: unpickling executes code, so it is never attempted.
SUPPORTED_FORMAT_VERSIONS = (2,)

MANIFEST_NAME = "manifest.json"

#: The state file: self-describing npz, loaded with ``allow_pickle=False``.
STATE_NAME = "state.npz"


class ArtifactError(RuntimeError):
    """A model artifact is missing, incomplete or incompatible."""


def model_registry() -> dict[str, type]:
    """Model classes loadable from an artifact, keyed by class name.

    Resolved lazily so :mod:`repro.serve` stays importable without pulling
    the whole model zoo in at import time.
    """
    from repro.baselines import CTGAN, OCTGAN, PATEGAN, TVAE, IndependentSampler, TableGAN
    from repro.core import KiNETGAN

    return {
        cls.__name__: cls
        for cls in (KiNETGAN, CTGAN, OCTGAN, TVAE, TableGAN, PATEGAN, IndependentSampler)
    }


@dataclass(frozen=True)
class ModelArtifact:
    """A validated on-disk artifact (manifest parsed, files checked)."""

    directory: Path
    manifest: dict

    @property
    def format_version(self) -> int:
        return int(self.manifest["format_version"])

    @property
    def model_class(self) -> str:
        return str(self.manifest["model_class"])

    @property
    def networks(self) -> list[str]:
        return list(self.manifest.get("networks", []))

    @property
    def metadata(self) -> dict:
        return dict(self.manifest.get("metadata", {}))

    @property
    def dtype(self) -> str | None:
        """The networks' parameter dtype name, or None for older artifacts.

        Artifacts written before the mixed-precision tier carry no
        ``dtype`` key; they are all float64 and load unchanged.
        """
        value = self.manifest.get("dtype")
        return None if value is None else str(value)

    @property
    def state_path(self) -> Path:
        """Path of the ``state.npz`` state blob."""
        return self.directory / self.manifest.get("state_file", STATE_NAME)

    @classmethod
    def open(cls, directory: str | Path) -> "ModelArtifact":
        """Parse and validate an artifact directory's manifest.

        Accepts every format in :data:`SUPPORTED_FORMAT_VERSIONS`; rejects
        v1 and unknown versions, missing manifests and missing state files
        with an :class:`ArtifactError` naming the problem.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ArtifactError(f"no artifact manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise ArtifactError(f"unreadable artifact manifest {manifest_path}: {error}")
        version = manifest.get("format_version")
        if version == 1:
            raise ArtifactError(
                f"artifact at {directory} is format v1 (a pickled state.pkl), which this "
                "build never unpickles; re-save the artifact with a release that reads v1 "
                "(save_model(load_model(old_dir), new_dir) there writes v2)"
            )
        if version not in SUPPORTED_FORMAT_VERSIONS:
            raise ArtifactError(
                f"artifact at {directory} has format version {version!r}; this build "
                f"supports versions {list(SUPPORTED_FORMAT_VERSIONS)}"
            )
        if "model_class" not in manifest:
            raise ArtifactError(f"artifact manifest {manifest_path} names no model class")
        artifact = cls(directory=directory, manifest=manifest)
        if not artifact.state_path.exists():
            raise ArtifactError(f"artifact at {directory} is missing its state file")
        return artifact


def _network_dtypes(networks: dict) -> set[str]:
    """Dtype names of every network that reports one (normally exactly one)."""
    return {
        np.dtype(network.dtype).name
        for network in networks.values()
        if getattr(network, "dtype", None) is not None
    }


def save_model(
    model: Synthesizer,
    directory: str | Path,
    metadata: dict | None = None,
) -> ModelArtifact:
    """Persist a fitted synthesizer as a versioned artifact directory.

    Writes format v2: network weights as per-network ``.npz`` checkpoints
    plus a pickle-free ``state.npz`` state blob.

    ``metadata`` is caller-supplied fit provenance (dataset name, row count,
    epochs, ...) recorded verbatim in the manifest; it must be
    JSON-serialisable.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    networks = model.artifact_networks()
    save_networks(networks, directory)
    state = model.artifact_state()
    try:
        save_state_npz(state, directory / STATE_NAME)
    except StateCodecError as error:
        raise ArtifactError(f"cannot encode {type(model).__name__} state: {error}")
    manifest = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "model_class": type(model).__name__,
        "model_name": model.name,
        "repro_version": __version__,
        "networks": sorted(networks),
        "state_file": STATE_NAME,
        "metadata": dict(metadata or {}),
    }
    dtypes = _network_dtypes(networks)
    if len(dtypes) == 1:
        manifest["dtype"] = next(iter(dtypes))
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return ModelArtifact(directory=directory, manifest=manifest)


def load_model(directory: str | Path) -> Synthesizer:
    """Load a fitted synthesizer from an artifact directory.

    Validates the manifest (supported format version, known model class),
    restores the non-network state through the model's ``restore_state``,
    then loads the network weights through the checkpoint machinery, which
    reports missing or mismatched networks with one clear error.

    State blobs are decoded with ``allow_pickle=False`` end to end (see
    :mod:`repro.serve.codec`), so loading an artifact received from an
    untrusted peer can fail but never execute code.
    """
    artifact = ModelArtifact.open(directory)
    registry = model_registry()
    if artifact.model_class not in registry:
        raise ArtifactError(
            f"artifact at {artifact.directory} was saved by unknown model class "
            f"{artifact.model_class!r}; known classes: {sorted(registry)}"
        )
    state_path = artifact.state_path
    try:
        state = load_state_npz(state_path)
    except (StateCodecError, ValueError, OSError) as error:
        raise ArtifactError(f"corrupt artifact state at {state_path}: {error}")
    model = registry[artifact.model_class]()
    try:
        model.restore_state(state)
    except (KeyError, TypeError, ValueError, IndexError) as error:
        raise ArtifactError(
            f"malformed {artifact.model_class} state in artifact at "
            f"{artifact.directory}: {type(error).__name__}: {error}"
        )
    networks = model.artifact_networks()
    try:
        load_networks(networks, artifact.directory)
    except CheckpointError as error:
        raise ArtifactError(str(error))
    declared = artifact.dtype
    if declared is not None:
        restored = _network_dtypes(networks)
        if restored and restored != {declared}:
            raise ArtifactError(
                f"artifact at {artifact.directory} declares dtype {declared!r} but its "
                f"restored networks run in {sorted(restored)}; the manifest and the "
                "saved configuration disagree"
            )
    return model
