"""Model serving: versioned artifacts, one serving pool, HTTP.

The training layers produce fitted synthesizers; this package makes them
*durable*, *servable* and *reachable over the network*:

* :mod:`repro.serve.artifact` -- the versioned :class:`ModelArtifact`
  directory format (``manifest.json`` + per-network ``.npz`` weights + the
  transformer / condition-sampler / knowledge state) with
  :func:`save_model` / :func:`load_model` for KiNETGAN and every baseline.
  Artifacts are format v2: state is a pickle-free ``state.npz``
  (:mod:`repro.serve.codec`) safe to load from untrusted peers; v1
  artifacts (a pickled ``state.pkl``) are rejected, never unpickled.
  The contract:
  ``load_model(save_model(m)).sample(n, seed)`` is bit-identical to
  ``m.sample(n, seed)``, in-process and across processes.
* :mod:`repro.serve.server` -- :class:`ServingPool`, the one serving
  path: executor workers sharing one resident copy of each model.
  ``repro serve`` runs its requests through it in-process, and the HTTP
  front-end :class:`SamplingHTTPServer` runs each admitted request
  through it behind a bounded admission queue (429 + ``Retry-After``),
  per-artifact concurrency limits, request deadlines and graceful drain.
  :func:`request_samples` is the matching stdlib client.
* :mod:`repro.serve.service` -- :func:`sample_stream`, which yields a
  loaded model's large sample in bounded-memory chunks (``repro
  sample``).

Exposed on the CLI as ``repro save``, ``repro sample --artifact`` and
``repro serve [--http]``.  Documentation: ``docs/serving.md`` (operator
runbook), ``docs/artifact-format.md`` (on-disk format + trust model).
"""

from repro.serve.artifact import (
    ARTIFACT_FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    ArtifactError,
    ModelArtifact,
    load_model,
    model_registry,
    save_model,
)
from repro.serve.codec import StateCodecError, StateDecodeError, StateEncodeError
from repro.serve.server import (
    SamplingHTTPServer,
    ServingPool,
    check_conditions,
    fetch_json,
    request_samples,
)
from repro.serve.service import sample_stream

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "ArtifactError",
    "ModelArtifact",
    "SamplingHTTPServer",
    "ServingPool",
    "StateCodecError",
    "StateDecodeError",
    "StateEncodeError",
    "check_conditions",
    "fetch_json",
    "load_model",
    "model_registry",
    "request_samples",
    "sample_stream",
    "save_model",
]
