"""Model serving: versioned artifacts, a batched sampling service, HTTP.

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
* :mod:`repro.serve.service` -- :class:`SamplingService`, which loads
  artifacts into an LRU :class:`ModelRegistry` (optionally warmed in
  parallel over :mod:`repro.runtime` executors), micro-batches concurrent
  ``sample(n, conditions)`` requests through the blocked share step and
  one decode, and streams large requests in bounded-memory chunks.
* :mod:`repro.serve.server` -- the HTTP front-end:
  :class:`SamplingHTTPServer` over a :class:`ServingPool` of executor
  workers sharing one resident copy of each model, with a bounded
  admission queue (429 + ``Retry-After``), per-artifact concurrency
  limits, request deadlines and graceful drain.  :func:`request_samples`
  is the matching stdlib client.

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
    fetch_json,
    request_samples,
)
from repro.serve.service import ModelRegistry, SampleRequest, SamplingService

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "ArtifactError",
    "ModelArtifact",
    "ModelRegistry",
    "SampleRequest",
    "SamplingHTTPServer",
    "SamplingService",
    "ServingPool",
    "StateCodecError",
    "StateDecodeError",
    "StateEncodeError",
    "fetch_json",
    "load_model",
    "model_registry",
    "request_samples",
    "save_model",
]
