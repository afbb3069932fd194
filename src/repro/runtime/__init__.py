"""The execution plane of the multi-node layers.

The paper's deployment story is *distributed*: many devices train
synthesizers and detectors at once.  Everything below the federated /
distributed simulations is already vectorized (PR 2) and unified behind one
training engine (PR 1); this subsystem fans independent per-client /
per-node work units out over pluggable executors -- and, since the
zero-copy refactor, lets round-based workloads keep their heavy state
*resident in the plane* instead of re-shipping it every round.

Design rules (every call site follows them, new ones must too):

1. **Work units are payloads, not closures.**  A payload is a picklable
   object (dataclass of refs + seeds + small deltas) handed to a
   *module-level* function, so it survives the pickle round-trip of a
   process pool under any start method.  Payloads live next to the layer
   that owns them (:mod:`repro.federated.client` defines its round task,
   the distributed simulation its node task); this package only provides
   the executors, the resident-state transport and the seeding discipline.
2. **Split payloads into resident state and per-round delta.**  Anything a
   work unit needs on *every* round but that never changes between rounds
   (a client's feature partition, a whole KiNETGAN site, a node pipeline,
   a shared test table) is installed once with :meth:`Executor.install`
   and addressed by the returned :class:`~repro.runtime.state.StateRef`;
   the per-round payload carries only refs, a spawned round seed and the
   flattened parameter delta.  Broadcast/result parameter matrices travel
   through :meth:`Executor.shared_array`
   (:class:`multiprocessing.shared_memory` under the process executor, the
   parent's own arrays under serial/thread), allocated per flat stream by
   :class:`repro.federated.parameters.FlatChannel`, so steady-state rounds
   ship only the bytes that changed.
3. **Child seeds are spawned in the parent.**  Every payload carries a
   :class:`numpy.random.SeedSequence` child spawned *before* dispatch, so
   the randomness a work unit consumes depends only on (parent seed, spawn
   index) -- never on which process or thread runs it or in which order
   results arrive.  Serial, thread and process execution are therefore
   bit-identical; the parity tests in ``tests/runtime/`` enforce this.
4. **Order in, order out.**  :meth:`Executor.map` always returns results in
   submission order, whatever the completion order was.

Pick an executor with :func:`resolve_executor` (``None``/``"serial"``/``0``/
``1`` -> in-process, ``N > 1`` / ``"process[:N]"`` -> a persistent process
pool, ``"thread[:N]"`` -> a persistent thread pool with zero pickling) or
construct :class:`SerialExecutor` / :class:`ThreadExecutor` /
:class:`ProcessExecutor` directly; all three are context managers.  The CLI
and the example scripts expose the same knob as ``--workers``.
"""

from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_worker_count,
    map_with_quorum,
    resolve_executor,
)
from repro.runtime.faults import (
    FaultDecision,
    FaultInjector,
    InjectedFault,
    QuorumError,
    StragglerTimeout,
    TaskDropped,
    TaskFailure,
    TaskPolicy,
    TaskResult,
    WorkerCrash,
)
from repro.runtime.seeding import spawn_seeds
from repro.runtime.state import (
    BufferRef,
    SharedBuffer,
    StateRef,
    StateStore,
    worker_store,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "default_worker_count",
    "map_with_quorum",
    "resolve_executor",
    "spawn_seeds",
    "StateRef",
    "BufferRef",
    "SharedBuffer",
    "StateStore",
    "worker_store",
    "FaultDecision",
    "FaultInjector",
    "InjectedFault",
    "QuorumError",
    "StragglerTimeout",
    "TaskDropped",
    "TaskFailure",
    "TaskPolicy",
    "TaskResult",
    "WorkerCrash",
]
