"""Parallel execution runtime with fingerprint-keyed utility caching.

The hot loop of every method family in this repository — Shapley/Banzhaf
permutation sampling, leave-one-out, CPClean world enumeration, iterative
cleaning, sharded unlearning — is "retrain a model on a subset and score
it". This package turns that loop into shared infrastructure:

- :class:`Executor` backends (``serial`` / ``thread`` / ``process``) run
  task batches with identical semantics, so scores are backend-invariant.
- :class:`FingerprintCache` memoizes utility evaluations across
  estimators, runs, and (with a disk tier) processes.
- :mod:`~repro.runtime.progress` provides the progress/cancellation hook
  protocol long-running scoring jobs speak.
- :mod:`~repro.runtime.faults` makes long jobs survive failure:
  :class:`FaultPolicy` controls per-chunk retries/backoff/timeouts and
  broken-pool recovery, and :class:`TaskError` attributes an exhausted
  budget to its stage and chunk.
- :mod:`~repro.runtime.checkpoint` makes long jobs survive *driver*
  death: :class:`CheckpointStore` is a durable, crash-safe snapshot
  store (one fdatasync'ed journal line, content hash and schema version
  per record)
  and every long-running loop accepts ``checkpoint=`` / ``resume_from=``
  for bit-identical resumption after a kill.
- :class:`Runtime` bundles them into the single ``runtime=`` handle
  the compute layers accept.

Quick start::

    from repro.runtime import Runtime, FingerprintCache

    rt = Runtime(backend="process", cache=FingerprintCache())
    utility = Utility(model, X, y, Xv, yv, runtime=rt)
    values = MonteCarloShapley(n_permutations=100, seed=0).score(utility)
    print(rt.stats())   # backend, workers, cache counters

Timings and fault counts come from an attached
:class:`repro.observe.Observer` (``Runtime(..., observer=obs)``): one
``runtime.<stage>`` span per batch plus the ``executor.*`` counters.
"""

from repro.runtime.cache import (
    CacheStats,
    FingerprintCache,
    data_fingerprint,
    fingerprint,
)
from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointRecord,
    CheckpointStore,
    LoopCheckpointer,
    ShutdownRequested,
    flush_all,
    flush_on_shutdown,
    register_shutdown_flush,
    resolve_checkpoint_store,
    unregister_shutdown_flush,
)
from repro.runtime.executor import (
    BACKENDS,
    MAX_CHUNK_SIZE,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
)
from repro.runtime.faults import (
    DEFAULT_FAULT_POLICY,
    FaultEvent,
    FaultPolicy,
    TaskError,
    resolve_fault_policy,
)
from repro.runtime.progress import (
    CancellationToken,
    JobCancelled,
    ProgressEvent,
    ProgressRecorder,
    cancel_after,
)
from repro.runtime.runtime import (
    Runtime,
    close_all_runtimes,
    resolve_runtime,
)

__all__ = [
    "BACKENDS",
    "CHECKPOINT_SCHEMA",
    "DEFAULT_FAULT_POLICY",
    "MAX_CHUNK_SIZE",
    "CacheStats",
    "CancellationToken",
    "CheckpointRecord",
    "CheckpointStore",
    "Executor",
    "FaultEvent",
    "FaultPolicy",
    "FingerprintCache",
    "JobCancelled",
    "LoopCheckpointer",
    "ProcessExecutor",
    "ProgressEvent",
    "ProgressRecorder",
    "Runtime",
    "SerialExecutor",
    "ShutdownRequested",
    "TaskError",
    "ThreadExecutor",
    "cancel_after",
    "close_all_runtimes",
    "data_fingerprint",
    "fingerprint",
    "flush_all",
    "flush_on_shutdown",
    "get_executor",
    "register_shutdown_flush",
    "resolve_checkpoint_store",
    "resolve_fault_policy",
    "resolve_runtime",
    "unregister_shutdown_flush",
]
