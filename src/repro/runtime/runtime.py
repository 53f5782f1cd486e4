"""The :class:`Runtime` facade — executor + cache + hooks in one handle.

Every compute layer (``Utility``, the importance estimators, CPClean,
iterative cleaning, sharded unlearning) takes a ``runtime=`` argument and
submits its batches here instead of looping inline. One object therefore
decides, for a whole experiment, *where* work runs (backend), *what* is
memoized (fingerprint cache), *how* the job reports and aborts
(progress hook / cancellation token), and *how it survives failures*
(the :class:`~repro.runtime.FaultPolicy` applied to every batch) — and
it accumulates wall-time per stage so reports can show where the budget
went.
"""

from __future__ import annotations

import weakref

from repro.core.exceptions import ValidationError
from repro.observe.observer import resolve_observer
from repro.runtime.cache import FingerprintCache
from repro.runtime.executor import Executor, get_executor
from repro.runtime.faults import resolve_fault_policy
from repro.runtime.progress import StageTimer, _Stopwatch

_LIVE_RUNTIMES: "weakref.WeakSet[Runtime]" = weakref.WeakSet()

#: Placeholder marking a key claimed by an in-batch duplicate while its
#: one evaluation is still pending (see :meth:`Runtime.map_cached`).
_PENDING = object()

#: FaultEvent.kind -> the observer counter it increments.
_FAULT_COUNTERS = {
    "retry": "executor.retries",
    "worker_crash": "executor.worker_crashes",
    "timeout": "executor.timeouts",
    "degraded": "executor.degraded_runs",
}


class Runtime:
    """Execution policy for coalition-scoring workloads.

    Parameters
    ----------
    backend:
        ``"serial"`` | ``"thread"`` | ``"process"`` or an
        :class:`~repro.runtime.executor.Executor` instance.
    max_workers:
        Worker count for pooled backends (defaults to the CPU count).
    chunk_size:
        Tasks per submitted chunk; auto-sized when omitted.
    cache:
        ``True`` for a fresh in-memory :class:`FingerprintCache`, an
        existing cache instance (shareable across runtimes), or ``None``
        / ``False`` (the default) to disable cross-call memoization.
    progress:
        ``callable(ProgressEvent)`` fired per completed chunk.
    cancel:
        :class:`~repro.runtime.progress.CancellationToken` polled between
        chunks; tripping it raises ``JobCancelled`` from the running job.
    observer:
        Optional :class:`repro.observe.Observer`. Every :meth:`map` call
        then opens a ``runtime.<stage>`` span carrying backend/worker
        metadata and the fingerprint-cache hit/miss delta for that
        batch, and fault handling feeds the ``executor.retries`` /
        ``executor.worker_crashes`` / ``executor.timeouts`` /
        ``executor.degraded_runs`` counters plus per-incident
        ``executor.fault`` runlog events. Defaults to the shared no-op
        observer (zero overhead).
    faults:
        :class:`~repro.runtime.FaultPolicy` (or a dict of its fields)
        applied to every :meth:`map` call: per-chunk bounded retries
        with deterministic backoff, optional per-chunk timeouts, and
        crash recovery for broken process pools. ``None`` uses the
        default policy (one retry, pool rebuild on worker death).
    on_worker_failure:
        Convenience override of the policy's single most important
        field: ``"retry"`` rebuilds a broken pool and resubmits the
        lost chunks, ``"serial"`` degrades the rest of the job to the
        parent process, ``"raise"`` propagates immediately.

    A runtime built from a backend *name* owns its executor and closes
    it on :meth:`close`, context-manager exit, or garbage collection —
    one-shot runtimes no longer leak warm pools. A runtime handed an
    existing :class:`Executor` leaves its lifetime to the caller.
    """

    def __init__(self, backend="serial", *, max_workers: int | None = None,
                 chunk_size: int | None = None, cache=None, progress=None,
                 cancel=None, observer=None, faults=None,
                 on_worker_failure: str | None = None):
        self.executor = get_executor(backend, max_workers)
        self._owns_executor = not isinstance(backend, Executor)
        # Safety net for one-shot runtimes that are never close()d: the
        # pool is released when the runtime is garbage collected. (The
        # callback is bound to the executor, not to self, so it does not
        # keep the runtime alive.)
        self._finalizer = (weakref.finalize(self, self.executor.close)
                           if self._owns_executor else None)
        if chunk_size is not None and chunk_size < 1:
            raise ValidationError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        if cache is True:
            cache = FingerprintCache()
        elif cache is False:
            cache = None
        self.cache: FingerprintCache | None = cache
        self.progress = progress
        self.cancel = cancel
        self.observer = resolve_observer(observer)
        self.faults = resolve_fault_policy(faults,
                                           on_worker_failure=on_worker_failure)
        self.timings = StageTimer()
        _LIVE_RUNTIMES.add(self)

    @property
    def backend(self) -> str:
        return self.executor.name

    def _on_fault(self, event) -> None:
        """Feed one executor fault incident into the attached observer:
        the matching ``executor.*`` counter, a replayable
        ``executor.fault`` runlog event, and an entry on the open
        ``runtime.<stage>`` span's ``fault_events`` attribute."""
        observer = self.observer
        observer.count(_FAULT_COUNTERS[event.kind])
        observer.event("executor.fault", fault=event.kind, stage=event.stage,
                       chunk=event.chunk_index, attempt=event.attempt,
                       backend=self.backend, error=event.error,
                       elapsed=event.elapsed)
        span = observer.tracer.current
        if span is not None:
            span.attrs.setdefault("fault_events", []).append(
                {"kind": event.kind, "chunk": event.chunk_index,
                 "attempt": event.attempt})

    def map(self, fn, tasks, *, shared=None, stage: str = "map") -> list:
        """Fan ``fn(shared, task)`` out over the backend; ordered results.

        Wall-time is charged to ``stage`` in :attr:`timings`; failures
        are handled per :attr:`faults`.
        """
        tasks = list(tasks)
        fault_hook = None
        if self.observer.enabled:
            self.observer.count("runtime.tasks", len(tasks))
            fault_hook = self._on_fault
        with self.observer.span(f"runtime.{stage}", cache=self.cache,
                                backend=self.backend,
                                workers=self.executor.effective_workers,
                                tasks=len(tasks)):
            with _Stopwatch(self.timings, stage, len(tasks)):
                return self.executor.map(
                    fn, tasks, shared=shared, chunk_size=self.chunk_size,
                    progress=self.progress, cancel=self.cancel, stage=stage,
                    faults=self.faults, fault_hook=fault_hook)

    def map_cached(self, fn, tasks, *, key_fn, shared=None,
                   stage: str = "map") -> list:
        """:meth:`map` with per-task fingerprint memoization.

        ``key_fn(task)`` names each task in the attached
        :class:`FingerprintCache`; cached tasks are answered without
        touching the executor, duplicate keys within one batch are
        evaluated once, and only the remaining unique misses fan out.
        Results come back in task order, bitwise-identical whether they
        were computed or replayed — this is the variant-batching
        primitive the pipeline-configuration debugger builds its rounds
        on. Without a cache it degrades to plain :meth:`map`.
        """
        tasks = list(tasks)
        if self.cache is None:
            return self.map(fn, tasks, shared=shared, stage=stage)
        keys = [key_fn(task) for task in tasks]
        results: dict[str, float] = {}
        pending: list = []
        pending_keys: list[str] = []
        for key, task in zip(keys, tasks):
            if key in results:
                continue
            value = self.cache.get(key)
            if value is not None:
                results[key] = value
            else:
                results[key] = _PENDING
                pending.append(task)
                pending_keys.append(key)
        if pending:
            computed = self.map(fn, pending, shared=shared, stage=stage)
            for key, value in zip(pending_keys, computed):
                self.cache.put(key, value)
                results[key] = value
        return [results[key] for key in keys]

    def stats(self) -> dict:
        """Snapshot: backend, workers, cache counters, fault counters,
        per-stage timings."""
        return {
            "backend": self.backend,
            "workers": self.executor.effective_workers,
            "cache": self.cache.stats.as_dict() if self.cache else None,
            "faults": self.executor.fault_stats.as_dict(),
            "stages": self.timings.snapshot(),
        }

    def close(self, wait: bool = True) -> None:
        """Release the executor's worker pool. Idempotent; ``wait=False``
        abandons in-flight chunks (the signal-exit teardown path)."""
        self.executor.close(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self) -> str:
        cached = "on" if self.cache is not None else "off"
        return (f"Runtime(backend={self.backend!r}, "
                f"workers={self.executor.effective_workers}, cache={cached})")


def resolve_runtime(runtime, *, faults=None) -> Runtime | None:
    """Normalize the ``runtime=`` argument every compute layer accepts.

    ``None`` stays ``None`` (caller falls back to its inline loop),
    a backend name builds a fresh :class:`Runtime` (with ``faults``
    applied when given), an :class:`Executor` is wrapped, and a
    :class:`Runtime` passes through — in which case ``faults`` must be
    ``None``; a shared runtime's policy belongs to its constructor.
    """
    if runtime is None:
        return None
    if isinstance(runtime, Runtime):
        if faults is not None:
            raise ValidationError(
                "faults= cannot override an existing Runtime's policy; "
                "pass faults= when constructing the Runtime instead")
        return runtime
    if isinstance(runtime, str) or isinstance(runtime, Executor):
        return Runtime(backend=runtime, faults=faults)
    raise ValidationError(
        "runtime must be None, a backend name ('serial'/'thread'/'process'), "
        f"an Executor, or a Runtime — got {type(runtime).__name__}")


def close_all_runtimes(wait: bool = True) -> None:
    """Release every live runtime's worker pool.

    The checkpoint shutdown path calls this (with ``wait=False``)
    *after* flushing final checkpoints and before re-delivering the
    signal, covering the signal-exit paths where the per-runtime
    ``weakref.finalize`` safety net never runs — a SIGTERM'd session
    never reaches atexit, so without this the pools' children would
    outlive the driver. Ordering matters: checkpoints first, pools
    second, so a flushed checkpoint never races pool teardown.
    """
    for runtime in list(_LIVE_RUNTIMES):
        try:
            runtime.close(wait=wait)
        except Exception:
            pass


def aggregate_stage_timings() -> dict:
    """Merged per-stage wall-time over every live runtime (for reports)."""
    merged: dict[str, dict] = {}
    for runtime in list(_LIVE_RUNTIMES):
        for stage, entry in runtime.timings.snapshot().items():
            slot = merged.setdefault(stage, {"seconds": 0.0, "tasks": 0})
            slot["seconds"] += entry["seconds"]
            slot["tasks"] += entry["tasks"]
    return merged


def aggregate_fault_stats() -> dict:
    """Summed executor fault counters over every live runtime — the
    session-wide "what went wrong and what was recovered" rollup the
    benchmark summary prints."""
    totals = {"retries": 0, "worker_crashes": 0, "timeouts": 0,
              "degraded_runs": 0}
    for runtime in list(_LIVE_RUNTIMES):
        for key, value in runtime.executor.fault_stats.as_dict().items():
            totals[key] += value
    return totals
