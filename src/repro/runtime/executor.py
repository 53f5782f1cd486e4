"""Interchangeable execution backends for coalition-scoring workloads.

An :class:`Executor` runs ``fn(shared, task)`` over a list of tasks and
returns the results *in task order*. Three backends implement the same
contract:

- ``serial`` — plain in-process loop; zero overhead, the default.
- ``thread`` — :class:`~concurrent.futures.ThreadPoolExecutor`; helps
  when the work releases the GIL (numpy linear algebra).
- ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`; true
  multi-core scaling. ``shared`` (typically the training arrays + model
  prototype) is pickled **once** and installed in every worker by the
  pool initializer, so per-task IPC carries only the small task payloads.

Because backends only change *where* ``fn`` runs — never the task list,
the task order, or any random stream — results are backend-invariant:
callers derive per-task randomness up front (see
:func:`repro.core.rng.spawn_rngs`) and the executor treats tasks as pure
functions.

Tasks are grouped into chunks to amortize submission overhead; progress
hooks fire and cancellation tokens are polled at chunk granularity (see
:mod:`repro.runtime.progress`). Chunks are also the unit of fault
handling (see :mod:`repro.runtime.faults`): a failed or timed-out chunk
is retried within its :class:`~repro.runtime.FaultPolicy` budget, a dead
process pool is rebuilt and only the lost chunks resubmitted, and an
exhausted budget raises a structured
:class:`~repro.runtime.TaskError` — with results bit-identical to an
undisturbed run, because tasks are pure.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

from repro.core.exceptions import ValidationError
from repro.runtime.checkpoint import ShutdownRequested
from repro.runtime.faults import (
    FaultEvent,
    FaultStats,
    TaskError,
    backoff_wait,
    resolve_fault_policy,
)
from repro.runtime.progress import JobCancelled, ProgressEvent

BACKENDS = ("serial", "thread", "process")

#: Chunks never exceed this many tasks, whatever the worker count:
#: progress events and cancellation polls happen at chunk boundaries, so
#: the cap bounds how stale a progress bar (or an ignored cancel) can be.
MAX_CHUNK_SIZE = 64

#: Seconds to wait for in-flight chunks when unwinding after an error —
#: the "drain" that keeps zombie chunks from racing a propagating
#: exception. Broken pools resolve their futures immediately, so this
#: bound only bites when live workers are mid-chunk.
_DRAIN_TIMEOUT = 10.0

#: Placeholder marking a chunk whose results have not been recorded yet.
_UNSET = object()


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _default_chunk_size(n_tasks: int, workers: int) -> int:
    # ~4 chunks per worker balances scheduling slack against per-chunk
    # overhead; the MAX_CHUNK_SIZE cap keeps progress/cancel polling
    # responsive even for huge serial jobs (a 10k-task serial run emits
    # >= 150 progress events instead of 4).
    return max(1, min(math.ceil(n_tasks / max(1, workers * 4)),
                      MAX_CHUNK_SIZE))


class Executor:
    """Backend contract: ordered, chunked fan-out of ``fn(shared, task)``."""

    name = "base"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValidationError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.fault_stats = FaultStats()

    @property
    def effective_workers(self) -> int:
        return 1

    def map(self, fn, tasks, *, shared=None, chunk_size: int | None = None,
            progress=None, cancel=None, stage: str = "map",
            faults=None, fault_hook=None) -> list:
        """Run ``fn(shared, task)`` for every task; return ordered results.

        Parameters
        ----------
        fn:
            Module-level callable (must be picklable for the process
            backend) taking ``(shared, task)``.
        shared:
            Read-only state shipped to workers once per job.
        chunk_size:
            Tasks per submitted chunk; auto-sized when omitted.
        progress:
            Optional ``callable(ProgressEvent)`` fired per finished chunk.
        cancel:
            Optional :class:`CancellationToken` polled between chunks.
        stage:
            Label used in progress events, fault events, and errors.
        faults:
            :class:`~repro.runtime.FaultPolicy` (or dict of its fields)
            governing retries, timeouts, and crash recovery; the default
            policy retries each chunk once and rebuilds a broken pool.
        fault_hook:
            Optional ``callable(FaultEvent)`` invoked for every fault
            incident — :class:`~repro.runtime.Runtime` uses it to feed
            ``repro.observe`` counters and span events.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if cancel is not None:
            cancel.raise_if_cancelled(stage)
        if chunk_size is None:
            chunk_size = _default_chunk_size(len(tasks), self.effective_workers)
        chunks = [tasks[i:i + chunk_size]
                  for i in range(0, len(tasks), chunk_size)]
        policy = resolve_fault_policy(faults)
        return self._run_chunks(fn, shared, chunks, len(tasks),
                                progress, cancel, stage, policy, fault_hook)

    def _emit_fault(self, fault_hook, kind: str, stage: str, chunk_index: int,
                    attempt: int, error: BaseException, started: float) -> None:
        event = FaultEvent(kind=kind, stage=stage, chunk_index=chunk_index,
                           attempt=attempt, error=repr(error),
                           elapsed=time.perf_counter() - started)
        self.fault_stats.record(event)
        if fault_hook is not None:
            fault_hook(event)

    def _run_chunks(self, fn, shared, chunks, n_tasks, progress, cancel,
                    stage, policy, fault_hook) -> list:
        raise NotImplementedError

    def close(self, wait: bool = True) -> None:
        """Release pooled workers (no-op for serial).

        ``wait=False`` abandons in-flight chunks instead of joining them
        (a process pool's workers are terminated) — the shutdown-path
        variant used by the checkpoint shutdown path, where a flushed
        checkpoint must not block on (or race) pool teardown. Safe to
        call repeatedly and during interpreter shutdown.
        """

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class SerialExecutor(Executor):
    """In-process loop — the reference semantics every backend must match.

    Honours the retry/backoff half of the fault policy (timeouts need
    preemption, which a single-threaded loop cannot do; worker crashes
    cannot happen — there are no workers).
    """

    name = "serial"

    def _run_chunks(self, fn, shared, chunks, n_tasks, progress, cancel,
                    stage, policy, fault_hook) -> list:
        started = time.perf_counter()
        results: list = []
        for idx, chunk in enumerate(chunks):
            if cancel is not None:
                cancel.raise_if_cancelled(stage)
            attempt = 0
            while True:
                try:
                    chunk_results = [fn(shared, task) for task in chunk]
                except JobCancelled:
                    raise
                except Exception as error:
                    attempt += 1
                    if attempt > policy.retries:
                        raise TaskError(stage=stage, chunk_index=idx,
                                        backend=self.name, attempts=attempt,
                                        cause=error) from error
                    self._emit_fault(fault_hook, "retry", stage, idx,
                                     attempt, error, started)
                    backoff_wait(policy.backoff * attempt, cancel, stage)
                else:
                    break
            results.extend(chunk_results)
            if progress is not None:
                progress(ProgressEvent(stage, len(results), n_tasks,
                                       time.perf_counter() - started))
        return results


class _PooledExecutor(Executor):
    """Shared chunk-collection and fault-recovery logic for the thread
    and process backends.

    The collection loop is a small per-chunk state machine: every chunk
    is submitted as one future; a task exception or timeout consumes one
    unit of the chunk's retry budget (with deterministic linear backoff)
    before resubmission; a broken pool triggers the policy's
    ``on_worker_failure`` strategy; and an exhausted budget raises
    :class:`TaskError` *after draining the pool*, so no zombie chunk is
    still running when the exception reaches the caller.
    """

    #: True when a stuck worker can be killed on timeout (process pools);
    #: thread workers cannot be interrupted, so their futures are
    #: abandoned instead.
    _kills_stuck_workers = False

    def _submit(self, fn, shared, chunk):
        """Submit one chunk to the (lazily built) pool; returns a future."""
        raise NotImplementedError

    def _discard_pool(self) -> None:
        """Drop the current pool so the next submission builds a fresh one."""
        raise NotImplementedError

    def _terminate_workers(self) -> None:
        """Forcibly stop pool workers (process backend only)."""

    def _drain(self, pending) -> None:
        for future in pending:
            future.cancel()
        running = {future for future in pending if not future.cancelled()}
        if running:
            wait(running, timeout=_DRAIN_TIMEOUT)

    def _run_chunks(self, fn, shared, chunks, n_tasks, progress, cancel,
                    stage, policy, fault_hook) -> list:
        started = time.perf_counter()
        results: list = [_UNSET] * len(chunks)
        attempts = [0] * len(chunks)
        crashes = 0
        completed_tasks = 0
        pending: set = set()
        chunk_of: dict = {}
        deadline_of: dict = {}
        live: set = set()  # chunk indices with an active future

        def forget(future) -> int:
            pending.discard(future)
            deadline_of.pop(future, None)
            idx = chunk_of.pop(future)
            live.discard(idx)
            return idx

        def forget_all() -> list:
            lost = sorted(chunk_of.values())
            pending.clear()
            chunk_of.clear()
            deadline_of.clear()
            live.clear()
            return lost

        def submit(idx: int) -> None:
            if idx in live:
                return  # already resubmitted by a nested recovery
            try:
                future = self._submit(fn, shared, chunks[idx])
            except BrokenExecutor as error:
                # The pool died between our noticing and this submission;
                # recover (or raise) through the same path as a broken
                # future. Recursion is bounded by max_worker_crashes.
                pool_failure(idx, error)
                return
            chunk_of[future] = idx
            pending.add(future)
            live.add(idx)
            if policy.timeout is not None:
                deadline_of[future] = time.monotonic() + policy.timeout

        def record_success(idx: int, chunk_results) -> None:
            nonlocal completed_tasks
            if results[idx] is not _UNSET:
                return  # duplicate completion after an abandoned timeout
            results[idx] = chunk_results
            completed_tasks += len(chunks[idx])
            if progress is not None:
                progress(ProgressEvent(stage, completed_tasks, n_tasks,
                                       time.perf_counter() - started))

        def unfinished() -> list:
            return [idx for idx, slot in enumerate(results)
                    if slot is _UNSET]

        def task_failure(idx: int, error: BaseException) -> None:
            # One chunk's own failure (task exception or timeout):
            # bounded retry with deterministic linear backoff, then a
            # structured TaskError. Timeouts are counted as incidents
            # whether or not retry budget remains; "retry" records an
            # actual resubmission.
            attempts[idx] += 1
            if isinstance(error, TimeoutError):
                self._emit_fault(fault_hook, "timeout", stage, idx,
                                 attempts[idx], error, started)
            if attempts[idx] > policy.retries:
                raise TaskError(stage=stage, chunk_index=idx,
                                backend=self.name, attempts=attempts[idx],
                                cause=error) from error
            if not isinstance(error, TimeoutError):
                self._emit_fault(fault_hook, "retry", stage, idx,
                                 attempts[idx], error, started)
            backoff_wait(policy.backoff * attempts[idx], cancel, stage)
            submit(idx)

        def pool_failure(idx: int, error: BaseException) -> None:
            # The pool itself died: every in-flight chunk is lost, not
            # just the one whose future surfaced the break.
            nonlocal crashes
            crashes += 1
            forget_all()
            self._discard_pool()
            self._emit_fault(fault_hook, "worker_crash", stage, idx,
                             attempts[idx], error, started)
            if policy.on_worker_failure == "raise" \
                    or crashes > policy.max_worker_crashes:
                raise TaskError(stage=stage, chunk_index=idx,
                                backend=self.name,
                                attempts=attempts[idx] + 1,
                                cause=error) from error
            if policy.on_worker_failure == "serial":
                # Graceful degradation: finish every remaining chunk in
                # the parent process. Bit-identical because tasks are
                # pure; slower, but the job completes.
                self._emit_fault(fault_hook, "degraded", stage, idx,
                                 attempts[idx], error, started)
                for lost_idx in unfinished():
                    if cancel is not None:
                        cancel.raise_if_cancelled(stage)
                    record_success(lost_idx, [fn(shared, task)
                                              for task in chunks[lost_idx]])
                return
            # "retry": rebuild the pool lazily and resubmit only the
            # chunks whose results were lost.
            lost = unfinished()
            for lost_idx in lost:
                self._emit_fault(fault_hook, "retry", stage, lost_idx,
                                 attempts[lost_idx], error, started)
            backoff_wait(policy.backoff * crashes, cancel, stage)
            for lost_idx in lost:
                submit(lost_idx)

        def expire_timeouts() -> None:
            now = time.monotonic()
            expired = [future for future, deadline in deadline_of.items()
                       if deadline < now]
            for future in expired:
                if future not in chunk_of:
                    continue
                idx = forget(future)
                error = TimeoutError(
                    f"chunk {idx} exceeded the per-chunk timeout of "
                    f"{policy.timeout:g}s")
                if not future.cancel() and self._kills_stuck_workers:
                    # Running in a worker we can only stop by killing the
                    # pool; sibling in-flight chunks are collateral and
                    # get resubmitted without consuming their budgets.
                    self._terminate_workers()
                    self._discard_pool()
                    lost = forget_all()
                    task_failure(idx, error)  # raises when budget exhausted
                    for sibling in lost:
                        submit(sibling)
                else:
                    # Never-started chunk, or a thread future we must
                    # abandon (its worker cannot be interrupted; the task
                    # is pure, so a duplicate completion is harmless).
                    task_failure(idx, error)

        try:
            for idx in range(len(chunks)):
                submit(idx)
            while pending:
                done, _ = wait(pending, timeout=0.1,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    if future not in chunk_of:
                        continue  # forgotten by a pool failure/timeout
                    idx = forget(future)
                    try:
                        chunk_results = future.result()
                    except JobCancelled:
                        raise
                    except BrokenExecutor as error:
                        pool_failure(idx, error)
                    except Exception as error:
                        task_failure(idx, error)
                    else:
                        record_success(idx, chunk_results)
                if deadline_of:
                    expire_timeouts()
                if cancel is not None and cancel.cancelled:
                    raise JobCancelled(f"{stage} cancelled by caller")
        except ShutdownRequested:
            # Abandon in-flight chunks at once: the final checkpoint
            # flush must not wait on them within the signal's grace
            # period (the shutdown guard then releases the pool).
            for future in pending:
                future.cancel()
            raise
        except BaseException:
            self._drain(pending)
            raise
        return [result for chunk_results in results
                for result in chunk_results]


def _run_chunk_with_shared(fn, shared, chunk):
    return [fn(shared, task) for task in chunk]


class ThreadExecutor(_PooledExecutor):
    """Thread-pool backend; ``shared`` is passed by reference (same
    process), so it must be treated as read-only by ``fn``.

    Safe under concurrent :meth:`map` callers (a serving tier runs many
    jobs over one executor): pool construction, discard, and close are
    serialized by a lock, so two racing callers share one pool instead
    of leaking a second one.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.RLock()

    @property
    def effective_workers(self) -> int:
        return self.max_workers or _available_cpus()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.effective_workers)
            return self._pool

    def _submit(self, fn, shared, chunk):
        return self._ensure_pool().submit(_run_chunk_with_shared, fn, shared,
                                          chunk)

    def _discard_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self, wait: bool = True) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=wait, cancel_futures=not wait)
            except Exception:  # interpreter/pool teardown already underway
                pass


# --- process backend -------------------------------------------------------
# The shared object is installed once per worker via the pool initializer;
# chunk submissions then reference it through this module-level slot. This
# keeps per-chunk IPC proportional to the chunk, not the dataset.
_WORKER_SHARED = None


def _install_shared(payload: bytes) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = pickle.loads(payload)


def _run_chunk_in_worker(fn, chunk):
    return [fn(_WORKER_SHARED, task) for task in chunk]


class ProcessExecutor(_PooledExecutor):
    """Process-pool backend with a keyed warm-pool registry.

    Pools are keyed by the SHA-256 of the pickled ``shared`` payload and
    kept warm across :meth:`map` calls, so (a) repeated scoring rounds
    over one utility reuse one pool with zero re-ship cost, and (b)
    **concurrent** :meth:`map` callers with *different* payloads — the
    multi-tenant serving case, many jobs sharing one executor — each get
    their own pool instead of thrashing a single slot (the old
    single-pool design shut the other caller's pool down mid-flight).
    The payload is pickled once per :meth:`map` call, not once per chunk
    submission; per-chunk IPC carries only the chunk.

    Registry maintenance is bounded: at most ``max_warm_pools`` pools
    stay alive, evicting the least-recently-used *idle* pool (one with
    no in-flight map call) first; pools with active callers are never
    evicted. A broken pool is discarded for its own caller only. All
    registry mutation happens under one re-entrant lock.
    """

    name = "process"
    _kills_stuck_workers = True

    def __init__(self, max_workers: int | None = None, *,
                 max_warm_pools: int = 4):
        super().__init__(max_workers)
        if max_warm_pools < 1:
            raise ValidationError("max_warm_pools must be >= 1")
        self.max_warm_pools = max_warm_pools
        self._pools: "OrderedDict[str, ProcessPoolExecutor]" = OrderedDict()
        self._refs: dict[str, int] = {}  # in-flight map calls per digest
        self._registry_lock = threading.RLock()
        self._tls = threading.local()  # current map call's digest+payload

    @property
    def effective_workers(self) -> int:
        return self.max_workers or _available_cpus()

    # -- compatibility views (and handy introspection) ---------------------
    @property
    def _pool(self) -> ProcessPoolExecutor | None:
        """The most-recently-used live pool (``None`` when empty)."""
        with self._registry_lock:
            if not self._pools:
                return None
            return next(reversed(self._pools.values()))

    @property
    def _pool_digest(self) -> str | None:
        """Digest of the most-recently-used live pool."""
        with self._registry_lock:
            if not self._pools:
                return None
            return next(reversed(self._pools))

    @property
    def warm_pools(self) -> int:
        with self._registry_lock:
            return len(self._pools)

    # -- the per-map digest pin --------------------------------------------
    def map(self, fn, tasks, *, shared=None, **kwargs) -> list:
        """Pickle ``shared`` once, pin this call to its pool, fan out."""
        payload = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        previous = getattr(self._tls, "pin", None)
        self._tls.pin = (digest, payload)
        with self._registry_lock:
            self._refs[digest] = self._refs.get(digest, 0) + 1
        try:
            return super().map(fn, tasks, shared=shared, **kwargs)
        finally:
            with self._registry_lock:
                remaining = self._refs.get(digest, 1) - 1
                if remaining:
                    self._refs[digest] = remaining
                else:
                    self._refs.pop(digest, None)
                self._evict_idle()
            self._tls.pin = previous

    def _current_digest(self) -> str:
        return self._tls.pin[0]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        digest, payload = self._tls.pin
        with self._registry_lock:
            pool = self._pools.get(digest)
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=self.effective_workers,
                    initializer=_install_shared, initargs=(payload,))
                self._pools[digest] = pool
            self._pools.move_to_end(digest)
            self._evict_idle()
            return pool

    def _evict_idle(self) -> None:
        # caller holds the lock; drop LRU pools nobody is mapping over
        # until the registry fits the cap.
        while len(self._pools) > self.max_warm_pools:
            idle = [d for d in self._pools if not self._refs.get(d)]
            if not idle:
                return  # every pool has an active caller; over-cap is OK
            victim = self._pools.pop(idle[0])
            try:
                victim.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def _submit(self, fn, shared, chunk):
        return self._ensure_pool().submit(_run_chunk_in_worker, fn, chunk)

    def _discard_pool(self) -> None:
        # Only the calling map's own pool: a broken pool must not take
        # a healthy concurrent caller's pool down with it.
        with self._registry_lock:
            pool = self._pools.pop(self._current_digest(), None)
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # a broken pool may refuse even shutdown
                pass

    def _terminate_workers(self) -> None:
        with self._registry_lock:
            pool = self._pools.get(self._current_digest())
        if pool is not None:
            _terminate(_worker_processes(pool))

    def close(self, wait: bool = True) -> None:
        with self._registry_lock:
            pools = list(self._pools.values())
            self._pools.clear()
            self._refs.clear()
        for pool in pools:
            workers = _worker_processes(pool)  # shutdown forgets them
            try:
                pool.shutdown(wait=wait, cancel_futures=not wait)
            except Exception:  # interpreter/pool teardown already underway
                pass
            if not wait:
                # Abandoned chunks' workers are stopped too: the caller
                # is about to exit, and none of them may outlive it.
                _terminate(workers)


def _worker_processes(pool) -> list:
    return list((getattr(pool, "_processes", None) or {}).values())


def _terminate(processes) -> None:
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


def get_executor(backend, max_workers: int | None = None) -> Executor:
    """Resolve a backend name (or pass through an :class:`Executor`)."""
    if isinstance(backend, Executor):
        return backend
    if backend == "serial":
        return SerialExecutor(max_workers)
    if backend == "thread":
        return ThreadExecutor(max_workers)
    if backend == "process":
        return ProcessExecutor(max_workers)
    raise ValidationError(
        f"unknown backend {backend!r}; expected one of {BACKENDS} "
        "or an Executor instance")
