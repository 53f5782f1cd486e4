"""Interchangeable execution backends for coalition-scoring workloads.

An :class:`Executor` runs ``fn(shared, task)`` over a list of tasks and
returns the results *in task order*. Three backends implement the same
contract:

- ``serial`` — plain in-process loop; zero overhead, the default.
- ``thread`` — :class:`~concurrent.futures.ThreadPoolExecutor`; helps
  when the work releases the GIL (numpy linear algebra).
- ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`; true
  multi-core scaling. ``shared`` (typically the training arrays + model
  prototype) is pickled **once** per ``map`` call into a spill file that
  each worker loads on first use and keeps in a small cache keyed by the
  payload's digest, so per-chunk IPC carries only the small task
  payloads.

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
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

from repro.core.exceptions import ValidationError
from repro.runtime.checkpoint import ShutdownRequested
from repro.runtime.faults import (
    FaultEvent,
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
        if fault_hook is not None:
            fault_hook(FaultEvent(kind=kind, stage=stage,
                                  chunk_index=chunk_index, attempt=attempt,
                                  error=repr(error),
                                  elapsed=time.perf_counter() - started))

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
    """Pool lifecycle, chunk collection and fault recovery shared by the
    thread and process backends.

    Each executor owns exactly one pool, built lazily on first
    submission and shared by every concurrent :meth:`map` caller (a
    serving tier runs many jobs over one executor). Building,
    discarding and closing it are serialized by one lock. A backend
    adds only :meth:`_new_pool` and :meth:`_submit`.

    The collection loop is a small per-chunk state machine: every chunk
    is submitted as one future; a task exception or timeout consumes one
    unit of the chunk's retry budget (with deterministic linear backoff)
    before resubmission; a broken pool triggers the policy's
    ``on_worker_failure`` strategy; and an exhausted budget raises
    :class:`TaskError` *after draining the pool*, so no zombie chunk is
    still running when the exception reaches the caller.

    Because the pool is shared, a dead worker (or a stuck one killed on
    timeout) breaks the in-flight chunks of *every* concurrent caller.
    Each caller recovers its own lost chunks through the same
    broken-pool path, so such a collateral crash counts against that
    caller's ``max_worker_crashes`` too. Discarding a pool is a
    compare-and-swap on the pool the failed chunk ran in: a late caller
    never tears down a pool another caller has already rebuilt.
    """

    #: True when a stuck worker can be killed on timeout (process pools);
    #: thread workers cannot be interrupted, so their futures are
    #: abandoned instead.
    _kills_stuck_workers = False

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool = None
        self._pool_lock = threading.RLock()
        # Timed-out thread futures whose workers are still busy with
        # them (future -> pool), across every caller.
        self._abandoned: dict = {}

    @property
    def effective_workers(self) -> int:
        return self.max_workers or _available_cpus()

    def _new_pool(self):
        """Build a fresh pool of :attr:`effective_workers` workers."""
        raise NotImplementedError

    def _submit(self, pool, fn, shipped, chunk):
        """Submit one chunk to ``pool``; returns a future. ``shipped``
        is what the backend sends in place of ``shared``."""
        raise NotImplementedError

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool()
            return self._pool

    def _workers_held(self) -> bool:
        """True when abandoned timed-out chunks occupy every worker of
        the current pool, so no queued chunk can start until one of
        them returns."""
        with self._pool_lock:
            self._abandoned = {future: pool for future, pool
                               in self._abandoned.items()
                               if pool is self._pool and not future.done()}
            return len(self._abandoned) >= self.effective_workers

    def _discard_pool(self, pool) -> None:
        """Drop ``pool`` so the next submission builds a fresh one — a
        no-op when another caller (or :meth:`close`) got there first."""
        with self._pool_lock:
            if self._pool is not pool:
                return
            self._pool = None
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # a broken pool may refuse even shutdown
            pass

    def close(self, wait: bool = True) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        workers = _worker_processes(pool)  # shutdown forgets them
        try:
            pool.shutdown(wait=wait, cancel_futures=not wait)
        except Exception:  # interpreter/pool teardown already underway
            pass
        if not wait:
            # Abandoned chunks' workers are stopped too: the caller
            # is about to exit, and none of them may outlive it.
            _terminate(workers)

    def _drain(self, pending) -> None:
        for future in pending:
            future.cancel()
        running = {future for future in pending if not future.cancelled()}
        if running:
            wait(running, timeout=_DRAIN_TIMEOUT)

    def _run_chunks(self, fn, shared, chunks, n_tasks, progress, cancel,
                    stage, policy, fault_hook, shipped=_UNSET) -> list:
        if shipped is _UNSET:
            shipped = shared
        started = time.perf_counter()
        results: list = [_UNSET] * len(chunks)
        attempts = [0] * len(chunks)
        crashes = 0
        completed_tasks = 0
        pending: set = set()
        chunk_of: dict = {}  # future -> (chunk index, the pool it ran in)
        deadline_of: dict = {}  # future -> deadline, None until it runs
        live: set = set()  # chunk indices with an active future

        def forget(future) -> tuple:
            pending.discard(future)
            deadline_of.pop(future, None)
            idx, pool = chunk_of.pop(future)
            live.discard(idx)
            return idx, pool

        def forget_all() -> list:
            lost = sorted(idx for idx, _ in chunk_of.values())
            pending.clear()
            chunk_of.clear()
            deadline_of.clear()
            live.clear()
            return lost

        def submit(idx: int) -> None:
            if idx in live:
                return  # already resubmitted by a nested recovery
            pool = self._ensure_pool()
            try:
                future = self._submit(pool, fn, shipped, chunks[idx])
            except RuntimeError as error:
                # The pool broke, or another caller discarded it, between
                # our fetching and this submission; recover (or raise)
                # through the same path as a broken future. Recursion is
                # bounded by max_worker_crashes.
                pool_failure(idx, error, pool)
                return
            chunk_of[future] = idx, pool
            pending.add(future)
            live.add(idx)
            if policy.timeout is not None:
                deadline_of[future] = None

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

        def pool_failure(idx: int, error: BaseException, pool) -> None:
            # The pool itself died: every in-flight chunk is lost, not
            # just the one whose future surfaced the break.
            nonlocal crashes
            crashes += 1
            forget_all()
            self._discard_pool(pool)
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
            # A chunk's clock starts when its future starts running, not
            # at submission: on a shared pool it may first queue behind
            # other callers' chunks. While abandoned chunks hold every
            # worker, a queued chunk cannot start, so its clock starts
            # then instead of never.
            now = time.monotonic()
            unarmed = [future for future, deadline in deadline_of.items()
                       if deadline is None]
            held = bool(unarmed) and self._workers_held()
            for future in unarmed:
                if held or future.running():
                    deadline_of[future] = now + policy.timeout
            expired = [future for future, deadline in deadline_of.items()
                       if deadline is not None and deadline < now]
            for future in expired:
                if future not in chunk_of:
                    continue
                idx, pool = forget(future)
                error = TimeoutError(
                    f"chunk {idx} exceeded the per-chunk timeout of "
                    f"{policy.timeout:g}s")
                if not future.cancel() and self._kills_stuck_workers:
                    # Running in a worker we can only stop by killing the
                    # pool; sibling in-flight chunks are collateral and
                    # get resubmitted without consuming their budgets
                    # (other callers' chunks recover as a pool failure).
                    _terminate(_worker_processes(pool))
                    self._discard_pool(pool)
                    lost = forget_all()
                    task_failure(idx, error)  # raises when budget exhausted
                    for sibling in lost:
                        submit(sibling)
                else:
                    # Never started (cancelled above), or a thread future
                    # we must abandon: its worker cannot be interrupted
                    # (the task is pure, so a duplicate completion is
                    # harmless), and it holds that worker until it returns.
                    with self._pool_lock:
                        self._abandoned[future] = pool
                    task_failure(idx, error)

        try:
            for idx in range(len(chunks)):
                submit(idx)
            while pending:
                done, _ = wait(pending, timeout=0.1,
                               return_when=FIRST_COMPLETED)
                # wait() never reports a future that a pool shutdown
                # cancelled (another caller's discard, or close()).
                done |= {future for future in pending if future.cancelled()}
                for future in done:
                    if future not in chunk_of:
                        continue  # forgotten by a pool failure/timeout
                    idx, pool = forget(future)
                    try:
                        chunk_results = future.result()
                    except JobCancelled:
                        raise
                    except (BrokenExecutor, CancelledError) as error:
                        # Cancelled by another caller's discard of the
                        # shared pool (our own cancels are forgotten).
                        pool_failure(idx, error, pool)
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
    process), so it must be treated as read-only by ``fn``."""

    name = "thread"

    def _new_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.effective_workers)

    def _submit(self, pool, fn, shipped, chunk):
        return pool.submit(_run_chunk_with_shared, fn, shipped, chunk)


# --- process backend -------------------------------------------------------
#: Unpickled ``shared`` payloads each worker keeps, keyed by the digest
#: of their pickled bytes (least recently used first): enough for a few
#: concurrent callers or alternating rounds to hit, few enough to bound
#: a worker's memory.
_WORKER_SHARED_SLOTS = 4
_WORKER_SHARED: "OrderedDict[str, object]" = OrderedDict()


def _load_shared(digest: str, path: str):
    """This worker's unpickled payload for ``digest``; read from the
    spill file at ``path`` on a miss."""
    if digest in _WORKER_SHARED:
        _WORKER_SHARED.move_to_end(digest)
        return _WORKER_SHARED[digest]
    with open(path, "rb") as handle:
        shared = pickle.load(handle)
    _WORKER_SHARED[digest] = shared
    if len(_WORKER_SHARED) > _WORKER_SHARED_SLOTS:
        _WORKER_SHARED.popitem(last=False)
    return shared


def _run_chunk_in_worker(fn, spill, chunk):
    shared = _load_shared(*spill)
    return [fn(shared, task) for task in chunk]


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class ProcessExecutor(_PooledExecutor):
    """Process-pool backend: one worker pool for every caller's payload.

    Each :meth:`map` call pickles ``shared`` once and writes the bytes to
    a spill file that lives only as long as that call (or until
    :meth:`close`). It is scratch data, so it is not fsynced. Every chunk
    carries the payload's SHA-256 digest and the spill path; a worker
    answers it from its small cache of unpickled payloads and reads the
    spill file only on a miss. Repeated rounds over one payload therefore
    reach each worker once, and concurrent callers with different
    payloads (the multi-tenant serving case) share the same workers.
    """

    name = "process"
    _kills_stuck_workers = True

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._spills: set[str] = set()  # spill files of in-flight maps

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.effective_workers)

    def _submit(self, pool, fn, shipped, chunk):
        return pool.submit(_run_chunk_in_worker, fn, shipped, chunk)

    def _run_chunks(self, fn, shared, chunks, *args) -> list:
        payload = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        fd, path = tempfile.mkstemp(prefix="repro-shared-", suffix=".pkl")
        with self._pool_lock:
            self._spills.add(path)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            return super()._run_chunks(fn, shared, chunks, *args,
                                       shipped=(digest, path))
        finally:
            with self._pool_lock:
                self._spills.discard(path)
            _unlink(path)

    def close(self, wait: bool = True) -> None:
        super().close(wait)
        with self._pool_lock:
            spills, self._spills = self._spills, set()
        for path in spills:
            _unlink(path)


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
