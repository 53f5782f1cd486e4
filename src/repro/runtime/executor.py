"""Interchangeable execution backends for coalition-scoring workloads.

An :class:`Executor` runs ``fn(shared, task)`` over a list of tasks and
returns the results *in task order* — all at once (``map``) or as one
ordered stream with a bound on the chunks in flight (``imap``). Three
backends implement the same contract:

- ``serial`` — plain in-process loop; zero overhead, the default.
- ``thread`` — a pool of daemon threads; helps when the work releases
  the GIL (numpy linear algebra).
- ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`; true
  multi-core scaling. ``shared`` (typically the training arrays + model
  prototype) is pickled **once** per call into a spill file that each
  worker loads on first use and keeps in a small cache keyed by the
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
import itertools
import math
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from queue import Empty, SimpleQueue

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

        The list of everything :meth:`imap` yields, with no bound on the
        chunks in flight; the parameters are :meth:`imap`'s.
        """
        return list(self.imap(fn, tasks, shared=shared,
                              chunk_size=chunk_size, progress=progress,
                              cancel=cancel, stage=stage, faults=faults,
                              fault_hook=fault_hook))

    def imap(self, fn, tasks, *, inflight: int | None = None, shared=None,
             chunk_size: int | None = None, progress=None, cancel=None,
             stage: str = "map", faults=None, fault_hook=None):
        """Stream ``fn(shared, task)`` over the tasks; yield results in
        task order.

        Chunks are submitted lazily: at most ``inflight`` of them are
        submitted and not yet consumed at any time, and a chunk counts as
        consumed only once the caller asks for the result after its last
        one. Closing the generator early cancels the chunks that have not
        started and waits for the running ones, as a failure does.

        Parameters
        ----------
        fn:
            Module-level callable (must be picklable for the process
            backend) taking ``(shared, task)``.
        inflight:
            Bound on chunks submitted and not yet consumed; ``None``
            (what :meth:`map` uses) submits every chunk at once. The
            serial backend runs each chunk when its first result is
            asked for, whatever the bound.
        shared:
            Read-only state shipped to workers once per call.
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
        if inflight is not None and inflight < 1:
            raise ValidationError("inflight must be >= 1")
        tasks = list(tasks)
        if chunk_size is None:
            chunk_size = _default_chunk_size(len(tasks), self.effective_workers)
        chunks = [tasks[i:i + chunk_size]
                  for i in range(0, len(tasks), chunk_size)]
        policy = resolve_fault_policy(faults)
        return self._stream(fn, shared, chunks, len(tasks), inflight,
                            progress, cancel, stage, policy, fault_hook)

    def _emit_fault(self, fault_hook, kind: str, stage: str, chunk_index: int,
                    attempt: int, error: BaseException, started: float) -> None:
        if fault_hook is not None:
            fault_hook(FaultEvent(kind=kind, stage=stage,
                                  chunk_index=chunk_index, attempt=attempt,
                                  error=repr(error),
                                  elapsed=time.perf_counter() - started))

    def _stream(self, fn, shared, chunks, n_tasks, inflight, progress, cancel,
                stage, policy, fault_hook):
        """The generator behind :meth:`imap`."""
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

    def _stream(self, fn, shared, chunks, n_tasks, inflight, progress, cancel,
                stage, policy, fault_hook):
        started = time.perf_counter()
        completed = 0
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
            completed += len(chunk)
            if progress is not None:
                progress(ProgressEvent(stage, completed, n_tasks,
                                       time.perf_counter() - started))
            yield from chunk_results


class _PooledExecutor(Executor):
    """Pool lifecycle and the streaming loop shared by the thread and
    process backends.

    Each executor owns exactly one pool, built lazily on first
    submission and shared by every concurrent :meth:`imap` caller (a
    serving tier runs many jobs over one executor). Building,
    discarding and closing it are serialized by one lock. A backend
    adds only :meth:`_new_pool` and :meth:`_submit`; each call's chunk
    bookkeeping and fault recovery live in a :class:`_ChunkRun`.

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
    #: abandoned and a new worker takes their place instead.
    _kills_stuck_workers = False

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool = None
        self._pool_lock = threading.RLock()

    @property
    def effective_workers(self) -> int:
        return self.max_workers or _available_cpus()

    def _new_pool(self):
        """Build a fresh pool of :attr:`effective_workers` workers; it
        offers ``submit``, ``shutdown`` and ``started(future)``."""
        raise NotImplementedError

    def _submit(self, pool, fn, shipped, chunk, timed: bool):
        """Submit one chunk to ``pool``; returns a future. ``shipped``
        is what the backend sends in place of ``shared``; ``timed``
        says the chunk runs under a timeout."""
        raise NotImplementedError

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool()
            return self._pool

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

    def _stream(self, fn, shared, chunks, n_tasks, inflight, progress, cancel,
                stage, policy, fault_hook, shipped=_UNSET):
        run = _ChunkRun(self, fn, shared,
                        shared if shipped is _UNSET else shipped, chunks,
                        n_tasks, progress, cancel, stage, policy, fault_hook)
        return run.stream(len(chunks) if inflight is None else inflight)


class _ChunkRun:
    """One pooled :meth:`Executor.imap` call: its chunks' futures,
    attempts and results, and the fault recovery that acts on them.

    Every chunk is one future. A task exception or timeout consumes one
    unit of the chunk's retry budget (with deterministic linear backoff)
    before resubmission; a broken pool triggers the policy's
    ``on_worker_failure`` strategy; and an exhausted budget raises
    :class:`TaskError` at once, which :meth:`stream` answers by draining
    the pool, so no zombie chunk is still running when the exception
    reaches the caller.

    The object holds no bound method or callback, and :meth:`collect`
    drops its references to the futures it reads (a failed future's
    traceback holds that frame), so results are freed by reference
    counting alone.
    """

    def __init__(self, executor, fn, shared, shipped, chunks, n_tasks,
                 progress, cancel, stage, policy, fault_hook):
        self.executor = executor
        self.fn = fn
        self.shared = shared
        self.shipped = shipped
        self.chunks = chunks
        self.n_tasks = n_tasks
        self.progress = progress
        self.cancel = cancel
        self.stage = stage
        self.policy = policy
        self.fault_hook = fault_hook
        self.started = time.perf_counter()
        self.results: list = [_UNSET] * len(chunks)  # None once consumed
        self.attempts = [0] * len(chunks)
        self.submitted = 0  # chunks 0 .. submitted - 1 were submitted
        self.crashes = 0
        self.completed_tasks = 0
        self.degraded = False  # on_worker_failure="serial" took over
        # future -> [chunk index, its pool, deadline (None until it runs)]
        self.pending: dict = {}
        self.live: set = set()  # chunk indices with a pending future

    def stream(self, ahead: int):
        """Yield the results in order, keeping at most ``ahead`` chunks
        submitted and not yet consumed."""
        if not self.chunks:
            return
        if self.cancel is not None:
            self.cancel.raise_if_cancelled(self.stage)
        try:
            for idx in range(len(self.chunks)):
                while self.submitted < min(idx + ahead, len(self.chunks)):
                    self.submitted += 1
                    self.submit(self.submitted - 1)
                while self.results[idx] is _UNSET:
                    self.collect()
                chunk_results, self.results[idx] = self.results[idx], None
                yield from chunk_results
        except ShutdownRequested:
            # Abandon in-flight chunks at once: the final checkpoint
            # flush must not wait on them within the signal's grace
            # period (the shutdown guard then releases the pool).
            self.drain(timeout=0)
            raise
        except BaseException:  # a failure, or the caller closed us
            self.drain(timeout=_DRAIN_TIMEOUT)
            raise

    def _fault(self, kind: str, idx: int, attempt: int,
               error: BaseException) -> None:
        self.executor._emit_fault(self.fault_hook, kind, self.stage, idx,
                                  attempt, error, self.started)

    def submit(self, idx: int) -> None:
        if idx in self.live:
            return  # already resubmitted by a nested recovery
        if self.degraded:
            if self.cancel is not None:
                self.cancel.raise_if_cancelled(self.stage)
            self.record(idx, [self.fn(self.shared, task)
                              for task in self.chunks[idx]])
            return
        pool = self.executor._ensure_pool()
        try:
            future = self.executor._submit(pool, self.fn, self.shipped,
                                           self.chunks[idx],
                                           self.policy.timeout is not None)
        except RuntimeError as error:
            # The pool broke, or another caller discarded it, between
            # our fetching and this submission; recover (or raise)
            # through the same path as a broken future. Recursion is
            # bounded by max_worker_crashes.
            self.pool_failure(idx, error, pool)
            return
        self.pending[future] = [idx, pool, None]
        self.live.add(idx)

    def forget(self, future) -> tuple:
        idx, pool, _ = self.pending.pop(future)
        self.live.discard(idx)
        return idx, pool

    def forget_all(self) -> list:
        lost = sorted(idx for idx, _, _ in self.pending.values())
        self.pending.clear()
        self.live.clear()
        return lost

    def record(self, idx: int, chunk_results) -> None:
        if self.results[idx] is not _UNSET:
            return  # duplicate completion after an abandoned timeout
        self.results[idx] = chunk_results
        self.completed_tasks += len(self.chunks[idx])
        if self.progress is not None:
            self.progress(ProgressEvent(self.stage, self.completed_tasks,
                                        self.n_tasks,
                                        time.perf_counter() - self.started))

    def task_failure(self, idx: int, error: BaseException) -> None:
        # One chunk's own failure (task exception or timeout): bounded
        # retry with deterministic linear backoff, then a structured
        # TaskError. Timeouts are counted as incidents whether or not
        # retry budget remains; "retry" records an actual resubmission.
        self.attempts[idx] += 1
        attempts = self.attempts[idx]
        if isinstance(error, TimeoutError):
            self._fault("timeout", idx, attempts, error)
        if attempts > self.policy.retries:
            raise TaskError(stage=self.stage, chunk_index=idx,
                            backend=self.executor.name, attempts=attempts,
                            cause=error) from error
        if not isinstance(error, TimeoutError):
            self._fault("retry", idx, attempts, error)
        backoff_wait(self.policy.backoff * attempts, self.cancel, self.stage)
        self.submit(idx)

    def pool_failure(self, idx: int, error: BaseException, pool) -> None:
        # The pool itself died: every in-flight chunk is lost, not just
        # the one whose future surfaced the break.
        self.crashes += 1
        self.forget_all()
        self.executor._discard_pool(pool)
        self._fault("worker_crash", idx, self.attempts[idx], error)
        policy = self.policy
        if policy.on_worker_failure == "raise" \
                or self.crashes > policy.max_worker_crashes:
            raise TaskError(stage=self.stage, chunk_index=idx,
                            backend=self.executor.name,
                            attempts=self.attempts[idx] + 1,
                            cause=error) from error
        lost = [lost_idx for lost_idx in range(self.submitted)
                if self.results[lost_idx] is _UNSET]
        if policy.on_worker_failure == "serial":
            # Graceful degradation: every remaining chunk runs in the
            # parent process. Bit-identical because tasks are pure;
            # slower, but the job completes.
            self._fault("degraded", idx, self.attempts[idx], error)
            self.degraded = True
        else:
            # "retry": rebuild the pool lazily and resubmit only the
            # chunks whose results were lost.
            for lost_idx in lost:
                self._fault("retry", lost_idx, self.attempts[lost_idx],
                            error)
            backoff_wait(policy.backoff * self.crashes, self.cancel,
                         self.stage)
        for lost_idx in lost:
            self.submit(lost_idx)

    def expire_timeouts(self) -> None:
        # A chunk's clock starts when the chunk starts running, not at
        # submission: on a shared pool it may first queue behind other
        # callers' chunks. The pool says when that is.
        now = time.monotonic()
        for future, entry in self.pending.items():
            if entry[2] is None and entry[1].started(future):
                entry[2] = now + self.policy.timeout
        expired = [future for future, (_, _, deadline) in self.pending.items()
                   if deadline is not None and deadline < now]
        for future in expired:
            if future not in self.pending:
                continue
            idx, pool = self.forget(future)
            error = TimeoutError(
                f"chunk {idx} exceeded the per-chunk timeout of "
                f"{self.policy.timeout:g}s")
            stuck = not future.cancel()  # False: it never started
            if stuck and self.executor._kills_stuck_workers:
                # Running in a worker we can only stop by killing the
                # pool; sibling in-flight chunks are collateral and get
                # resubmitted without consuming their budgets (other
                # callers' chunks recover as a pool failure).
                _terminate(_worker_processes(pool))
                self.executor._discard_pool(pool)
                lost = self.forget_all()
                self.task_failure(idx, error)  # raises when budget exhausted
                for sibling in lost:
                    self.submit(sibling)
            else:
                if stuck:
                    # A thread cannot be interrupted: the pool gives its
                    # place to a new worker, and a late completion of
                    # the pure task is harmless.
                    pool.abandon(future)
                self.task_failure(idx, error)

    def collect(self) -> None:
        """Wait up to one poll interval; act on what finished, on
        expired deadlines and on cancellation."""
        try:
            done, _ = wait(self.pending, timeout=0.1,
                           return_when=FIRST_COMPLETED)
            # wait() never reports a future that a pool shutdown
            # cancelled (another caller's discard, or close()).
            done |= {future for future in self.pending if future.cancelled()}
            for future in done:
                if future not in self.pending:
                    continue  # forgotten by a pool failure/timeout
                idx, pool = self.forget(future)
                try:
                    chunk_results = future.result()
                except JobCancelled:
                    raise
                except (BrokenExecutor, CancelledError) as error:
                    # Cancelled by another caller's discard of the
                    # shared pool (our own cancels are forgotten).
                    self.pool_failure(idx, error, pool)
                except Exception as error:
                    self.task_failure(idx, error)
                else:
                    self.record(idx, chunk_results)
            if self.policy.timeout is not None and self.pending:
                self.expire_timeouts()
            if self.cancel is not None and self.cancel.cancelled:
                raise JobCancelled(f"{self.stage} cancelled by caller")
        finally:
            future = done = None

    def drain(self, timeout: float) -> None:
        """Cancel the pending futures and wait up to ``timeout`` seconds
        for the running ones, so no zombie chunk races an exception."""
        pending = list(self.pending)
        self.forget_all()
        running = [future for future in pending if not future.cancel()]
        if running and timeout:
            wait(running, timeout=timeout)


def _run_chunk_with_shared(fn, shared, chunk):
    return [fn(shared, task) for task in chunk]


class _ThreadPool:
    """The thread backend's pool: daemon worker threads behind the part
    of the :class:`~concurrent.futures.ThreadPoolExecutor` interface the
    executor uses (``submit`` and ``shutdown``), plus :meth:`abandon`.

    A thread cannot be interrupted, so a task abandoned on timeout keeps
    its thread until it returns, which may be never (a read from a dead
    network mount). :meth:`abandon` gives that thread's place to a new
    worker at once, so queued tasks never wait behind it, and the
    abandoned thread exits when its task returns. :meth:`shutdown` joins
    only the workers that were not abandoned, and interpreter exit joins
    none (``concurrent.futures`` joins every worker it started at exit).
    """

    def __init__(self, workers: int):
        self._work_queue: SimpleQueue = SimpleQueue()
        self._shutdown_lock = threading.Lock()
        self._threads: set = set()  # workers not abandoned
        self._running: dict = {}  # future -> the worker running it
        self._shutdown = False
        for _ in range(workers):
            self._spawn()

    def _spawn(self) -> None:
        thread = threading.Thread(target=self._work, daemon=True,
                                  name="repro-thread-worker")
        self._threads.add(thread)
        thread.start()

    def _work(self) -> None:
        while (item := self._work_queue.get()) is not None:
            if not self._run(*item):
                return
            del item  # an idle worker holds no task or result

    def _run(self, future, fn, args) -> bool:
        """Run one task; False when it was abandoned while it ran."""
        with self._shutdown_lock:
            if not future.set_running_or_notify_cancel():
                return True
            self._running[future] = threading.current_thread()
        try:
            result = fn(*args)
        except BaseException as error:
            future.set_exception(error)
        else:
            future.set_result(result)
        with self._shutdown_lock:
            kept = self._running.pop(future, None) is not None
        # A failed task's traceback holds this frame: drop the future
        # and the task, or they would stay alive in a cycle.
        future = fn = args = None
        return kept

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        with self._shutdown_lock:
            if self._shutdown:
                raise RuntimeError("cannot submit to a shut-down pool")
            self._work_queue.put((future, fn, args))
        return future

    def started(self, future) -> bool:
        """True once a worker has picked ``future``'s task up: the
        worker itself marks the future running."""
        return future.running()

    def abandon(self, future) -> None:
        """Replace the worker running ``future`` (a no-op once the
        future is done)."""
        with self._shutdown_lock:
            thread = self._running.pop(future, None)
            if thread is None:
                return
            self._threads.discard(thread)
            if not self._shutdown:
                self._spawn()

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        with self._shutdown_lock:
            self._shutdown = True
            threads = list(self._threads)
        while cancel_futures:
            try:
                item = self._work_queue.get_nowait()
            except Empty:
                break
            if item is not None:
                item[0].cancel()
        for _ in threads:
            self._work_queue.put(None)
        if wait:
            for thread in threads:
                thread.join()


class ThreadExecutor(_PooledExecutor):
    """Thread-pool backend; ``shared`` is passed by reference (same
    process), so it must be treated as read-only by ``fn``. A chunk
    abandoned on timeout gives its thread's place to a new worker, and
    no worker holds interpreter exit (see :class:`_ThreadPool`)."""

    name = "thread"

    def _new_pool(self) -> _ThreadPool:
        return _ThreadPool(self.effective_workers)

    def _submit(self, pool, fn, shipped, chunk, timed):
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


#: In a process-pool worker: the pool's table of running timed chunks
#: and this worker's slot in it (see :class:`_ProcessPool`).
_RUNNING = None


def _init_worker(running, slots) -> None:
    global _RUNNING
    with slots.get_lock():
        _RUNNING = running, slots.value % len(running)
        slots.value += 1


def _run_chunk_in_worker(fn, spill, chunk, token=0):
    if token:
        running, slot = _RUNNING
        running[slot] = token
    shared = _load_shared(*spill)
    return [fn(shared, task) for task in chunk]


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class _ProcessPool(ProcessPoolExecutor):
    """The process backend's pool: a
    :class:`~concurrent.futures.ProcessPoolExecutor` that knows which
    timed chunks its workers are running.

    The pool marks a future running as soon as its chunk enters the call
    queue, which holds one chunk more than there are workers, so a
    deadline armed then would count time the chunk spends queued. A
    timed chunk instead carries a token that its worker writes into its
    own slot of a shared table when it starts the chunk; :meth:`started`
    looks the token up there. The table takes no lock, so a worker
    killed mid-write cannot block anyone.
    """

    def __init__(self, workers: int):
        self._running = multiprocessing.Array("q", workers, lock=False)
        super().__init__(max_workers=workers, initializer=_init_worker,
                         initargs=(self._running,
                                   multiprocessing.Value("i", 0)))
        self._tokens = itertools.count(1)
        self._token_of = weakref.WeakKeyDictionary()  # future -> token

    def submit_timed(self, fn, *args) -> Future:
        """:meth:`submit` ``fn(*args, token)``; the worker running it
        shows ``token`` in the table."""
        token = next(self._tokens)
        future = self.submit(fn, *args, token)
        self._token_of[future] = token
        return future

    def started(self, future) -> bool:
        """True while a worker runs ``future``'s chunk."""
        return self._token_of.get(future) in self._running[:]


class ProcessExecutor(_PooledExecutor):
    """Process-pool backend: one worker pool for every caller's payload.

    Each :meth:`imap` call pickles ``shared`` once and writes the bytes
    to a spill file that lives only as long as that call's generator (or
    until :meth:`close`). It is scratch data, so it is not fsynced. Every
    chunk carries the payload's SHA-256 digest and the spill path; a
    worker answers it from its small cache of unpickled payloads and
    reads the spill file only on a miss. Repeated rounds over one payload
    therefore reach each worker once, and concurrent callers with
    different payloads (the multi-tenant serving case) share the same
    workers.
    """

    name = "process"
    _kills_stuck_workers = True

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._spills: set[str] = set()  # spill files of unfinished calls

    def _new_pool(self) -> _ProcessPool:
        return _ProcessPool(self.effective_workers)

    def _submit(self, pool, fn, shipped, chunk, timed):
        if timed:
            return pool.submit_timed(_run_chunk_in_worker, fn, shipped,
                                     chunk)
        return pool.submit(_run_chunk_in_worker, fn, shipped, chunk)

    def _stream(self, fn, shared, chunks, *args):
        if not chunks:
            return
        payload = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        fd, path = tempfile.mkstemp(prefix="repro-shared-", suffix=".pkl")
        with self._pool_lock:
            self._spills.add(path)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            yield from super()._stream(fn, shared, chunks, *args,
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
