"""The :class:`Server` facade — a debugging-as-a-service job tier.

One ``Server`` turns this library's blocking importance estimators into
a multi-tenant service: tenants submit jobs, worker threads run them on
one shared :class:`~repro.runtime.Runtime` (one warm pool, one
fingerprint cache amortized across every session), and consumers read
anytime estimates, stream tightening confidence intervals, or block for
the final scores. The composition rules:

- **Admission and fairness** live in :class:`~repro.serve.JobQueue`
  (bounded queue, per-tenant quotas, stride-scheduled dispatch).
- **Crash safety** lives in the per-job checkpoint store plus the
  :class:`~repro.serve.LeaseManager`: every job always runs with
  ``checkpoint=`` *and* ``resume_from=`` pointed at its own store, so a
  retried or adopted job replays its predecessor's snapshot and
  continues hex-identically — adoption is just resubmitting the same
  ``job_id`` from any process once the dead owner's lease expires.
- **Observability isolation**: each job writes its own RunLog
  (``data_dir/runlogs/<job_id>.jsonl``), each tenant accumulates into
  its own :class:`~repro.observe.MetricsRegistry`, and the server-level
  observer carries only the ``serve.*`` counters and ``job.*`` lifecycle
  events — one tenant's instrumentation never leaks into another's.
- **Graceful drain**: :meth:`drain` stops admission, lets running jobs
  finish (or stops them at the next publish, which snapshots their
  checkpoints), flushes every armed checkpointer via
  :func:`repro.runtime.flush_all`, and only then tears the pool down.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro.core.exceptions import ValidationError
from repro.observe.metrics import MetricsRegistry
from repro.observe.observer import Observer, resolve_observer
from repro.observe.runlog import RunLog
from repro.runtime.cache import FingerprintCache
from repro.runtime.checkpoint import flush_all
from repro.runtime.progress import JobCancelled
from repro.runtime.runtime import Runtime
from repro.serve.anytime import AnytimeEstimate
from repro.serve.jobs import Job, JobSpec, JobState
from repro.serve.lease import LeaseLost, LeaseManager, default_owner
from repro.serve.queue import AdmissionError, JobQueue
from repro.serve.worker import Worker, _JobReporter, run_method

__all__ = ["Server"]


class _Tenant:
    """Per-tenant server state: config + isolated metrics registry."""

    __slots__ = ("name", "weight", "metrics")

    def __init__(self, name: str, *, weight: float = 1.0):
        self.name = name
        self.weight = weight
        self.metrics = MetricsRegistry()


class Server:
    """Multi-tenant job tier over one shared Runtime.

    Parameters
    ----------
    data_dir:
        Durable state root: ``checkpoints/<job_id>/`` (estimator
        snapshots), ``leases/<job_id>/`` (ownership records),
        ``runlogs/<job_id>.jsonl`` (per-job provenance). Two server
        processes pointed at the same ``data_dir`` form a (crude)
        cluster: leases arbitrate job ownership between them.
    runtime:
        Shared :class:`~repro.runtime.Runtime` all jobs evaluate
        through; the server builds (and owns) a serial-backend runtime
        with a fresh :class:`~repro.runtime.FingerprintCache` when
        omitted. With the default serial backend, parallelism comes
        from ``workers`` (one estimator loop per worker thread).
    workers:
        Dispatch threads; each runs one job at a time.
    queue_capacity / retry_after:
        Admission bound and base backoff hint (see
        :class:`~repro.serve.JobQueue`). ``queue_capacity`` also bounds
        how many settled jobs the server keeps for ``status`` /
        ``result``: past it, the oldest settled job is forgotten.
    tenants:
        Optional mapping ``name -> dict(weight=, max_pending=,
        max_active=)`` registered up front; unknown tenants are
        auto-registered at weight 1 on first submit.
    lease_ttl:
        Seconds before an un-heartbeated lease becomes adoptable.
    default_every / confidence:
        Defaults for each job's :class:`~repro.serve.AnytimeEstimate`
        (publish cadence, CI level).
    observer:
        Server-level observer for ``serve.*`` counters and ``job.*``
        lifecycle events; a private :class:`~repro.observe.Observer` is
        created when omitted.
    owner:
        Lease owner id (for tests/clusters); auto-generated otherwise.
    """

    def __init__(self, data_dir, *, runtime: Runtime | None = None,
                 workers: int = 2, queue_capacity: int = 64,
                 retry_after: float = 1.0, tenants: dict | None = None,
                 lease_ttl: float = 30.0, default_every: int = 1,
                 confidence: float = 0.95, observer=None,
                 owner: str | None = None):
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        self.data_dir = Path(data_dir)
        for sub in ("checkpoints", "leases", "runlogs"):
            (self.data_dir / sub).mkdir(parents=True, exist_ok=True)
        self._owns_runtime = runtime is None
        self.runtime = runtime if runtime is not None else Runtime(
            backend="serial", cache=FingerprintCache())
        self.observer = resolve_observer(observer) if observer is not None \
            else Observer(run_id=f"serve-{default_owner()}")
        self.owner = owner or default_owner()
        self.default_every = default_every
        self.confidence = confidence
        self._queue = JobQueue(queue_capacity, retry_after=retry_after,
                               observer=self.observer)
        self._leases = LeaseManager(self.data_dir / "leases",
                                    owner=self.owner, ttl=lease_ttl,
                                    observer=self.observer)
        self._tenants: dict[str, _Tenant] = {}
        self._jobs: dict[str, Job] = {}
        # ids whose _jobs entry has settled, oldest settlement first
        self._settled: OrderedDict[str, None] = OrderedDict()
        self._lock = threading.Lock()
        for name, cfg in (tenants or {}).items():
            self.register_tenant(name, **cfg)
        self._seq = 0
        self._stop_event = threading.Event()
        self._workers = [Worker(self, i) for i in range(workers)]
        for worker in self._workers:
            worker.start()

    # -- tenants -----------------------------------------------------------
    def register_tenant(self, name: str, *, weight: float = 1.0,
                        max_pending: int | None = None,
                        max_active: int | None = None) -> None:
        """Register a tenant's fair-share weight and quotas."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                self._tenants[name] = _Tenant(name, weight=weight)
            else:
                tenant.weight = weight
        self._queue.configure_tenant(name, weight=weight,
                                     max_pending=max_pending,
                                     max_active=max_active)

    def _tenant(self, name: str) -> _Tenant:
        with self._lock:
            if name not in self._tenants:
                self._tenants[name] = _Tenant(name)
                self._queue.configure_tenant(name)
            return self._tenants[name]

    def tenant_metrics(self, name: str) -> dict:
        """Snapshot of one tenant's isolated metrics registry."""
        return self._tenant(name).metrics.snapshot()

    # -- submission --------------------------------------------------------
    def submit(self, method: str, utility, *, tenant: str = "default",
               params: dict | None = None, priority: int = 0,
               job_id: str | None = None, every: int | None = None,
               confidence: float | None = None,
               stop_width: float | None = None) -> str:
        """Submit one importance job; returns its ``job_id``.

        Raises :class:`~repro.serve.AdmissionError` (with
        ``retry_after``) when the queue or the tenant's quota is full.
        Resubmitting a ``job_id`` whose previous incarnation is terminal
        re-enqueues it — with the same id, method, params, seed and data
        it resumes from its checkpoint, which is also the adoption path
        after a crash. The same holds for an id the server has forgotten
        (more than ``queue_capacity`` jobs settled after it). Sampling
        methods must carry an integer ``seed`` in ``params`` (every job
        is checkpointed for lease adoption).
        """
        params = dict(params or {})
        if method != "loo" and "seed" not in params:
            raise ValidationError(
                f"{method} jobs need an integer params['seed']: the "
                "serving tier checkpoints every job for crash adoption, "
                "which requires a regenerable sample stream")
        self._tenant(tenant)
        with self._lock:
            self._seq += 1
            seq = self._seq
            if job_id is None:
                job_id = f"job-{seq:06d}"
            existing = self._jobs.get(job_id)
            if existing is not None and not existing.finished:
                raise ValidationError(
                    f"job {job_id!r} is already {existing.state}; wait "
                    "for it or pick a new id")
        spec = JobSpec(job_id=job_id, tenant=tenant, method=method,
                       utility=utility, params=params, priority=priority)
        anytime = AnytimeEstimate(
            every=every if every is not None else self.default_every,
            confidence=confidence if confidence is not None
            else self.confidence)
        if stop_width is not None:
            anytime.stop_when(stop_width)
        job = Job(spec, anytime=anytime, seq=seq)
        if existing is not None:
            job.attempts = existing.attempts
        try:
            self._queue.push(job)
        except AdmissionError:
            self._queue.reject_observed()
            if self.observer.enabled:
                self.observer.event("job.rejected", job_id=job_id,
                                    tenant=tenant, method=method)
            raise
        with self._lock:
            self._settled.pop(job_id, None)
            self._jobs[job_id] = job
            if job.finished:  # settled before it was registered
                self._retire(job)
        if self.observer.enabled:
            self.observer.count("serve.jobs.submitted")
            self.observer.event("job.submit", job_id=job_id, tenant=tenant,
                                method=method, priority=priority,
                                params=params)
        return job_id

    def resume(self, job_id: str) -> str:
        """Re-enqueue a terminal (failed/cancelled/lease-lost) job under
        the same spec; it resumes from its checkpoint."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ValidationError(f"unknown job {job_id!r}")
        if not job.finished:
            raise ValidationError(f"job {job_id!r} is still {job.state}")
        spec = job.spec
        return self.submit(spec.method, spec.utility, tenant=spec.tenant,
                           params=spec.params, priority=spec.priority,
                           job_id=job_id)

    # -- job lookups -------------------------------------------------------
    def _job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ValidationError(f"unknown job {job_id!r}")
        return job

    def status(self, job_id: str) -> dict:
        """Lifecycle + progress snapshot for one job."""
        return self._job(job_id).status()

    def estimate(self, job_id: str) -> AnytimeEstimate:
        """The job's anytime-estimate handle (latest / stream / stop)."""
        return self._job(job_id).anytime

    def stream(self, job_id: str, *, timeout: float | None = None):
        """Yield partial estimates as they are published (see
        :meth:`AnytimeEstimate.stream <repro.serve.AnytimeEstimate.stream>`)."""
        return self._job(job_id).anytime.stream(timeout=timeout)

    def stop_when(self, job_id: str, width: float) -> None:
        """Arm the accuracy-budget early stop on a job: it stops at the
        first publish whose widest CI half-width is ``<= width``."""
        self._job(job_id).anytime.stop_when(width)

    def result(self, job_id: str, *, timeout: float | None = None):
        """Block for the job's final (or early-stopped) scores.

        Raises on failure or cancellation; ``TimeoutError`` when the
        job is still running after ``timeout``.
        """
        job = self._job(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id!r} still {job.state} after "
                               f"{timeout}s")
        if job.state == JobState.DONE:
            return job.result
        raise ValidationError(
            f"job {job_id!r} finished as {job.state}"
            + (f": {job.error}" if job.error else ""))

    def cancel(self, job_id: str) -> None:
        """Cooperatively cancel: a pending job settles immediately, a
        running one aborts at its next partial publish."""
        job = self._job(job_id)
        if job.finished:
            return
        job.request_cancel()
        if self._queue.remove(job):
            self._settle(job, JobState.CANCELLED, error="cancelled while "
                         "pending", dequeue=False)

    # -- execution (called from Worker threads) ----------------------------
    def _job_observer(self, job: Job) -> Observer:
        path = self.data_dir / "runlogs" / f"{job.spec.job_id}.jsonl"
        return Observer(run_id=job.spec.job_id,
                        runlog=RunLog(path, run_id=job.spec.job_id),
                        metrics=self._tenant(job.spec.tenant).metrics)

    def _execute(self, job: Job, *, worker: str) -> None:
        job_id = job.spec.job_id
        if job.cancel_requested:
            self._settle(job, JobState.CANCELLED,
                         error="cancelled while pending")
            return
        lease = self._leases.acquire(job_id)
        if lease is None:
            # Held by another live owner: park until its lease can have
            # expired, then try again. Not a terminal state. The wait is
            # the lease manager's monotonic observation window, never
            # arithmetic on the record's wall-clock fields.
            held = self._leases.peek(job_id) or {}
            self._queue.task_done(job.spec.tenant)
            self._queue.park(job, delay=self._leases.retry_after(job_id)
                             + 0.01)
            if self.observer.enabled:
                self.observer.event("job.lease_wait", job_id=job_id,
                                    holder=held.get("owner"))
            return
        job.worker = worker
        job.attempts += 1
        job.transition(JobState.RUNNING)
        job_obs = self._job_observer(job)
        started = time.perf_counter()
        if self.observer.enabled:
            self.observer.count("serve.jobs.started")
        for obs in (self.observer, job_obs):
            if obs.enabled:
                obs.event("job.start", job_id=job_id,
                          tenant=job.spec.tenant, method=job.spec.method,
                          attempt=job.attempts, worker=worker,
                          adopted=lease.adopted, epoch=lease.epoch)
        reporter = _JobReporter(job, lease, self._leases,
                                observer=self.observer)
        try:
            utility = job.spec.build_utility()
            if utility.runtime is None:
                utility.runtime = self.runtime  # shared-executor handoff
            store = self.data_dir / "checkpoints" / job_id
            values = run_method(
                job.spec.method, utility, job.spec.params,
                observer=job_obs, checkpoint=store, resume_from=store,
                partial=reporter)
        except JobCancelled as exc:
            self._leases.release(lease, state="cancelled")
            job.anytime.mark_failed(exc)
            self._settle(job, JobState.CANCELLED, error=str(exc),
                         job_obs=job_obs, elapsed=started)
            return
        except LeaseLost as exc:
            # An adopter owns the job now; our copy goes terminal
            # without touching the (no longer ours) lease.
            job.anytime.mark_failed(exc)
            self._settle(job, JobState.LEASE_LOST, error=str(exc),
                         job_obs=job_obs, elapsed=started)
            return
        except Exception as exc:
            self._leases.release(lease, state="failed")
            job.anytime.mark_failed(exc)
            self._settle(job, JobState.FAILED,
                         error=f"{type(exc).__name__}: {exc}",
                         job_obs=job_obs, elapsed=started)
            return
        self._leases.release(lease, state="done")
        job.anytime.mark_done(values)
        self._settle(job, JobState.DONE, result=values, job_obs=job_obs,
                     elapsed=started)

    def _settle(self, job: Job, state: str, *, error: str | None = None,
                result=None, job_obs=None, elapsed=None,
                dequeue: bool = True) -> None:
        seconds = (time.perf_counter() - elapsed) if elapsed is not None \
            else None
        counter = {JobState.DONE: "serve.jobs.completed",
                   JobState.FAILED: "serve.jobs.failed",
                   JobState.CANCELLED: "serve.jobs.cancelled",
                   JobState.LEASE_LOST: "serve.jobs.lease_lost"}[state]
        if self.observer.enabled:
            self.observer.count(counter)
            if seconds is not None:
                self.observer.observe_value("serve.job_seconds", seconds)
        event = {JobState.DONE: "job.done", JobState.FAILED: "job.failed",
                 JobState.CANCELLED: "job.cancelled",
                 JobState.LEASE_LOST: "job.lease_lost"}[state]
        for obs in (self.observer, job_obs):
            if obs is not None and obs.enabled:
                obs.event(event, job_id=job.spec.job_id,
                          tenant=job.spec.tenant, error=error,
                          seconds=seconds)
        tenant = self._tenant(job.spec.tenant)
        tenant.metrics.inc(f"jobs.{state}")
        if seconds is not None:
            tenant.metrics.observe("jobs.seconds", seconds)
        # The terminal transition comes LAST: it releases result()
        # waiters, who may immediately read the metrics written above.
        job.transition(state, error=error, result=result)
        with self._lock:
            self._retire(job)
        if dequeue:
            self._queue.task_done(job.spec.tenant)

    def _retire(self, job: Job) -> None:
        """Record a settled job (caller holds ``_lock``) and forget the
        oldest settled jobs beyond ``queue_capacity``. A job that is
        not (yet, or any longer) the one registered under its id is
        skipped: ``submit`` records it once registered."""
        job_id = job.spec.job_id
        if self._jobs.get(job_id) is not job:
            return
        self._settled[job_id] = None
        self._settled.move_to_end(job_id)
        while len(self._settled) > self._queue.capacity:
            oldest, _ = self._settled.popitem(last=False)
            del self._jobs[oldest]

    def _settle_unexpected(self, job: Job, exc: BaseException) -> None:
        job.anytime.mark_failed(exc)
        self._settle(job, JobState.FAILED,
                     error=f"{type(exc).__name__}: {exc}")

    # -- lifecycle ---------------------------------------------------------
    def drain(self, *, timeout: float | None = None,
              stop_running: bool = False) -> bool:
        """Graceful shutdown: admission off → jobs settle → checkpoints
        flush → workers exit → pool teardown (strictly in that order).

        ``stop_running`` asks in-flight jobs to stop at their next
        publish (they snapshot their checkpoints first, so
        :meth:`resume` / adoption completes them later); otherwise they
        run to completion. Returns ``True`` when everything settled
        within ``timeout``.
        """
        self._queue.close()
        if stop_running:
            with self._lock:
                jobs = list(self._jobs.values())
            for job in jobs:
                if not job.finished:
                    job.anytime.stop()
        settled = self._queue.wait_idle(timeout)
        # Flush every still-armed checkpointer *before* any teardown:
        # a drain must never lose progress, even when jobs overran the
        # timeout.
        flush_all()
        self._stop_event.set()
        for worker in self._workers:
            worker.join(timeout=5.0)
        if self._owns_runtime:
            self.runtime.close()
        if self.observer.enabled:
            self.observer.event("serve.drained", settled=settled)
        return settled

    def close(self) -> None:
        """Fast shutdown: stop running jobs at their next publish (their
        checkpoints flush first) and tear down."""
        self.drain(timeout=30.0, stop_running=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- introspection -----------------------------------------------------
    @property
    def dispatch_log(self) -> list[str]:
        """Tenant name per dispatch, in order — the fair-share audit
        trail the serve-smoke CI job asserts on."""
        return list(self._queue.dispatch_log)

    def jobs(self) -> list[dict]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [job.status() for job in jobs]

    def stats(self) -> dict:
        """Queue snapshot + runtime stats + server metrics."""
        return {
            "owner": self.owner,
            "queue": self._queue.snapshot(),
            "runtime": self.runtime.stats(),
            "metrics": self.observer.metrics.snapshot()
            if self.observer.enabled else {},
            "jobs": {job["job_id"]: job["state"] for job in self.jobs()},
        }

    def __repr__(self) -> str:
        queue = self._queue.snapshot()
        return (f"Server(owner={self.owner!r}, "
                f"workers={len(self._workers)}, "
                f"pending={queue['pending']}, "
                f"backend={self.runtime.backend!r})")
