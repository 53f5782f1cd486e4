"""Admission control and weighted-fair scheduling for the job tier.

One process serves many tenants; two failure modes must be designed
away. *Overload*: an unbounded queue converts a burst into unbounded
memory and unbounded latency for everyone — so the queue is bounded,
per-tenant quotas cap how much of it one tenant may occupy, and an
over-limit submission is rejected immediately with a ``retry_after``
hint (:class:`AdmissionError`) rather than silently parked. *Capture*:
FIFO dispatch lets a tenant that submits 100 jobs starve one that
submits 2 — so dispatch order is **stride scheduling**: each tenant
carries a virtual ``pass`` advancing by ``1/weight`` per job dispatched,
and the queue always serves the eligible tenant with the smallest pass.
Over any window, tenant throughput is proportional to weight, to within
one job — the property the serve-smoke CI job asserts.

Within a tenant, higher ``priority`` dispatches first; ties break by
admission order, so scheduling is fully deterministic.
"""

from __future__ import annotations

import heapq
import threading
import time

from repro.core.exceptions import ReproError, ValidationError
from repro.serve.jobs import Job

__all__ = ["AdmissionError", "JobQueue"]


class AdmissionError(ReproError, RuntimeError):
    """Submission rejected by admission control (queue or quota full).

    ``retry_after`` is the server's backoff hint in seconds; resubmit
    after that long. ``reason`` is ``"queue_full"``, ``"tenant_quota"``
    or ``"draining"``.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 reason: str = "queue_full"):
        super().__init__(message)
        self.retry_after = float(retry_after)
        self.reason = reason


class _TenantLane:
    """One tenant's scheduling state: priority heap + stride pass."""

    __slots__ = ("name", "weight", "max_pending", "max_active", "heap",
                 "pass_", "active", "dispatched")

    def __init__(self, name: str, *, weight: float = 1.0,
                 max_pending: int | None = None,
                 max_active: int | None = None):
        if weight <= 0:
            raise ValidationError("tenant weight must be > 0")
        self.name = name
        self.weight = float(weight)
        self.max_pending = max_pending
        self.max_active = max_active
        self.heap: list[tuple[int, int, Job]] = []  # (-priority, seq, job)
        self.pass_ = 0.0
        self.active = 0      # jobs dispatched but not yet task_done()
        self.dispatched = 0  # lifetime dispatch count (fair-share audit)

    @property
    def stride(self) -> float:
        return 1.0 / self.weight


class JobQueue:
    """Bounded, multi-tenant job queue with stride-scheduled dispatch.

    Parameters
    ----------
    capacity:
        Total pending jobs admitted across all tenants.
    retry_after:
        Base backoff hint stamped on rejections, scaled up as the queue
        fills past capacity.
    observer:
        Optional :class:`repro.observe.Observer` fed the ``serve.queue``
        counters (``admitted`` / ``rejected`` / ``dispatched``) and the
        ``serve.queue_depth`` gauge.

    Tenants are registered with :meth:`configure_tenant` (weight,
    pending/active quotas); unknown tenants are auto-registered at
    weight 1. All methods are thread-safe; :meth:`pop` blocks.
    """

    def __init__(self, capacity: int = 64, *, retry_after: float = 1.0,
                 observer=None):
        if capacity < 1:
            raise ValidationError("capacity must be >= 1")
        self.capacity = capacity
        self.base_retry_after = retry_after
        from repro.observe.observer import resolve_observer
        self.observer = resolve_observer(observer)
        self._cond = threading.Condition()
        self._lanes: dict[str, _TenantLane] = {}
        self._pending = 0
        self._parked: list[Job] = []  # lease-backoff jobs, time-gated
        self._closed = False
        self.dispatch_log: list[str] = []  # tenant per dispatch, in order

    # -- tenants -----------------------------------------------------------
    def configure_tenant(self, name: str, *, weight: float = 1.0,
                         max_pending: int | None = None,
                         max_active: int | None = None) -> None:
        """Register (or reconfigure) a tenant's weight and quotas."""
        with self._cond:
            lane = self._lanes.get(name)
            if lane is None:
                lane = _TenantLane(name, weight=weight,
                                   max_pending=max_pending,
                                   max_active=max_active)
                # A newly-active tenant starts at the current virtual
                # time, not 0 — otherwise it would monopolize dispatch
                # until its pass catches up with the incumbents'.
                lane.pass_ = self._virtual_time()
                self._lanes[name] = lane
            else:
                if weight <= 0:
                    raise ValidationError("tenant weight must be > 0")
                lane.weight = float(weight)
                lane.max_pending = max_pending
                lane.max_active = max_active

    def _lane(self, name: str) -> _TenantLane:
        if name not in self._lanes:
            self.configure_tenant(name)
        return self._lanes[name]

    def _virtual_time(self) -> float:
        busy = [lane.pass_ for lane in self._lanes.values()
                if lane.heap or lane.active]
        return min(busy) if busy else 0.0

    # -- admission ---------------------------------------------------------
    def push(self, job: Job) -> None:
        """Admit one job, or raise :class:`AdmissionError`."""
        with self._cond:
            if self._closed:
                raise AdmissionError("queue is draining; no new jobs",
                                     retry_after=self.base_retry_after,
                                     reason="draining")
            lane = self._lane(job.spec.tenant)
            if self._pending >= self.capacity:
                raise AdmissionError(
                    f"queue full ({self.capacity} pending); retry later",
                    retry_after=self._retry_hint(), reason="queue_full")
            if lane.max_pending is not None \
                    and len(lane.heap) >= lane.max_pending:
                raise AdmissionError(
                    f"tenant {lane.name!r} is at its pending quota "
                    f"({lane.max_pending})",
                    retry_after=self._retry_hint(), reason="tenant_quota")
            heapq.heappush(lane.heap, (-job.spec.priority, job.seq, job))
            self._pending += 1
            if self.observer.enabled:
                self.observer.count("serve.queue.admitted")
                self.observer.gauge("serve.queue_depth", self._pending)
            self._cond.notify()

    def _retry_hint(self) -> float:
        # Fuller queue → longer suggested backoff; crude but monotone.
        fill = self._pending / self.capacity if self.capacity else 1.0
        return self.base_retry_after * max(1.0, 2.0 * fill)

    def reject_observed(self) -> None:
        """Count one rejection (the server calls this so the counter
        lands next to the queue's own)."""
        if self.observer.enabled:
            self.observer.count("serve.queue.rejected")

    # -- lease-backoff parking ---------------------------------------------
    def park(self, job: Job, *, delay: float) -> None:
        """Hold a job out of dispatch for ``delay`` seconds — used when
        its lease is still held by another live worker. The deadline
        lives on the monotonic clock so a wall-clock step can neither
        release a parked job early nor strand it."""
        with self._cond:
            job.not_before = time.monotonic() + max(0.0, delay)
            self._parked.append(job)
            self._cond.notify()

    def _unpark_ready(self, now: float) -> None:
        # caller holds the lock
        ready = [job for job in self._parked if job.not_before <= now]
        if not ready:
            return
        self._parked = [job for job in self._parked
                        if job.not_before > now]
        for job in ready:
            lane = self._lane(job.spec.tenant)
            heapq.heappush(lane.heap, (-job.spec.priority, job.seq, job))
            self._pending += 1

    # -- dispatch ----------------------------------------------------------
    def pop(self, timeout: float | None = None) -> Job | None:
        """Dispatch the next job by stride order; ``None`` on timeout,
        and at once when the queue is :meth:`drained`.

        Skips tenants at their ``max_active`` quota and jobs parked for
        lease backoff. Cancelled-while-pending jobs are dropped here
        (returned to the caller, which settles them as cancelled).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                self._unpark_ready(time.monotonic())
                lane = self._pick_lane()
                if lane is not None:
                    _, _, job = heapq.heappop(lane.heap)
                    self._pending -= 1
                    lane.pass_ += lane.stride
                    lane.active += 1
                    lane.dispatched += 1
                    self.dispatch_log.append(lane.name)
                    if self.observer.enabled:
                        self.observer.count("serve.queue.dispatched")
                        self.observer.gauge("serve.queue_depth",
                                            self._pending)
                    return job
                if self._drained():
                    return None
                wait = self._next_wait(deadline)
                if wait is not None and wait <= 0:
                    return None
                if not self._cond.wait(timeout=wait):
                    if deadline is not None \
                            and time.monotonic() >= deadline:
                        return None

    def _pick_lane(self) -> _TenantLane | None:
        # caller holds the lock; smallest pass wins, name breaks ties so
        # dispatch order is deterministic given admission order.
        best = None
        for lane in sorted(self._lanes.values(), key=lambda l: l.name):
            if not lane.heap:
                continue
            if lane.max_active is not None \
                    and lane.active >= lane.max_active:
                continue
            if best is None or lane.pass_ < best.pass_:
                best = lane
        return best

    def _next_wait(self, deadline) -> float | None:
        # caller holds the lock; bound the wait by the pop deadline and
        # the earliest parked job's wake time.
        waits = []
        if deadline is not None:
            waits.append(deadline - time.monotonic())
        if self._parked:
            earliest = min(job.not_before for job in self._parked)
            waits.append(max(0.0, earliest - time.monotonic()) + 1e-3)
        return min(waits) if waits else None

    def task_done(self, tenant: str) -> None:
        """Report one dispatched job settled (any terminal state)."""
        with self._cond:
            lane = self._lane(tenant)
            lane.active = max(0, lane.active - 1)
            self._cond.notify_all()

    # -- lifecycle / introspection -----------------------------------------
    def close(self) -> None:
        """Stop admitting; pending jobs still dispatch (drain mode)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def remove(self, job: Job) -> bool:
        """Drop a pending/parked job (cancellation); ``True`` if found."""
        with self._cond:
            for lane in self._lanes.values():
                for i, (_, _, queued) in enumerate(lane.heap):
                    if queued is job:
                        lane.heap.pop(i)
                        heapq.heapify(lane.heap)
                        self._pending -= 1
                        return True
            if job in self._parked:
                self._parked.remove(job)
                return True
        return False

    def _drained(self) -> bool:
        # caller holds the lock
        return self._closed and self._pending == 0 and not self._parked

    def drained(self) -> bool:
        """Closed with nothing pending or parked: no job will dispatch
        again (jobs already dispatched may still be running)."""
        with self._cond:
            return self._drained()

    @property
    def pending(self) -> int:
        with self._cond:
            return self._pending + len(self._parked)

    @property
    def active(self) -> int:
        with self._cond:
            return sum(lane.active for lane in self._lanes.values())

    def idle(self) -> bool:
        with self._cond:
            return (self._pending == 0 and not self._parked
                    and all(lane.active == 0
                            for lane in self._lanes.values()))

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is pending, parked, or active."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not (self._pending == 0 and not self._parked
                       and all(lane.active == 0
                               for lane in self._lanes.values())):
                wait = 0.05
                if deadline is not None:
                    wait = min(wait, deadline - time.monotonic())
                    if wait <= 0:
                        return False
                self._cond.wait(timeout=wait)
            return True

    def snapshot(self) -> dict:
        """Per-tenant scheduling state for stats/monitoring."""
        with self._cond:
            return {
                "capacity": self.capacity,
                "pending": self._pending,
                "parked": len(self._parked),
                "closed": self._closed,
                "tenants": {
                    lane.name: {
                        "weight": lane.weight,
                        "pending": len(lane.heap),
                        "active": lane.active,
                        "dispatched": lane.dispatched,
                        "pass": lane.pass_,
                    } for lane in self._lanes.values()
                },
            }
