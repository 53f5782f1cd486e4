"""Worker threads: dispatch loop + the estimator runners.

A worker pops jobs off the :class:`~repro.serve.JobQueue` in stride
order, takes the job's lease, and runs the matching importance estimator
with the job's checkpoint store wired for both writing *and* resuming —
so a fresh job starts clean (empty store), a retried or adopted job
replays its predecessor's snapshot, and both paths are the same code.

The glue between the estimator loop and the serving tier is
:class:`_JobReporter`, the ``partial=`` hook installed on every job: at
each publish it heartbeats the lease (fencing against adoption),
enforces cooperative cancellation, forwards the snapshot to the job's
:class:`~repro.serve.AnytimeEstimate`, and feeds the observer counters.
Estimators are blocking, CPU-bound loops, so workers are plain threads —
parallelism across jobs comes from the thread count, parallelism within
a job from the shared Runtime's executor.
"""

from __future__ import annotations

import threading

from repro.core.exceptions import ValidationError
from repro.importance.banzhaf import DataBanzhaf
from repro.importance.beta_shapley import BetaShapley
from repro.importance.loo import leave_one_out
from repro.importance.shapley_mc import MonteCarloShapley
from repro.runtime.progress import JobCancelled

__all__ = ["Worker", "run_method"]

#: Seconds a worker blocks in one ``JobQueue.pop`` before it rechecks
#: the server's stop flag; a closed, empty queue wakes it at once.
POLL_SECONDS = 0.1


def run_method(method: str, utility, params: dict, *, observer=None,
               checkpoint=None, resume_from=None, partial=None):
    """Run one importance method with serving hooks attached.

    ``params`` go to the estimator verbatim; ``checkpoint`` /
    ``resume_from`` / ``partial`` / ``observer`` are the serving tier's
    standard wiring (always the job's own store for both checkpoint
    directions). Returns the score array.
    """
    common = dict(observer=observer, checkpoint=checkpoint,
                  resume_from=resume_from, partial=partial)
    if method == "shapley_mc":
        return MonteCarloShapley(**params, **common).score(utility)
    if method == "banzhaf":
        return DataBanzhaf(**params, **common).score(utility)
    if method == "beta_shapley":
        return BetaShapley(**params, **common).score(utility)
    if method == "loo":
        return leave_one_out(utility, **params, **common)
    raise ValidationError(f"unknown importance method {method!r}")


class _JobReporter:
    """The ``partial=`` hook one running job installs: lease heartbeat,
    cancellation, anytime forwarding, and publish accounting."""

    def __init__(self, job, lease, lease_manager, *, observer=None,
                 every: int | None = None):
        self.job = job
        self.lease = lease
        self.leases = lease_manager
        self.observer = observer
        self.anytime = job.anytime
        # Estimator loops read .every to bound their batch sizes.
        self.every = every if every is not None else self.anytime.every

    def publish(self, **fields) -> bool:
        if self.job.cancel_requested:
            raise JobCancelled(
                f"job {self.job.spec.job_id!r} cancelled by caller")
        # Heartbeat before publishing: a superseded owner must stop
        # *before* exposing results it no longer owns.
        self.leases.heartbeat(self.lease)
        stop = self.anytime.publish(**fields)
        if self.observer is not None and self.observer.enabled:
            self.observer.count("serve.partials")
            if fields.get("exact"):
                # Closed-form dispatch (e.g. KNN-Shapley exact=True):
                # the job's one published snapshot is the final answer.
                self.observer.count("serve.exact_results")
        return stop


class Worker(threading.Thread):
    """One dispatch thread of a :class:`~repro.serve.Server`."""

    def __init__(self, server, index: int):
        super().__init__(name=f"repro-serve-worker-{index}", daemon=True)
        self.server = server
        self.index = index

    def run(self) -> None:
        server = self.server
        while not server._stop_event.is_set():
            job = server._queue.pop(timeout=POLL_SECONDS)
            if job is None:
                # Exit once no job can dispatch again. Not on idle():
                # that also waits for other workers' running jobs, and
                # pop returns at once on a drained queue, so waiting
                # for them here would spin.
                if server._queue.drained():
                    return
                continue
            try:
                server._execute(job, worker=self.name)
            except Exception as exc:  # defensive: a worker never dies
                try:
                    server._settle_unexpected(job, exc)
                except Exception:
                    pass
