"""Fault tolerance for the execution backends.

A Shapley run is thousands of model trainings fanned out through
:mod:`repro.runtime`; at that scale workers die (OOM kills, signals),
tasks hit transient errors, and a single failure must not lose a
20-minute permutation walk. This module defines the policy and the
vocabulary the executors speak when things go wrong:

- :class:`FaultPolicy` — how a job reacts to failures: per-chunk bounded
  retries with deterministic linear backoff, an optional per-chunk
  timeout, and the ``on_worker_failure`` strategy applied when a process
  pool itself dies (``"retry"`` rebuilds the pool and resubmits only the
  lost chunks; ``"serial"`` degrades the rest of the job to the parent
  process; ``"raise"`` propagates immediately).
- :class:`TaskError` — the structured exception executors raise once a
  chunk's budget is exhausted, carrying stage / chunk / backend / attempt
  attribution with the original exception chained as ``__cause__``.
- :class:`FaultEvent` — the per-incident record an executor hands its
  ``fault_hook``; :class:`~repro.runtime.Runtime` turns each one into
  ``repro.observe`` metrics (``executor.retries`` /
  ``executor.worker_crashes`` / ``executor.timeouts`` /
  ``executor.degraded_runs``), an ``executor.fault`` runlog event and
  an entry on the open span.

Recovery never changes results: tasks are pure functions of their
arguments and every RNG stream is spawned before submission, so a
resubmitted chunk recomputes exactly the values the lost worker would
have produced (see :mod:`repro.runtime.executor` on backend invariance).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.core.exceptions import ReproError, ValidationError
from repro.runtime.progress import JobCancelled

__all__ = [
    "DEFAULT_FAULT_POLICY",
    "FaultEvent",
    "FaultPolicy",
    "TaskError",
    "resolve_fault_policy",
]

#: Strategies for surviving the death of the worker pool itself.
WORKER_FAILURE_MODES = ("retry", "serial", "raise")


class TaskError(ReproError, RuntimeError):
    """A chunk of tasks failed after exhausting its fault budget.

    Carries enough attribution to debug a parallel job without digging
    through worker logs: the stage label, the failed chunk's index, the
    backend it ran on, and how many attempts were made. The original
    exception (or :class:`TimeoutError`, or the pool's
    ``BrokenProcessPool``) is chained as ``__cause__``.
    """

    def __init__(self, *, stage: str, chunk_index: int, backend: str,
                 attempts: int, cause: BaseException):
        self.stage = stage
        self.chunk_index = chunk_index
        self.backend = backend
        self.attempts = attempts
        super().__init__(
            f"stage {stage!r} chunk {chunk_index} failed on the "
            f"{backend!r} backend after {attempts} attempt(s): {cause!r}")


@dataclass(frozen=True)
class FaultPolicy:
    """How an executor reacts to task failures, crashes, and timeouts.

    Attributes
    ----------
    retries:
        Per-chunk budget of *additional* attempts after a task exception
        or chunk timeout. ``0`` fails fast on the first error.
    backoff:
        Base seconds of the deterministic linear backoff: attempt ``k``
        of a chunk waits ``backoff * k`` before resubmission. The wait is
        cancel-aware — a tripped :class:`~repro.runtime.CancellationToken`
        raises :class:`~repro.runtime.JobCancelled` immediately.
    timeout:
        Optional per-chunk wall-clock limit in seconds, enforced by the
        pooled backends. A timed-out chunk consumes one retry; on the
        process backend the stuck worker is killed and the pool rebuilt
        (thread workers cannot be interrupted — the future is abandoned
        and the chunk resubmitted). Ignored by the serial backend, which
        cannot preempt itself.
    on_worker_failure:
        Strategy when the process pool itself breaks (a worker died):
        ``"retry"`` (default) rebuilds the pool and resubmits only the
        chunks that were lost; ``"serial"`` finishes every remaining
        chunk inline in the parent process (graceful degradation);
        ``"raise"`` propagates a :class:`TaskError` immediately.
    max_worker_crashes:
        Bound on pool rebuilds within one ``map`` call under
        ``on_worker_failure="retry"`` — a chunk that keeps killing its
        worker cannot rebuild forever.
    """

    retries: int = 1
    backoff: float = 0.05
    timeout: float | None = None
    on_worker_failure: str = "retry"
    max_worker_crashes: int = 3

    def __post_init__(self):
        if self.retries < 0:
            raise ValidationError("retries must be >= 0")
        if self.backoff < 0:
            raise ValidationError("backoff must be >= 0 seconds")
        if self.timeout is not None and self.timeout <= 0:
            raise ValidationError("timeout must be > 0 seconds (or None)")
        if self.on_worker_failure not in WORKER_FAILURE_MODES:
            raise ValidationError(
                f"on_worker_failure must be one of {WORKER_FAILURE_MODES} "
                f"— got {self.on_worker_failure!r}")
        if self.max_worker_crashes < 0:
            raise ValidationError("max_worker_crashes must be >= 0")


#: The policy used when callers pass ``faults=None``: one retry with a
#: 50 ms backoff, no timeout, crash recovery via pool rebuild.
DEFAULT_FAULT_POLICY = FaultPolicy()


def resolve_fault_policy(faults, *, on_worker_failure: str | None = None
                         ) -> FaultPolicy:
    """Normalize the ``faults=`` argument executors and runtimes accept.

    ``None`` becomes :data:`DEFAULT_FAULT_POLICY`, a dict is expanded to
    ``FaultPolicy(**faults)``, and a :class:`FaultPolicy` passes through.
    ``on_worker_failure`` (when given) overrides that single field — the
    convenience shortcut ``Runtime(on_worker_failure="serial")`` uses.
    """
    if faults is None:
        policy = DEFAULT_FAULT_POLICY
    elif isinstance(faults, FaultPolicy):
        policy = faults
    elif isinstance(faults, dict):
        try:
            policy = FaultPolicy(**faults)
        except TypeError as error:
            raise ValidationError(
                f"invalid FaultPolicy field in {sorted(faults)}: {error}"
            ) from error
    else:
        raise ValidationError(
            "faults must be None, a dict of FaultPolicy fields, or a "
            f"FaultPolicy — got {type(faults).__name__}")
    if on_worker_failure is not None:
        policy = replace(policy, on_worker_failure=on_worker_failure)
    return policy


@dataclass(frozen=True)
class FaultEvent:
    """One fault-handling incident inside an executor ``map`` call.

    Attributes
    ----------
    kind:
        ``"retry"`` (a chunk resubmitted after a task exception or a
        crash), ``"worker_crash"`` (the pool died), ``"timeout"`` (a
        chunk exceeded the per-chunk limit), or ``"degraded"`` (the job
        fell back to serial in-parent execution).
    stage / chunk_index / attempt:
        Attribution: which job, which chunk, which attempt.
    error:
        ``repr`` of the triggering exception.
    elapsed:
        Seconds since the ``map`` call started.
    """

    kind: str
    stage: str
    chunk_index: int
    attempt: int
    error: str
    elapsed: float


def backoff_wait(seconds: float, cancel, stage: str) -> None:
    """Sleep out one deterministic backoff step, honouring cancellation.

    With a token attached the wait uses ``CancellationToken.wait`` so a
    cancel-during-retry aborts immediately with
    :class:`~repro.runtime.JobCancelled` instead of sleeping the backoff
    out.
    """
    if cancel is not None:
        cancel.raise_if_cancelled(stage)
    if seconds <= 0:
        return
    if cancel is None:
        time.sleep(seconds)
    elif cancel.wait(seconds):
        raise JobCancelled(f"{stage} cancelled by caller")
