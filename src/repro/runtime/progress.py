"""Progress reporting and cooperative cancellation for long-running jobs.

Scoring a coalition game means thousands of model trainings; users need
to see progress and be able to abort. Both concerns use the same
lightweight protocol: executors emit :class:`ProgressEvent` records to a
``progress`` callable after every completed chunk, and poll a
:class:`CancellationToken` between chunk submissions. Cancellation is
*cooperative* — an in-flight model training finishes, but no new chunk is
dispatched once the token trips, and the job raises :class:`JobCancelled`
after the remaining in-flight chunks drain. The fault-tolerance layer
(:mod:`repro.runtime.faults`) speaks the same protocol: retry backoff
waits are cancel-aware via :meth:`CancellationToken.wait`, so a job can
be aborted even while it is sleeping between attempts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.exceptions import ReproError


class JobCancelled(ReproError, RuntimeError):
    """Raised by an executor when its cancellation token was tripped."""


@dataclass(frozen=True)
class ProgressEvent:
    """One progress tick, emitted after each completed chunk.

    Attributes
    ----------
    stage:
        Logical name of the running job (e.g. ``"shapley_mc"``).
    completed / total:
        Tasks finished so far and the job's task count.
    elapsed:
        Seconds since the job started.
    """

    stage: str
    completed: int
    total: int
    elapsed: float

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


class CancellationToken:
    """Thread-safe one-way abort switch shared between caller and job."""

    def __init__(self):
        self._event = threading.Event()

    def cancel(self) -> None:
        """Trip the token; every job polling it aborts at its next chunk
        boundary."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds; ``True`` when the token
        tripped. Lets retry backoff sleeps abort immediately on
        cancellation instead of sleeping the backoff out."""
        return self._event.wait(timeout)

    def raise_if_cancelled(self, stage: str = "job") -> None:
        if self.cancelled:
            raise JobCancelled(f"{stage} cancelled by caller")


@dataclass
class ProgressRecorder:
    """A ``progress`` callable that keeps every event — handy in tests and
    for rendering a trailing progress line."""

    events: list[ProgressEvent] = field(default_factory=list)

    def __call__(self, event: ProgressEvent) -> None:
        self.events.append(event)

    @property
    def last(self) -> ProgressEvent | None:
        return self.events[-1] if self.events else None


def cancel_after(token: CancellationToken, n_events: int):
    """Build a ``progress`` hook that trips ``token`` after ``n_events``
    ticks — the canonical way to abort a job partway through."""
    counter = {"seen": 0}

    def hook(event: ProgressEvent) -> None:
        counter["seen"] += 1
        if counter["seen"] >= n_events:
            token.cancel()

    return hook
