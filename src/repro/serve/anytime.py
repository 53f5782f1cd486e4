"""Anytime (streaming) results for importance jobs.

A Monte-Carlo importance job improves monotonically: every folded
permutation tightens the estimate. Serving therefore should not hold the
result hostage until the last sample lands — :class:`AnytimeEstimate` is
the bridge between an estimator loop and a consumer that wants the
*current* answer with honest error bars.

The estimator side is the ``partial=`` hook every importance method
accepts (:func:`repro.importance.base.resolve_partial`): after each
folded work unit the loop calls :meth:`AnytimeEstimate.publish` with the
running values and their CLT standard errors. The consumer side reads
:meth:`latest`, iterates :meth:`stream`, or arms :meth:`stop_when` — the
early-stop predicate that turns a fixed-budget job into an
accuracy-budget one ("stop when every player's 95% confidence interval
is narrower than 0.05").

Both sides may live on different threads; every method is thread-safe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ValidationError

__all__ = ["AnytimeEstimate", "PartialEstimate"]


@dataclass(frozen=True)
class PartialEstimate:
    """One published snapshot of a running importance estimate.

    ``values[i]`` is the current estimate for player ``i`` and
    ``stderr[i]`` its CLT standard error (``inf`` while a player has too
    few samples to estimate spread, ``0`` for exact methods like LOO).
    ``halfwidth`` is the two-sided confidence-interval half-width at the
    estimate's ``confidence`` level: ``values ± halfwidth`` covers the
    true value with that probability, per player, under the CLT
    approximation. ``exact`` marks snapshots from a closed-form dispatch
    (e.g. KNN-Shapley with ``exact=True``): the values are the method's
    exact answer, not a converging sample mean.
    """

    method: str
    completed: int
    total: int
    values: np.ndarray
    stderr: np.ndarray
    halfwidth: np.ndarray
    confidence: float
    seq: int
    done: bool = False
    error: str | None = None
    exact: bool = False

    @property
    def width(self) -> float:
        """The widest player's CI half-width — the figure
        :meth:`AnytimeEstimate.stop_when` compares against."""
        return float(np.max(self.halfwidth)) if len(self.halfwidth) \
            else 0.0

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


class AnytimeEstimate:
    """Thread-safe mailbox between one estimator loop and its consumers.

    Parameters
    ----------
    every:
        Publish cadence hint in completed work units; the estimator
        loops also use it to bound their batch sizes so partial results
        stay responsive on pooled backends.
    confidence:
        Two-sided confidence level of the published intervals
        (``halfwidth = z * stderr`` with the matching normal quantile).

    Pass an instance as ``partial=`` to any importance estimator; read
    it from anywhere. An armed :meth:`stop_when` (or an explicit
    :meth:`stop`) makes the *next* publish return truthy, which the
    estimator loops treat as "snapshot your checkpoint and return the
    current estimate".
    """

    def __init__(self, *, every: int = 1, confidence: float = 0.95):
        if not 0.0 < confidence < 1.0:
            raise ValidationError("confidence must be in (0, 1)")
        if every < 1:
            raise ValidationError("every must be >= 1")
        self.every = int(every)
        self.confidence = float(confidence)
        from scipy.special import ndtri

        self._z = float(ndtri(0.5 + confidence / 2.0))
        self._cond = threading.Condition()
        self._seq = 0
        self._latest: PartialEstimate | None = None
        self._stop_width: float | None = None
        self._stop = False
        self._done = False

    # -- estimator side ----------------------------------------------------
    def publish(self, *, method: str, completed: int, total: int,
                values, stderr, exact: bool = False) -> bool:
        """Record one snapshot; ``True`` asks the loop to stop early.

        Called by the estimator after each folded work unit. The arrays
        are copied, so the loop may keep mutating its accumulators.
        ``exact=True`` marks a closed-form result (published once, with
        zero stderr) rather than a converging sample mean.
        """
        values = np.array(values, dtype=float, copy=True)
        stderr = np.array(stderr, dtype=float, copy=True)
        with np.errstate(invalid="ignore"):
            halfwidth = self._z * stderr
        with self._cond:
            self._seq += 1
            snapshot = PartialEstimate(
                method=method, completed=int(completed), total=int(total),
                values=values, stderr=stderr, halfwidth=halfwidth,
                confidence=self.confidence, seq=self._seq, exact=exact)
            self._latest = snapshot
            self._cond.notify_all()
            if self._stop:
                return True
            return (self._stop_width is not None
                    and snapshot.width <= self._stop_width)

    def mark_done(self, values=None) -> None:
        """Estimator finished: republish the latest snapshot with
        ``done=True`` (optionally replacing the values with the final
        ones) and wake every streaming consumer."""
        with self._cond:
            self._done = True
            latest = self._latest
            self._seq += 1
            if latest is None:
                n = 0 if values is None else len(values)
                final = np.zeros(n) if values is None \
                    else np.asarray(values, dtype=float)
                latest = PartialEstimate(
                    method="", completed=0, total=0, values=final,
                    stderr=np.zeros(n), halfwidth=np.zeros(n),
                    confidence=self.confidence, seq=self._seq, done=True)
            else:
                latest = PartialEstimate(
                    method=latest.method, completed=latest.completed,
                    total=latest.total,
                    values=np.asarray(values, dtype=float)
                    if values is not None else latest.values,
                    stderr=latest.stderr, halfwidth=latest.halfwidth,
                    confidence=self.confidence, seq=self._seq, done=True,
                    exact=latest.exact)
            self._latest = latest
            self._cond.notify_all()

    def mark_failed(self, error: BaseException | str) -> None:
        """Estimator died: wake consumers with the error attached."""
        with self._cond:
            self._done = True
            self._seq += 1
            latest = self._latest
            n = len(latest.values) if latest is not None else 0
            self._latest = PartialEstimate(
                method=latest.method if latest else "",
                completed=latest.completed if latest else 0,
                total=latest.total if latest else 0,
                values=latest.values if latest else np.zeros(n),
                stderr=latest.stderr if latest else np.zeros(n),
                halfwidth=latest.halfwidth if latest else np.zeros(n),
                confidence=self.confidence, seq=self._seq, done=True,
                error=str(error),
                exact=latest.exact if latest is not None else False)
            self._cond.notify_all()

    # -- consumer side -----------------------------------------------------
    def latest(self) -> PartialEstimate | None:
        """The newest snapshot, or ``None`` before the first publish."""
        with self._cond:
            return self._latest

    @property
    def done(self) -> bool:
        with self._cond:
            return self._done

    def stop_when(self, width: float) -> None:
        """Arm the accuracy-budget early stop: the estimator stops at
        the first publish whose widest CI half-width is ``<= width``.
        (``inf`` stderr — too few samples — can never satisfy it.)"""
        if width < 0:
            raise ValidationError("width must be >= 0")
        with self._cond:
            self._stop_width = float(width)

    def stop(self) -> None:
        """Ask the estimator to stop at its next publish, whatever the
        current interval width."""
        with self._cond:
            self._stop = True

    def wait(self, *, seq: int = 0, timeout: float | None = None
             ) -> PartialEstimate | None:
        """Block until a snapshot newer than ``seq`` exists (or the
        estimate is done); ``None`` on timeout."""
        with self._cond:
            self._cond.wait_for(
                lambda: self._seq > seq or self._done, timeout=timeout)
            return self._latest if self._seq > seq or self._done else None

    def stream(self, *, timeout: float | None = None):
        """Yield each new snapshot as it is published, ending with the
        ``done=True`` one. ``timeout`` bounds each wait, not the whole
        stream; a wait that times out ends the stream."""
        seen = 0
        while True:
            snapshot = self.wait(seq=seen, timeout=timeout)
            if snapshot is None:
                return
            if snapshot.seq > seen:
                seen = snapshot.seq
                yield snapshot
            if snapshot.done:
                return
