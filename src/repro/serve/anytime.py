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

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ValidationError

__all__ = ["AnytimeEstimate", "PartialEstimate"]

# Cephes ``ndtri`` (the algorithm behind ``scipy.special.ndtri``): the
# same rational approximations, evaluated in the same order, so ``_z``
# carries the bits scipy returns without importing scipy on the serve
# path. P0/Q0 cover |y - 0.5| <= 3/8; P1/Q1 and P2/Q2 cover the tails
# in x = sqrt(-2 log y) on [2, 8) and [8, 64).
_S2PI = 2.50662827463100050242E0
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """The standard normal quantile: ``x`` with ``Phi(x) == y0``."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXPM2:
        y = 1.0 - y
        negate = False
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


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
        self._z = _ndtri(0.5 + self.confidence / 2.0)
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
