"""The one sampling loop behind the semivalue estimators.

Shapley, Beta Shapley, Data Banzhaf and leave-one-out are one family
(semivalues). Each estimator supplies only

- its **sampler** (:class:`Sampler`): the units of work in sample order
  (``spawn_rngs(seed, n)`` permutations, MSR coalitions, drop-one
  coalitions), how a batch of them is evaluated through the
  :class:`Utility` batch APIs, and how their results are snapshotted,
- its **fold rule** (:class:`FoldRule`): how evaluated units accumulate
  into the estimate (uniform with a convergence check, Beta(α, β) size
  weights, MSR in/out sums, LOO's exact ``u(D) - u(D \\ {i})``).

:class:`SamplingEstimator` owns the rest, once: batching, in-order
folding (bit-identical to a single-pass reduction on any backend and
batch size), anytime partials and their early stop, checkpoint flushes
and resume replay, and the observer span, folded-unit counter and
``importance.run`` event.

Batch size is the whole unit list when nothing can interrupt the loop;
otherwise the smallest cadence that applies: ``checkpoint_every``, the
partial hook's ``every``, and ``max(convergence_window, workers)`` for a
fold rule with a convergence window.
"""

from __future__ import annotations

import numpy as np

from repro.core.rng import spawn_rngs
from repro.importance.base import (
    Utility,
    hex_floats,
    require_checkpoint_seed,
    resolve_partial,
    unhex_floats,
)
from repro.observe.observer import resolve_observer
from repro.runtime.checkpoint import LoopCheckpointer


def sample_permutations(seed, count: int, n: int) -> list:
    """``count`` permutations of ``n`` players, number ``i`` drawn from
    stream ``spawn_rngs(seed, count)[i]``."""
    return [rng.permutation(n) for rng in spawn_rngs(seed, count)]


class Sampler:
    """The units of one run, in sample order, and how a batch of them
    is evaluated and snapshotted.

    With ``keeps_full_value`` the run depends on ``u(D)`` (TMC
    truncation, LOO's ``full - value``): :meth:`start` evaluates it, or
    restores it bit-exactly from a resumed snapshot's ``full_value``.
    """

    #: Counter of folded units.
    counter: str
    #: Snapshot key of the evaluated units' results.
    key: str

    def __init__(self, units: list, *, keeps_full_value: bool = False):
        self.units = units
        self.keeps_full_value = keeps_full_value
        self.full_value: float | None = None

    def start(self, utility: Utility, payload: dict | None) -> None:
        """Set up the run's constants (``payload``: resumed snapshot)."""
        if not self.keeps_full_value:
            return
        self.full_value = float.fromhex(payload["full_value"]) \
            if payload is not None else utility.full_value()

    def snapshot(self, results: list) -> dict:
        """The payload fields that restore ``results`` on resume."""
        fields = {self.key: self.encode(results)}
        if self.full_value is not None:
            fields["full_value"] = self.full_value.hex()
        return fields


class PermutationWalks(Sampler):
    """Permutations, each walked prefix by prefix
    (:meth:`Utility.walk_permutations`) into one marginal array."""

    counter = "importance.permutations"
    key = "marginals"

    def __init__(self, units: list, *, truncation_tol: float = 0.0,
                 keeps_full_value: bool = False):
        super().__init__(units, keeps_full_value=keeps_full_value)
        self.truncation_tol = truncation_tol

    def evaluate(self, utility: Utility, batch: list, stage: str) -> list:
        return utility.walk_permutations(
            batch, truncation_tol=self.truncation_tol,
            full_value=self.full_value, stage=stage)

    def encode(self, results: list) -> list:
        return [hex_floats(m) for m in results]

    def decode(self, stored: list) -> list:
        return [unhex_floats(m) for m in stored]


class Coalitions(Sampler):
    """Coalitions (index arrays), each evaluated to one ``u(S)``
    (:meth:`Utility.evaluate_many`)."""

    counter = "importance.coalitions"
    key = "values"

    def evaluate(self, utility: Utility, batch: list, stage: str) -> list:
        return list(utility.evaluate_many(batch, stage=stage))

    def encode(self, results: list) -> list:
        return hex_floats(results)

    def decode(self, stored: list) -> list:
        return list(unhex_floats(stored))


class FoldRule:
    """How one estimator folds evaluated units into its running estimate.

    Subclasses implement ``fold(units, results) -> bool``, which folds
    one batch in sample order and returns ``True`` to stop the loop on
    convergence (the estimate is then final and nothing is published),
    plus ``estimate()`` and its per-player ``stderr()``. ``folded``
    counts the units folded so far; ``window`` is the convergence
    cadence that bounds batches, ``None`` for rules without one.
    """

    folded: int = 0
    window: int | None = None


def emit_importance_run(observer, *, method: str, params: dict, seed,
                        utility: Utility, calls_before: int,
                        values: np.ndarray, **extra) -> None:
    """Log the standard replayable ``importance.run`` provenance event.

    The event carries the (method, params, seed, data fingerprint) tuple
    that — by the backend-invariance guarantee — fully determines
    ``values``, plus the training count and a score summary for cheap
    run diffing.
    """
    observer.count("utility.evaluations", utility.calls - calls_before)
    observer.event(
        "importance.run", method=method, params=params, seed=seed,
        n_players=utility.n_players,
        data_fingerprint=utility.base_fingerprint(),
        utility_calls=utility.calls - calls_before,
        kernel=utility.kernel_name,
        kernel_incremental_steps=utility.kernel_steps,
        kernel_fallback_retrains=utility.fallback_retrains,
        score_mean=float(np.mean(values)),
        score_min=float(np.min(values)), score_max=float(np.max(values)),
        **extra)


class _Session:
    """One run's checkpoint state: the loop checkpointer, utility-counter
    deltas, and the fingerprint-cache put journal.

    Snapshots carry (cumulatively, since the *original* run's start) the
    trainings performed, the kernel path counters, and every ``(key,
    value)`` the run put into the runtime's
    :class:`~repro.runtime.FingerprintCache` — so a resumed run restores
    the skipped work's side effects (``Utility.calls``, cache keys and
    bitwise values) exactly, not just its scores.
    """

    def __init__(self, ckpt: LoopCheckpointer, utility: Utility):
        self.ckpt = ckpt
        self.utility = utility
        self.cache = utility.runtime.cache if utility.runtime is not None \
            else None
        self._journal = None
        if ckpt.store is None:
            return  # no snapshots: no counter bases, no journal
        self._calls_base = utility.calls
        self._kernel_base = utility.kernel_steps
        self._fallback_base = utility.fallback_retrains
        # Journal from the very start so snapshots carry the cumulative
        # cache writes; resume() re-puts the restored entries *through*
        # the journal, keeping the cumulative invariant across kills.
        if self.cache is not None:
            self._journal = self.cache.start_journal()

    def resume(self) -> dict | None:
        """Load the snapshot and replay its side effects (counters,
        cache entries); returns the payload, or ``None`` to start
        fresh."""
        payload = self.ckpt.resume()
        if payload is None:
            return None
        self.utility.restore_accounting(
            calls=payload.get("calls", 0),
            kernel_steps=payload.get("kernel_steps", 0),
            fallback_retrains=payload.get("fallback_retrains", 0))
        if self.cache is not None:
            for key, hexval in payload.get("cache_entries", []):
                self.cache.put(key, float.fromhex(hexval))
        return payload

    def state(self, completed: int) -> dict:
        utility = self.utility
        return {
            "completed": int(completed),
            "calls": utility.calls - self._calls_base,
            "kernel_steps": utility.kernel_steps - self._kernel_base,
            "fallback_retrains":
                utility.fallback_retrains - self._fallback_base,
            "cache_entries": [[key, float(value).hex()]
                              for key, value in self._journal]
            if self._journal is not None else [],
        }

    def close(self) -> None:
        if self._journal is not None:
            self.cache.stop_journal(self._journal)


class SamplingEstimator:
    """Base of the sampling importance estimators: the shared loop.

    A subclass sets the class attributes below and supplies
    ``_sampler(utility)`` (a fresh :class:`Sampler` per run),
    ``_fold_rule(utility, sampler)`` (a fresh :class:`FoldRule`, built
    after :meth:`Sampler.start`) and ``_params()`` (every parameter
    that determines the result); :meth:`score` runs the loop the module
    docstring describes.
    """

    #: Span, runtime stage, published ``method=`` and resume-event name.
    method: str
    #: Checkpoint record kind (the payload schema).
    kind: str
    #: Whether checkpointing needs an integer seed to regenerate units.
    seeded: bool = True

    def __init__(self, *, seed, observer, checkpoint, checkpoint_every,
                 resume_from, partial):
        self.seed = seed
        self.observer = resolve_observer(observer)
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume_from = resume_from
        self.partial = resolve_partial(partial)
        if self.seeded and (checkpoint is not None
                            or resume_from is not None):
            require_checkpoint_seed(seed, self.method)

    def _params(self) -> dict:
        """The ``params`` of the ``importance.run`` event."""
        return {}

    def _identity(self, utility: Utility) -> tuple:
        """Checkpoint identity parts of the job: params, seed and data."""
        seed = (self.seed,) if self.seeded else ()
        return (self.kind.replace("importance.", "checkpoint."),
                *self._params().values(), *seed, utility.base_fingerprint())

    def _run_extra(self) -> dict:
        """Extra ``importance.run`` event fields."""
        return {}

    def _closed_form(self, utility: Utility) -> np.ndarray | None:
        """Values that replace sampling altogether, or ``None`` to
        sample. A closed form publishes one final ``exact=True`` partial
        and is reported with ``exact=True`` on the ``importance.run``
        event."""
        return None

    def score(self, utility: Utility) -> np.ndarray:
        """Score every player of ``utility``."""
        obs = self.observer
        calls_before = utility.calls
        values = self._closed_form(utility)
        exact = {"exact": True} if values is not None else {}
        if exact:
            self._folded = 0
            if self.partial is not None:
                self.partial.publish(
                    method=self.method, completed=1, total=1, values=values,
                    stderr=np.zeros(len(values)), exact=True)
        elif not obs.enabled:
            return self._sample(utility)[0]
        else:
            cache = utility.runtime.cache if utility.runtime is not None \
                else None
            with obs.span(self.method, cache=cache,
                          players=utility.n_players):
                values, counter = self._sample(utility)
            obs.count(counter, self._folded)
        if obs.enabled:
            emit_importance_run(
                obs, method=self.method, params={**self._params(), **exact},
                seed=self.seed, utility=utility, calls_before=calls_before,
                values=values, **self._run_extra(), **exact)
        return values

    def _open_session(self, utility: Utility) -> _Session:
        """The run's checkpoint session (inert without ``checkpoint=``
        and ``resume_from=``). The identity is computed only when
        checkpointing: an inert run neither hashes the game nor needs a
        utility that can. Falls back to the runtime's observer when the
        estimator has none, so checkpoint accounting lands wherever the
        run is observed."""
        observer = self.observer
        if not observer.enabled and utility.runtime is not None:
            observer = utility.runtime.observer
        ckpt = LoopCheckpointer(
            self.checkpoint, kind=self.kind,
            identity=lambda: self._identity(utility),
            every=self.checkpoint_every, observer=observer,
            resume_from=self.resume_from)
        return _Session(ckpt, utility)

    def _batch_size(self, utility: Utility, rule: FoldRule,
                    ckpt: LoopCheckpointer, total: int) -> int:
        cadences = []
        if ckpt.identity is not None:  # checkpointing or resuming
            cadences.append(ckpt.every)
        if self.partial is not None:
            cadences.append(max(1, int(getattr(self.partial, "every", 1)
                                       or 1)))
        if rule.window is not None:
            workers = (utility.runtime.executor.effective_workers
                       if utility.runtime is not None else 1)
            cadences.append(max(rule.window, workers))
        return min(cadences, default=total)

    def _sample(self, utility: Utility) -> tuple[np.ndarray, str]:
        """Run the loop; returns the estimate and the unit counter."""
        sampler = self._sampler(utility)
        session = self._open_session(utility)
        try:
            return self._loop(utility, sampler, session), sampler.counter
        finally:
            session.close()

    def _loop(self, utility: Utility, sampler: Sampler,
              session: _Session) -> np.ndarray:
        units = sampler.units
        total = len(units)
        results: list = []  # evaluated units' results, sample order
        ckpt = session.ckpt
        payload = session.resume()
        if payload is not None:
            results = sampler.decode(payload[sampler.key])
            ckpt.record_skipped(
                completed=len(results), total=total,
                skipped_units=len(results), method=self.method)
        sampler.start(utility, payload)
        rule = self._fold_rule(utility, sampler)
        size = self._batch_size(utility, rule, ckpt, total)

        def fold(batch: list, batch_results: list) -> bool:
            """Fold one batch and publish; ``True`` to stop the loop."""
            if rule.fold(batch, batch_results):
                return True  # converged: the estimate is final
            if self.partial is None or not self.partial.publish(
                    method=self.method, completed=rule.folded, total=total,
                    values=rule.estimate(), stderr=rule.stderr()):
                return False
            # An anytime stop leaves a durable, resumable snapshot: the
            # resumed run replays it and continues to the full result.
            ckpt.flush()
            return True

        def snapshot() -> dict:
            return {**session.state(len(results)),
                    **sampler.snapshot(results)}

        with ckpt.armed(snapshot):
            # The snapshot's units replay in the same batches, through
            # the same fold rule, as the uninterrupted run's: running
            # sums, publishes and stop points are bit-identical to it.
            done = 0
            stop = False
            while not stop and done < total:
                end = min(done + size, total)
                if end > len(results):
                    results.extend(sampler.evaluate(
                        utility, units[len(results):end], self.method))
                stop = fold(units[done:end], results[done:end])
                done = end
                if not stop:
                    ckpt.maybe_flush(len(results))
        self._folded = rule.folded
        return rule.estimate()
