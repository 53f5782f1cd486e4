"""Leave-one-out importance — the simplest data value.

``value(i) = u(D) - u(D \\ {i})``: how much validation quality drops when
example ``i`` is removed. Negative values mean the model *improves*
without the point, the signature of a harmful example. Costs one model
training per training point.
"""

from __future__ import annotations

import numpy as np

from repro.importance.base import Utility
from repro.importance.sampling import Coalitions, FoldRule, SamplingEstimator


def leave_one_out(utility: Utility, *, observer=None, checkpoint=None,
                  checkpoint_every: int = 25, resume_from=None,
                  partial=None) -> np.ndarray:
    """Compute LOO values for every player of ``utility``.

    Returns an array of length ``utility.n_players`` following the
    lower-is-more-harmful convention shared by all importance methods.

    The ``n`` drop-one retrainings are independent, so they are submitted
    as one batch through ``utility.runtime`` (inline when absent).
    ``observer`` (a :class:`repro.observe.Observer`) spans the sweep and
    logs a replayable ``importance.run`` event. ``checkpoint`` /
    ``checkpoint_every`` / ``resume_from`` durably snapshot completed
    drop-one evaluations (LOO is deterministic, so no seed is needed);
    a resumed sweep is hex-identical to an uninterrupted one.

    ``partial`` is the anytime-results hook shared by all importance
    methods (see :func:`repro.importance.base.resolve_partial`). LOO is
    exact, not sampled, so published values carry a standard error of
    ``0`` once computed and ``inf`` while still pending (``NaN`` value);
    returning truthy from ``publish`` stops the sweep with the pending
    tail left as ``NaN`` (snapshotted first when ``checkpoint=`` is
    active, so the job resumes to the exact full-sweep result).
    """
    return _LeaveOneOut(seed=None, observer=observer, checkpoint=checkpoint,
                        checkpoint_every=checkpoint_every,
                        resume_from=resume_from,
                        partial=partial).score(utility)


class _LeaveOneOut(SamplingEstimator):
    """The LOO sweep as the degenerate semivalue: one drop-one coalition
    per player, folded exactly (no sampling, so no seed)."""

    method = "leave_one_out"
    kind = "importance.loo"
    seeded = False

    def _sampler(self, utility: Utility) -> Coalitions:
        everyone = np.arange(utility.n_players)
        return Coalitions([np.delete(everyone, i)
                           for i in range(utility.n_players)],
                          keeps_full_value=True)

    def _fold_rule(self, utility: Utility, sampler) -> "DropOneFold":
        return DropOneFold(utility.n_players, sampler.full_value)


class DropOneFold(FoldRule):
    """LOO's fold rule: ``value(i) = u(D) - u(D \\ {i})``, exact per
    player. Before the sweep completes, pending players are ``NaN`` with
    standard error ``inf``; computed ones carry standard error ``0``."""

    def __init__(self, n: int, full_value: float):
        self.full_value = full_value
        self.values = np.empty(n)

    def fold(self, coalitions, values) -> bool:
        self.values[self.folded:self.folded + len(values)] = values
        self.folded += len(values)
        return False

    def estimate(self) -> np.ndarray:
        estimate = np.full(len(self.values), np.nan)
        estimate[:self.folded] = self.full_value - self.values[:self.folded]
        return estimate

    def stderr(self) -> np.ndarray:
        stderr = np.full(len(self.values), np.inf)
        stderr[:self.folded] = 0.0
        return stderr
