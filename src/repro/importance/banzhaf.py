"""Data Banzhaf values (Wang & Jia, paper ref [80]).

The Banzhaf value weights every coalition equally (each other player is
included independently with probability 1/2), which makes it provably the
most *noise-robust* semivalue — rankings survive noisy utility evaluations
better than Shapley's. Estimated with the Maximum-Sample-Reuse (MSR)
estimator: every sampled coalition updates the estimate of *all* players::

    φ_i ≈ mean(u(S) : i ∈ S) - mean(u(S) : i ∉ S)

**Determinism guarantee.** Coalition ``t`` is drawn from its own RNG
stream (split from the root seed via :func:`repro.core.rng.spawn_rngs`)
and evaluated as an independent task through the utility's runtime, so
the estimate depends only on ``(seed, n_samples)`` — not on the backend,
worker count, or completion order.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.rng import spawn_rngs
from repro.importance.base import Utility
from repro.importance.sampling import Coalitions, FoldRule, SamplingEstimator


class DataBanzhaf(SamplingEstimator):
    """MSR estimator for Data Banzhaf values.

    Parameters
    ----------
    n_samples:
        Number of random coalitions to evaluate (each costs one training).
    seed:
        Root RNG seed, split per sampled coalition.
    observer:
        Optional :class:`repro.observe.Observer`: spans :meth:`score`,
        counts coalitions folded and utility evaluations, and logs a
        replayable ``importance.run`` event.
    checkpoint / checkpoint_every / resume_from:
        Durable checkpointing of completed coalition evaluations (see
        :class:`~repro.importance.MonteCarloShapley` — identical
        semantics with the coalition, not the permutation, as the unit
        of work). Requires an integer ``seed``. With checkpointing the
        coalition batch is split at the cadence, which changes nothing
        about the estimate; ``utility.calls`` can only differ if the
        same coalition is sampled twice *and* every cache layer was
        disabled.
    partial:
        Optional anytime-results hook (see
        :func:`repro.importance.base.resolve_partial`): after every
        cadence chunk of coalition values folded into the MSR
        accumulators, ``partial.publish`` receives the running
        ``mean_in - mean_out`` estimate with per-player CLT standard
        errors (in/out variance components combined); returning truthy
        stops early with the current estimate, snapshotting first when
        ``checkpoint=`` is active. The same single-batch caveat as
        checkpointing applies to ``utility.calls``.
    """

    method = "banzhaf"
    kind = "importance.banzhaf"

    def __init__(self, n_samples: int = 200, seed=None, observer=None,
                 checkpoint=None, checkpoint_every: int = 25,
                 resume_from=None, partial=None):
        if n_samples < 2:
            raise ValidationError("n_samples must be >= 2")
        self.n_samples = n_samples
        super().__init__(seed=seed, observer=observer, checkpoint=checkpoint,
                         checkpoint_every=checkpoint_every,
                         resume_from=resume_from, partial=partial)

    def score(self, utility: Utility) -> np.ndarray:
        """Estimate Banzhaf values for every player of ``utility``."""
        return super().score(utility)

    def _params(self) -> dict:
        return {"n_samples": self.n_samples}

    def _sampler(self, utility: Utility) -> Coalitions:
        # Each other player joins independently with probability 1/2.
        return Coalitions([
            np.flatnonzero(rng.uniform(size=utility.n_players) < 0.5)
            for rng in spawn_rngs(self.seed, self.n_samples)])

    def _fold_rule(self, utility: Utility, sampler) -> "MSRFold":
        return MSRFold(utility.n_players)


class MSRFold(FoldRule):
    """Maximum-Sample-Reuse fold rule: per-player in/out sums, squared
    sums (for the CLT standard errors) and counts, folded one sampled
    coalition at a time in sample order."""

    def __init__(self, n: int):
        self.n = n
        self.sum_in = np.zeros(n)
        self.count_in = np.zeros(n)
        self.sum_out = np.zeros(n)
        self.count_out = np.zeros(n)
        self.sq_in = np.zeros(n)
        self.sq_out = np.zeros(n)

    def fold(self, coalitions, values) -> bool:
        for coalition, value in zip(coalitions, values):
            membership = np.zeros(self.n, dtype=bool)
            membership[coalition] = True
            value = float(value)
            self.sum_in[membership] += value
            self.count_in[membership] += 1
            self.sum_out[~membership] += value
            self.count_out[~membership] += 1
            self.sq_in[membership] += value * value
            self.sq_out[~membership] += value * value
            self.folded += 1
        return False

    def estimate(self) -> np.ndarray:
        # Players never sampled on one side get a 0 mean on that side; with
        # n_samples >= ~30 this is vanishingly rare and only dampens the
        # estimate rather than biasing its sign.
        n = self.n
        mean_in = np.divide(self.sum_in, self.count_in, out=np.zeros(n),
                            where=self.count_in > 0)
        mean_out = np.divide(self.sum_out, self.count_out, out=np.zeros(n),
                             where=self.count_out > 0)
        return mean_in - mean_out

    def _mean_var(self, sums, sqs, counts) -> np.ndarray:
        """Variance of one side's per-player sample mean (unbiased
        sample variance over the count); ``inf`` below two samples,
        where spread is unknowable."""
        out = np.full(self.n, np.inf)
        ok = counts > 1
        mean = np.divide(sums, counts, out=np.zeros(self.n), where=ok)
        var = np.maximum(sqs - counts * mean * mean, 0.0)
        np.divide(var, counts - 1, out=out, where=ok)
        return np.divide(out, counts, out=out, where=ok)

    def stderr(self) -> np.ndarray:
        """CLT standard error of the mean-difference estimate: the in and
        out sides are independent sample means, so their variances add."""
        return np.sqrt(
            self._mean_var(self.sum_in, self.sq_in, self.count_in)
            + self._mean_var(self.sum_out, self.sq_out, self.count_out))
