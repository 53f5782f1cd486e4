"""Beta Shapley semivalues (Kwon & Zou, paper ref [43]).

Beta(α, β) Shapley generalizes the Shapley value by reweighting marginal
contributions by coalition size. Shapley weights all sizes equally;
Beta(α, β) with β > α emphasizes *small* coalitions, where the signal of a
mislabeled point is strongest and the estimator's noise is lowest —
Beta(16, 1) is the paper's recommended noise-reduced default for
mislabeled-data detection. Beta(1, 1) recovers the Shapley value exactly.

Estimation reuses permutation sampling: under a uniform random
permutation each coalition size j ∈ {0..n-1} occurs with probability 1/n,
so weighting the observed marginal at size j by ``n * p(j)`` — where
``p(j)`` is the Beta semivalue's size distribution — yields an unbiased
estimate of the semivalue.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.importance.base import Utility
from repro.importance.sampling import (
    PermutationWalks,
    SamplingEstimator,
    sample_permutations,
)
from repro.importance.shapley_mc import PermutationFold


def beta_size_weights(n: int, alpha: float, beta: float) -> np.ndarray:
    """The probability that a Beta(α, β) semivalue draws coalition size j.

    Derived from the semivalue representation: the weight of a specific
    coalition S with |S| = j is ``w(j) = Beta(j+β, n-j-1+α) / Beta(α, β)``
    and there are C(n-1, j) such coalitions, so
    ``p(j) ∝ C(n-1, j) * Beta(j+β, n-j-1+α)``. For α = β = 1 this is the
    uniform distribution over sizes (the Shapley value).
    """
    if alpha <= 0 or beta <= 0:
        raise ValidationError("alpha and beta must be positive")
    from scipy.special import betaln, gammaln

    j = np.arange(n)
    log_binom = gammaln(n) - gammaln(j + 1) - gammaln(n - j)
    log_weight = log_binom + betaln(j + beta, n - 1 - j + alpha) - betaln(alpha, beta)
    weight = np.exp(log_weight - log_weight.max())
    return weight / weight.sum()


class BetaShapley(SamplingEstimator):
    """Permutation-sampling estimator for Beta(α, β) semivalues.

    Parameters
    ----------
    alpha, beta:
        Semivalue shape (both > 0); ``(1, 1)`` is Shapley, ``(16, 1)``
        the noise-reduced detection default.
    n_permutations:
        Sampled permutations (each walks the full prefix chain).
    seed:
        RNG seed.
    observer:
        Optional :class:`repro.observe.Observer`: spans :meth:`score`,
        counts permutations folded and utility evaluations, and logs a
        replayable ``importance.run`` event.
    checkpoint / checkpoint_every / resume_from:
        Durable snapshots of completed permutation walks, same contract
        as :class:`~repro.importance.MonteCarloShapley`: requires an
        integer ``seed``, and a resumed run is hex-identical to an
        uninterrupted one on any backend.
    partial:
        Optional anytime-results hook (see
        :func:`repro.importance.base.resolve_partial`): each folded
        batch of walks publishes the running weighted estimate with
        per-player CLT standard errors over the size-weighted marginal
        samples; returning truthy stops early with the current estimate
        (snapshotted first when ``checkpoint=`` is active).
    """

    method = "beta_shapley"
    kind = "importance.beta_shapley"

    def __init__(self, alpha: float = 16.0, beta: float = 1.0,
                 n_permutations: int = 100, seed=None, observer=None,
                 checkpoint=None, checkpoint_every: int = 10,
                 resume_from=None, partial=None):
        if n_permutations < 1:
            raise ValidationError("n_permutations must be >= 1")
        if not (alpha > 0 and beta > 0):
            raise ValidationError("alpha and beta must be positive")
        self.alpha = alpha
        self.beta = beta
        self.n_permutations = n_permutations
        super().__init__(seed=seed, observer=observer, checkpoint=checkpoint,
                         checkpoint_every=checkpoint_every,
                         resume_from=resume_from, partial=partial)

    def score(self, utility: Utility) -> np.ndarray:
        """Estimate Beta Shapley values for every player of ``utility``.

        Permutations are drawn from per-permutation RNG streams (split
        from the root seed) and their walks submitted as one batch to
        ``utility.runtime``, so results are backend-invariant.
        """
        return super().score(utility)

    def _params(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta,
                "n_permutations": self.n_permutations}

    def _sampler(self, utility: Utility) -> PermutationWalks:
        return PermutationWalks(sample_permutations(
            self.seed, self.n_permutations, utility.n_players))

    def _fold_rule(self, utility: Utility, sampler) -> PermutationFold:
        # Importance weight: marginal at size j appears w.p. 1/n under
        # permutation sampling but should carry probability p(j).
        n = utility.n_players
        return PermutationFold(
            n, weights=n * beta_size_weights(n, self.alpha, self.beta))
