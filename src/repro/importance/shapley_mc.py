"""Truncated Monte-Carlo Data Shapley (Ghorbani & Zou, paper ref [21]).

The Shapley value of example ``i`` is its marginal contribution averaged
over all orderings of the training set — a sum over exponentially many
subsets. TMC-Shapley samples random permutations, walks each prefix, and
*truncates* the walk once the running utility is within ``truncation_tol``
of the full-data utility (later marginals are then ≈ 0). Convergence is
monitored with the Gelman–Rubin-style criterion from the original paper:
stop when the mean absolute change of the value estimates over the last
``convergence_window`` permutations falls below ``convergence_tol``.

**Determinism guarantee.** Permutation ``t`` is drawn from its own RNG
stream, split from the root seed via :func:`repro.core.rng.spawn_rngs`,
and each permutation walk is an independent task submitted through the
utility's :class:`~repro.runtime.Runtime`. The estimate is therefore a
pure function of ``(seed, n_permutations)`` — identical across the
``serial``, ``thread`` and ``process`` backends and any worker count.
"""

from __future__ import annotations

import contextlib
from collections import deque

import numpy as np

from repro.core.exceptions import ValidationError
from repro.importance.base import Utility, clt_stderr
from repro.importance.sampling import (
    FoldRule,
    PermutationWalks,
    SamplingEstimator,
    sample_permutations,
)
from repro.ml.metrics import accuracy_score


class MonteCarloShapley(SamplingEstimator):
    """Permutation-sampling Shapley estimator.

    Parameters
    ----------
    n_permutations:
        Hard cap on sampled permutations.
    truncation_tol:
        Absolute utility gap below which a permutation walk is truncated
        ("performance tolerance" in the paper). ``0`` disables truncation.
    convergence_tol / convergence_window:
        Early-stopping on estimate stability; ``None`` disables. When
        given, ``convergence_tol`` must be > 0; the window is at least 1.
    seed:
        Root RNG seed, split per permutation.
    observer:
        Optional :class:`repro.observe.Observer`: wraps :meth:`score` in
        a ``shapley_mc`` span, counts permutations walked and utility
        evaluations, and logs one replayable ``importance.run`` event
        (method, params, seed, data fingerprint, score summary).
    checkpoint:
        Optional :class:`~repro.runtime.CheckpointStore` (or directory
        path): completed permutation walks are snapshotted every
        ``checkpoint_every`` walks — and once more on SIGTERM/SIGINT —
        so a killed run can be resumed. Requires an integer ``seed``
        (the resumed process regenerates permutation ``i`` from
        ``spawn_rngs(seed, n)[i]``).
    checkpoint_every:
        Snapshot cadence in completed permutations.
    resume_from:
        Store (or path) holding a prior run's checkpoint; the snapshot's
        walks are replayed (marginals restored bitwise from
        ``float.hex``, utility call counts and fingerprint-cache entries
        re-applied) and only the remaining permutations are evaluated.
        The resumed estimate — scores, ``utility.calls``, cache keys —
        is hex-identical to an uninterrupted run on any backend. A
        snapshot from a different job (params/seed/data) is rejected.
    partial:
        Optional anytime-results hook (see
        :func:`repro.importance.base.resolve_partial`): after every
        batch of permutations folded in, ``partial.publish`` receives
        the running estimate plus per-player CLT standard errors;
        returning truthy stops the loop early with the current estimate
        (snapshotting it first when ``checkpoint=`` is active, so the
        job can later be resumed to the exact full-run result). The
        hook's ``every`` attribute bounds the walk batch size so partial
        estimates stay responsive on pooled backends.
    exact:
        Closed-form dispatch. ``False`` (default) always samples.
        ``"auto"`` short-circuits sampling entirely when the utility's
        kernel has an analytic Shapley solution under the accuracy
        metric (the k-NN closed-form recurrence, O(n log n) per
        validation point) and silently falls back to sampling otherwise;
        ``True`` does the same but raises :class:`ValidationError` when
        the closed form is unavailable. The dispatched values are
        *exact* Shapley values of the kernel's proxy game — what the
        sampler converges to in the many-permutation limit (rigorously
        for ``k=1``; a documented proxy for larger ``k``, see
        ``docs/PERFORMANCE.md``). On the exact path
        ``n_permutations_used_`` is 0, a single ``exact=True`` partial
        is published, and checkpoint sessions are skipped (there is no
        loop to resume).
    """

    method = "shapley_mc"
    kind = "importance.shapley_mc"

    def __init__(self, n_permutations: int = 100, truncation_tol: float = 0.01,
                 convergence_tol: float | None = None, convergence_window: int = 10,
                 seed=None, observer=None, checkpoint=None,
                 checkpoint_every: int = 10, resume_from=None, partial=None,
                 exact: bool | str = False):
        if n_permutations < 1:
            raise ValidationError("n_permutations must be >= 1")
        if truncation_tol < 0:
            raise ValidationError("truncation_tol must be >= 0")
        if convergence_tol is not None and not convergence_tol > 0:
            raise ValidationError("convergence_tol must be > 0 (or None)")
        if convergence_window < 1:
            raise ValidationError("convergence_window must be >= 1")
        if exact not in (False, True, "auto"):
            raise ValidationError(
                f"exact must be False, True or 'auto', got {exact!r}")
        self.n_permutations = n_permutations
        self.truncation_tol = truncation_tol
        self.convergence_tol = convergence_tol
        self.convergence_window = convergence_window
        self.exact = exact
        super().__init__(seed=seed, observer=observer, checkpoint=checkpoint,
                         checkpoint_every=checkpoint_every,
                         resume_from=resume_from, partial=partial)

    @property
    def n_permutations_used_(self) -> int:
        """Permutations folded into the last estimate: fewer than
        ``n_permutations`` after a convergence or anytime stop, 0 on the
        closed-form path."""
        return self._folded

    def score(self, utility: Utility) -> np.ndarray:
        """Estimate Shapley values for every player of ``utility``.

        Permutation walks are submitted in batches through
        ``utility.runtime`` (inline when the utility has none); the
        convergence criterion is applied per permutation, in order, so
        early stopping returns exactly what a serial run would.

        With ``exact=True`` / ``exact="auto"`` and an eligible kernel,
        no permutations are sampled at all: the kernel's closed-form
        Shapley values are returned directly (shifted by
        ``null_value / n`` so they share the sampler's efficiency
        normalization ``sum = u(D) - u(empty)``).
        """
        return super().score(utility)

    def _closed_form(self, utility: Utility) -> np.ndarray | None:
        """Closed-form dispatch: the kernel's analytic Shapley values,
        or ``None`` when ``exact="auto"`` finds no closed form (the
        caller then falls through to permutation sampling).

        The closed form prices the game at ``u(empty) = 0`` while the
        sampler measures marginals against the majority-class null
        value, so the dispatched values are shifted by ``null_value / n``
        — making them exactly what the sampler's estimate converges to.
        """
        if not self.exact:
            return None
        obs = self.observer
        kernel = utility.kernel
        closed = None
        if kernel is not None and utility.metric is accuracy_score:
            with (obs.span("shapley_mc.exact", players=utility.n_players)
                  if obs.enabled else contextlib.nullcontext()):
                closed = kernel.exact_shapley()
        if closed is None:
            if self.exact is True:
                raise ValidationError(
                    "exact=True requires a kernel with a closed-form "
                    "Shapley solution under the accuracy_score metric "
                    "(the k-NN kernel); this utility resolved to "
                    f"{utility.kernel_resolution}")
            return None
        return closed - utility.null_value() / utility.n_players

    def _params(self) -> dict:
        return {"n_permutations": self.n_permutations,
                "truncation_tol": self.truncation_tol,
                "convergence_tol": self.convergence_tol,
                "convergence_window": self.convergence_window}

    def _run_extra(self) -> dict:
        return {"permutations_used": self.n_permutations_used_}

    def _sampler(self, utility: Utility) -> PermutationWalks:
        return PermutationWalks(
            sample_permutations(self.seed, self.n_permutations,
                                utility.n_players),
            truncation_tol=self.truncation_tol, keeps_full_value=True)

    def _fold_rule(self, utility: Utility, sampler) -> "PermutationFold":
        return PermutationFold(
            utility.n_players, convergence_tol=self.convergence_tol,
            convergence_window=self.convergence_window)


class PermutationFold(FoldRule):
    """Fold rule for permutation semivalues: the running mean of each
    player's (optionally size-weighted) marginal contributions.

    ``weights[pos]`` scales the marginal observed at coalition size
    ``pos``; ``None`` is the uniform Shapley weighting. With a
    ``convergence_tol`` the rule stops on estimate stability: when the
    mean relative change of the estimate over the last
    ``convergence_window`` permutations falls below the tolerance —
    checked per permutation, so the stopping point does not depend on
    the batch size. Squared sums are kept for the CLT standard errors.
    """

    def __init__(self, n: int, *, weights: np.ndarray | None = None,
                 convergence_tol: float | None = None,
                 convergence_window: int = 10):
        self.weights = weights
        self.convergence_tol = convergence_tol
        if convergence_tol is not None:
            self.window = convergence_window
            self.history = deque(maxlen=convergence_window + 1)
        self.running = np.zeros(n)
        self.running_sq = np.zeros(n)

    def fold(self, permutations, walks) -> bool:
        for permutation, marginals in zip(permutations, walks):
            if self.weights is not None:
                marginals = self.weights * marginals
            self.running[permutation] += marginals
            self.running_sq[permutation] += marginals * marginals
            self.folded += 1
            if self.convergence_tol is None:
                continue
            history = self.history
            history.append(self.running / self.folded)
            if len(history) == history.maxlen:
                drift = np.abs(history[-1] - history[0])
                scale = np.abs(history[-1]) + 1e-12
                if float(np.mean(drift / scale)) < self.convergence_tol:
                    return True
        return False

    def estimate(self) -> np.ndarray:
        return self.running / self.folded

    def stderr(self) -> np.ndarray:
        return clt_stderr(self.running, self.running_sq, self.folded)
