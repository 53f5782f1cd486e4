"""Iterative prioritized cleaning — the attendee task of Section 3.1.

Loop: score the (current) training data with an importance method, hand
the lowest-valued rows to the cleaning oracle, retrain, repeat. Because
scores are *recomputed on the partially cleaned data* each round, the
cleaner adapts: once the worst errors are fixed, the ranking surfaces the
next tier. This is what distinguishes the iterative solution from the
one-shot cleaning of Figure 2.
"""

from __future__ import annotations

import inspect

from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.rng import ensure_rng
from repro.dataframe.frame import DataFrame
from repro.importance.banzhaf import DataBanzhaf
from repro.importance.base import Utility
from repro.importance.knn_shapley import knn_shapley
from repro.importance.loo import leave_one_out
from repro.importance.shapley_mc import MonteCarloShapley
from repro.ml.base import clone
from repro.ml.metrics import accuracy_score
from repro.runtime.checkpoint import LoopCheckpointer


def make_strategy(name: str, **kwargs):
    """Built-in prioritization strategies.

    - ``"random"`` — uniform random order (the baseline every importance
      method must beat).
    - ``"knn_shapley"`` — exact KNN-Shapley values (kwargs: ``k``).
    - ``"loss"`` — per-example training loss of the current model (a
      cheap self-diagnosis heuristic: high loss first).
    - ``"loo"`` — leave-one-out retraining values; ``n`` trainings per
      round, submitted through the cleaner's runtime.
    - ``"shapley_mc"`` — TMC-Shapley on the current dirty data (kwargs:
      ``n_permutations``, ``truncation_tol``); the most faithful — and
      most expensive — ranking, so a ``process`` runtime pays off here.
    - ``"banzhaf"`` — Data Banzhaf via MSR sampling (kwargs:
      ``n_samples``).

    Each strategy is ``f(model, X, y, X_valid, y_valid, rng) -> scores``
    with lower = cleaned first; strategies that retrain models also
    accept a keyword-only ``runtime`` which the cleaner forwards.
    """
    if name == "random":
        def random_strategy(model, X, y, X_valid, y_valid, rng):
            return rng.permutation(len(X)).astype(float)
        return random_strategy
    if name == "knn_shapley":
        k = kwargs.get("k", 5)

        def knn_strategy(model, X, y, X_valid, y_valid, rng):
            return knn_shapley(X, y, X_valid, y_valid, k=k)
        return knn_strategy
    if name == "loss":
        def loss_strategy(model, X, y, X_valid, y_valid, rng):
            fitted = clone(model)
            fitted.fit(X, y)
            proba = fitted.predict_proba(X)
            class_index = {c: i for i, c in enumerate(fitted.classes_.tolist())}
            cols = np.array([class_index[v] for v in y.tolist()])
            likelihood = proba[np.arange(len(y)), cols]
            return likelihood  # low likelihood of own label => clean first
        return loss_strategy
    if name == "loo":
        def loo_strategy(model, X, y, X_valid, y_valid, rng, *, runtime=None):
            utility = Utility(model, X, y, X_valid, y_valid, runtime=runtime)
            return leave_one_out(utility)
        return loo_strategy
    if name == "shapley_mc":
        n_permutations = kwargs.get("n_permutations", 20)
        truncation_tol = kwargs.get("truncation_tol", 0.02)

        def shapley_strategy(model, X, y, X_valid, y_valid, rng, *,
                             runtime=None):
            utility = Utility(model, X, y, X_valid, y_valid, runtime=runtime)
            # Fresh per-round seed from the loop's stream: each round
            # samples new permutations but stays reproducible end to end.
            estimator = MonteCarloShapley(
                n_permutations=n_permutations, truncation_tol=truncation_tol,
                seed=int(rng.integers(0, 2**31)))
            return estimator.score(utility)
        return shapley_strategy
    if name == "banzhaf":
        n_samples = kwargs.get("n_samples", 100)

        def banzhaf_strategy(model, X, y, X_valid, y_valid, rng, *,
                             runtime=None):
            utility = Utility(model, X, y, X_valid, y_valid, runtime=runtime)
            estimator = DataBanzhaf(n_samples=n_samples,
                                    seed=int(rng.integers(0, 2**31)))
            return estimator.score(utility)
        return banzhaf_strategy
    raise ValidationError(f"unknown strategy {name!r}")


@dataclass
class CleaningResult:
    """Trajectory of an iterative cleaning run."""

    scores: list[float] = field(default_factory=list)   # metric per round
    cleaned_ids: list[int] = field(default_factory=list)
    rounds: int = 0

    @property
    def initial(self) -> float:
        return self.scores[0]

    @property
    def final(self) -> float:
        return self.scores[-1]

    @property
    def improvement(self) -> float:
        return self.final - self.initial


class IterativeCleaner:
    """Budgeted, prioritized, re-scoring cleaning loop.

    Parameters
    ----------
    model:
        Unfitted estimator prototype (retrained every round).
    strategy:
        A strategy callable (see :func:`make_strategy`) or name.
    oracle:
        :class:`repro.cleaning.CleaningOracle` applying the repairs.
    encode:
        ``encode(frame) -> (X, y)`` turning the current dirty frame into
        training arrays (lets the loop run on raw frames or through a
        full pipeline).
    batch:
        Rows cleaned per round.
    metric:
        Evaluation metric; accuracy by default.
    runtime:
        Optional :class:`repro.runtime.Runtime` (or backend name)
        forwarded to strategies that retrain models (``"loo"``,
        ``"shapley_mc"``, ``"banzhaf"``, and any custom strategy whose
        signature accepts a ``runtime`` keyword).
    observer:
        Optional :class:`repro.observe.Observer`: spans the whole run
        (``cleaning.run``) and each round (``cleaning.round``), counts
        rows cleaned, and logs per-round provenance events (round index,
        cleaned row ids, post-cleaning score).
    checkpoint / checkpoint_every / resume_from:
        Durable per-round snapshots (scores, cleaned row ids, RNG
        state); a killed session resumed with ``resume_from=`` replays
        the recorded repairs through the oracle (no re-scoring, no
        retraining) and continues from the next round with an identical
        trajectory. Requires an integer ``seed``. The trajectory is a
        prefix property: a resumed run may ask for *more* ``n_rounds``
        than the original, or fewer (it then replays only its first
        ``n_rounds`` recorded rounds).
    """

    def __init__(self, model, strategy, oracle, *, encode, batch: int = 10,
                 metric=accuracy_score, seed=0, runtime=None, observer=None,
                 checkpoint=None, checkpoint_every: int = 1,
                 resume_from=None):
        from repro.importance.base import require_checkpoint_seed
        from repro.observe.observer import resolve_observer
        from repro.runtime.runtime import Runtime, resolve_runtime

        self.model = model
        self.strategy = make_strategy(strategy) if isinstance(strategy, str) \
            else strategy
        self.oracle = oracle
        self.encode = encode
        self.batch = batch
        self.metric = metric
        self.seed = seed
        self.runtime = resolve_runtime(runtime)
        self._owns_runtime = (self.runtime is not None
                              and not isinstance(runtime, Runtime))
        self.observer = resolve_observer(observer)
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume_from = resume_from
        if checkpoint is not None or resume_from is not None:
            require_checkpoint_seed(seed, "IterativeCleaner")
        parameters = inspect.signature(self.strategy).parameters
        self._strategy_takes_runtime = "runtime" in parameters

    def close(self) -> None:
        """Release the worker pool of a runtime this cleaner built for
        itself (``runtime="thread"`` / ``"process"``); a caller-provided
        :class:`~repro.runtime.Runtime` is left to its owner."""
        if self._owns_runtime and self.runtime is not None:
            self.runtime.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def run(self, dirty_frame, X_valid, y_valid, *,
            n_rounds: int, reader: dict | None = None) -> CleaningResult:
        """Execute the loop; returns the quality trajectory.

        ``dirty_frame`` is a :class:`~repro.dataframe.DataFrame` — or a
        spilled one: a :class:`repro.data.ShardedDataset` (or its path)
        written by :meth:`~repro.dataframe.DataFrame.to_shards` /
        :func:`repro.data.frame_to_shards`. A spilled frame is streamed
        back in through the fault-tolerant reading service (``reader=``
        takes :class:`~repro.data.ShardReader` kwargs); since the spill
        round trip is bitwise lossless, the cleaning trajectory —
        scores, cleaned row ids, checkpoint identity — is hex-identical
        to the in-memory run, with or without reader faults on the way.
        """
        if n_rounds < 1:
            raise ValidationError("n_rounds must be >= 1")
        if not isinstance(dirty_frame, DataFrame):
            from repro.data.frame_io import frame_from_shards
            dirty_frame = frame_from_shards(dirty_frame,
                                            observer=self.observer,
                                            **(reader or {}))
        elif reader is not None:
            raise ValidationError(
                "reader= only applies when dirty_frame is a sharded "
                "dataset (path or ShardedDataset)")
        rng = ensure_rng(self.seed)
        obs = self.observer
        result = CleaningResult()
        current = dirty_frame
        X, y = self.encode(current)

        # The identity covers everything that shapes the trajectory, but
        # neither the runtime backend nor n_rounds: a prefix property, so
        # a snapshot seeds a run with more rounds, or replays only the
        # first n_rounds of its own.
        ckpt = LoopCheckpointer(
            self.checkpoint, kind="cleaning.iterative",
            identity=("checkpoint.cleaning.iterative",
                      getattr(self.strategy, "__name__", "custom"),
                      self.batch, self.seed, self.model, X, y,
                      np.asarray(X_valid), np.asarray(y_valid), self.metric),
            every=self.checkpoint_every, observer=self.observer,
            resume_from=self.resume_from)
        cleaned_rounds: list[list[int]] = []

        def snapshot() -> dict:
            return {"completed": result.rounds,
                    "scores": [s.hex() for s in result.scores],
                    "cleaned": [list(ids) for ids in cleaned_rounds],
                    "rng_state": rng.bit_generator.state}

        payload = ckpt.resume()
        if payload is not None:
            # Replay the recorded repairs through the oracle — no
            # strategy re-scoring, no retraining — and put the RNG
            # exactly where the interrupted run left it.
            result.rounds = min(int(payload["completed"]), n_rounds)
            result.scores.extend(float.fromhex(s) for s in
                                 payload["scores"][:result.rounds + 1])
            for ids in payload["cleaned"][:result.rounds]:
                current = self.oracle.clean(current, np.asarray(ids))
                result.cleaned_ids.extend(int(r) for r in ids)
                cleaned_rounds.append([int(r) for r in ids])
            X, y = self.encode(current)
            rng.bit_generator.state = payload["rng_state"]
            ckpt.record_skipped(completed=result.rounds, total=n_rounds,
                                method="cleaning.iterative")
        else:
            result.scores.append(self._evaluate(X, y, X_valid, y_valid))

        # Rebuilt at every round boundary, so a signal flush mid-round
        # persists the last *consistent* state — never a half-updated
        # round. Until the first boundary that is the record resumed
        # from, which a smaller n_rounds replays only a prefix of.
        state = payload or snapshot()
        strategy_name = getattr(self.strategy, "__name__", "custom")
        cache = self.runtime.cache if self.runtime is not None else None
        strategy_kwargs = {"runtime": self.runtime} \
            if self._strategy_takes_runtime else {}
        with obs.span("cleaning.run", strategy=strategy_name,
                      cache=cache, batch=self.batch, rounds=n_rounds), \
                ckpt.armed(lambda: state):
            for round_index in range(result.rounds, n_rounds):
                with obs.span("cleaning.round", round=round_index):
                    scores = np.asarray(
                        self.strategy(self.model, X, y, X_valid, y_valid, rng,
                                      **strategy_kwargs),
                        dtype=float,
                    )
                    order = np.lexsort((np.arange(len(scores)), scores))
                    target_positions = order[: self.batch]
                    row_ids = current.row_ids[target_positions]
                    current = self.oracle.clean(current, row_ids)
                    result.cleaned_ids.extend(int(r) for r in row_ids)
                    X, y = self.encode(current)
                    result.scores.append(
                        self._evaluate(X, y, X_valid, y_valid))
                    result.rounds += 1
                    cleaned_rounds.append([int(r) for r in row_ids])
                    state = snapshot()
                    ckpt.maybe_flush(result.rounds)
                if obs.enabled:
                    obs.count("cleaning.rows_cleaned", len(row_ids))
                    obs.event("cleaning.round", round=round_index,
                              strategy=strategy_name,
                              cleaned_row_ids=[int(r) for r in row_ids],
                              score=result.scores[-1])
        if obs.enabled:
            obs.event("cleaning.run", strategy=strategy_name,
                      seed=self.seed, batch=self.batch, rounds=result.rounds,
                      initial=result.initial, final=result.final,
                      improvement=result.improvement,
                      cleaned_row_ids=list(result.cleaned_ids))
        return result

    def _evaluate(self, X, y, X_valid, y_valid) -> float:
        fitted = clone(self.model)
        fitted.fit(X, y)
        return float(self.metric(y_valid, fitted.predict(X_valid)))
