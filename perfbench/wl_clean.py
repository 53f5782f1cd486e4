"""``clean``: Fig. 2 iterative prioritized cleaning.

Hiring letters with 12% label flips, cleaned by ``IterativeCleaner``
with the built-in ``shapley_mc`` strategy over a k-NN model, on a serial
``Runtime`` with a ``FingerprintCache`` and a checkpoint every round.
One operation is one cleaning round.

The strategy runs with ``truncation_tol=0``: every permutation walks all
training rows, so the kernel work per round is fixed by the input size.
With truncation the walk length depends on how noisy the seed's data
is, and the run time moved by half between seeds.

The model is 1-NN on TF-IDF features, where every flipped label costs
accuracy: with k=10 the fully cleaned letters scored below the dirty
ones on some seeds, so no cleaning run could pass the accuracy check.
"""

from __future__ import annotations

import hashlib
import shutil
import time

import numpy as np

import repro as nde
from repro.cleaning import CleaningOracle, IterativeCleaner, make_strategy
from repro.ml import KNeighborsClassifier
from repro.observe import Observer
from repro.runtime import FingerprintCache, Runtime
from repro.text import TfidfVectorizer

from harness import BaseWorkload, total

N_LETTERS = 500        # 300 train / 100 valid rows
FLIP_FRACTION = 0.12
ROUNDS = 100           # per episode
BATCH = 3
K = 1


class _Oracle:
    """Times ``CleaningOracle.clean`` for the cleaning layer."""

    def __init__(self, inner, rec):
        self.inner = inner
        self.rec = rec

    def clean(self, frame, row_ids):
        with self.rec.span("cleaning.oracle"):
            return self.inner.clean(frame, row_ids)


class Workload(BaseWorkload):
    primary = ("importance",)

    def __init__(self, rec, seed: int, state):
        self.rec = rec
        self.seed = seed
        self.state = state
        self.episodes = 0
        self.digests = []
        self.totals = {"kernel_steps": 0, "utility_calls": 0,
                       "checkpoint.writes": 0, "checkpoint.bytes": 0,
                       "runtime.tasks": 0}

    def setup(self):
        train, valid, _ = nde.load_recommendation_letters(
            N_LETTERS, seed=self.seed)
        dirty, _ = nde.inject_labelerrors(train, fraction=FLIP_FRACTION,
                                          seed=self.seed + 1)
        self.train, self.dirty = train, dirty
        self.vectorizer = TfidfVectorizer().fit(
            dirty["letter_text"].to_list())
        self.X_valid, self.y_valid = self._encode(valid)

    def _encode(self, frame):
        X = self.vectorizer.transform(frame["letter_text"].to_list())
        return X, np.array(frame["sentiment"].to_list())

    def encode(self, frame):
        with self.rec.span("text.encode"):
            return self._encode(frame)

    def _run(self, rounds: int, observer=None):
        """One cleaning run; returns ``(result, round start times, end)``."""
        base = make_strategy("shapley_mc", n_permutations=1,
                             truncation_tol=0.0)
        starts = []
        rec = self.rec

        def strategy(model, X, y, X_valid, y_valid, rng, *, runtime=None):
            starts.append(time.perf_counter())
            with rec.span("importance.score"):
                return base(model, X, y, X_valid, y_valid, rng,
                            runtime=runtime)

        ckpt = self.state / f"clean-ckpt-{self.episodes}"
        runtime = Runtime("serial", cache=FingerprintCache(),
                          observer=observer)
        cleaner = IterativeCleaner(
            KNeighborsClassifier(K), strategy,
            _Oracle(CleaningOracle(self.train), rec), encode=self.encode,
            batch=BATCH, seed=self.seed, runtime=runtime, observer=observer,
            checkpoint=ckpt)
        with rec.span("cleaning.run"):
            result = cleaner.run(self.dirty, self.X_valid, self.y_valid,
                                 n_rounds=rounds)
        end = time.perf_counter()
        shutil.rmtree(ckpt, ignore_errors=True)
        return result, starts, end

    def warmup(self):
        self._run(3)

    def episode(self, traced: bool):
        observer = Observer() if traced else None
        result, starts, end = self._run(ROUNDS, observer)
        self.episodes += 1
        self.last = result
        digest = hashlib.sha256(
            repr(([s.hex() for s in result.scores],
                  result.cleaned_ids)).encode()).hexdigest()
        self.digests.append(digest)
        if observer is not None:
            snap = observer.metrics.snapshot()
            steps = snap.get("kernel.incremental_steps", 0)
            self.totals["kernel_steps"] += steps
            self.totals["utility_calls"] += \
                steps + snap.get("kernel.fallback_retrains", 0)
            for key in ("checkpoint.writes", "checkpoint.bytes",
                        "runtime.tasks"):
                self.totals[key] += snap.get(key, 0)
        bounds = starts + [end]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def check(self):
        failures = []
        if len(set(self.digests)) != 1:
            failures.append(f"trajectory digests differ across episodes "
                            f"of one seed: {sorted(set(self.digests))}")
        if self.last.final < self.last.initial:
            failures.append(f"cleaning lowered validation accuracy: "
                            f"{self.last.initial} -> {self.last.final}")
        return failures

    def layer_metrics(self, n: int, stats: dict, other: dict) -> dict:
        return {
            "importance.score_s": total(stats, "importance.score") / n,
            "importance.kernel_steps": self.totals["kernel_steps"] / n,
            "importance.utility_calls": self.totals["utility_calls"] / n,
            "text.encode_s": total(stats, "text.encode") / n,
            "cleaning.oracle_s": total(stats, "cleaning.oracle") / n,
            # the cleaner's own time: round time minus strategy, encode
            # and oracle, i.e. the refit, the checkpoint and the loop
            "cleaning.other_s":
                total(stats, "cleaning.run", "self") / n,
            "checkpoint.writes": self.totals["checkpoint.writes"] / n,
            "checkpoint.bytes": self.totals["checkpoint.bytes"] / n,
            "runtime.tasks": self.totals["runtime.tasks"] / n,
        }

    def summary(self) -> dict:
        return {"digest": self.digests[0][:16],
                "accuracy": [self.last.initial, self.last.final]}
