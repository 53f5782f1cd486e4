"""``debug``: Fig. 3 Datascope sessions plus BugDoc-style configuration
debugging over the 16-entry corpus.

A Fig. 3 session runs the letters/jobdetail/social pipeline with
provenance, scores the source rows with ``datascope_importance`` and
re-runs the pipeline without the 25 lowest-valued rows
(``remove_and_evaluate``). The corpus pass runs ``PipelineDebugger`` on
every corpus entry through one ``Runtime`` with a fresh
``FingerprintCache`` per episode, so every episode does the same work.
One operation is one session of either kind. Both kinds re-train a
k-NN model, whose cost does not depend on the seed's data the way an
L-BFGS solve's iteration count does.

The runtime is serial. The ``process`` backend the debugger's batched
rounds are built for (2 workers, BLAS threads left unpinned) was too
unsteady to gate on: over five seeds its ``op_p50_ms`` spread was 29%
against 10% serial, because each corpus entry ships a new payload and
so starts a new worker pool inside the timed session.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets import make_hiring_tables
from repro.errors import inject_label_errors
from repro.ml import (
    ColumnTransformer,
    KNeighborsClassifier,
    OneHotEncoder,
    Pipeline,
    SimpleImputer,
    StandardScaler,
)
from repro.observe import Observer
from repro.pipelines import (
    DataPipeline,
    datascope_importance,
    remove_and_evaluate,
    source,
)
from repro.pipelines.datascope import rank_source_rows
from repro.pipelines.debugger import load_corpus
from repro.runtime import FingerprintCache, Runtime
from repro.text import SentenceEmbedder

from harness import BaseWorkload, total

FIG3_SESSIONS = 5      # per episode, next to the 16 corpus sessions
N_LETTERS = 320
N_REMOVE = 25
K = 20                 # Datascope's k-NN proxy and the re-trained model
MIN_DETECTED = 15


def _has_twitter(row):
    return 1.0 if row["twitter"] is not None else 0.0


def build_pipeline() -> DataPipeline:
    """The Fig. 3 plan: join the letters with both side tables, derive
    ``has_twitter``, drop the join keys and encode."""
    encoder = ColumnTransformer([
        ("text", SentenceEmbedder(dim=32), "letter_text"),
        ("num", Pipeline([("imp", SimpleImputer()),
                          ("sc", StandardScaler())]),
         ["years_experience", "employer_rating"]),
        ("deg", OneHotEncoder(), "degree"),
        ("tw", "passthrough", "has_twitter"),
    ])
    plan = (source("train_df")
            .join(source("jobdetail_df"), on="job_id")
            .join(source("social_df"), on="person_id")
            .map_column("has_twitter", _has_twitter)
            .drop(["person_id", "job_id", "twitter", "sector", "seniority",
                   "salary_band", "followers", "linkedin_connections"])
            .encode(encoder, label="sentiment"))
    return DataPipeline(plan)


class _Runtime(Runtime):
    """Charges the time the debugger blocks in ``map_cached`` to the
    runtime layer."""

    def __init__(self, *args, rec, **kwargs):
        super().__init__(*args, **kwargs)
        self.rec = rec

    def map_cached(self, *args, **kwargs):
        with self.rec.span("runtime.map"):
            return super().map_cached(*args, **kwargs)


class Workload(BaseWorkload):
    primary = ("runtime", "pipelines")

    def __init__(self, rec, seed: int, state):
        self.rec = rec
        self.seed = seed
        self.reports = []
        self.removed = []
        self.summary_ = {}
        self.totals = {"runtime.tasks": 0, "debugger.configs_evaluated": 0,
                       "debugger.rounds": 0, "hits": 0, "lookups": 0}

    def setup(self):
        self.corpus = load_corpus()
        self.sessions = []
        for i in range(FIG3_SESSIONS):
            seed = 1000 * self.seed + 10 * i
            letters, jobs, social = make_hiring_tables(N_LETTERS, seed=seed)
            train, valid = letters.split([0.75, 0.25], seed=seed + 1)
            dirty, report = inject_label_errors(train, column="sentiment",
                                                fraction=0.15, seed=seed + 2)
            self.sessions.append((
                {"train_df": dirty, "jobdetail_df": jobs,
                 "social_df": social}, valid, seed, set(report.row_ids())))
        self.pipeline = build_pipeline()

    def fig3(self, sources, valid):
        rec = self.rec
        with rec.span("pipelines.run"):
            result = self.pipeline.run(sources, provenance=True)
            X_valid, y_valid = result.apply(dict(sources, train_df=valid))
        with rec.span("pipelines.datascope"):
            importances = datascope_importance(
                result, source="train_df", X_valid=X_valid, y_valid=y_valid,
                k=K)
            worst = rank_source_rows(importances, N_REMOVE)
        with rec.span("pipelines.whatif"):
            outcome = remove_and_evaluate(
                self.pipeline, sources, source="train_df", row_ids=worst,
                model=KNeighborsClassifier(K), valid_frame=valid)
        return outcome["delta"], worst

    def corpus_session(self, entry, runtime):
        with self.rec.span("debugger.session"):
            return entry.debugger(runtime=runtime).run()

    def warmup(self):
        runtime = _Runtime("serial", cache=FingerprintCache(), rec=self.rec)
        sources, valid, _, _ = self.sessions[0]
        self.fig3(sources, valid)
        for entry in self.corpus[:2]:
            self.corpus_session(entry, runtime)

    def episode(self, traced: bool):
        observer = Observer() if traced else None
        cache = FingerprintCache()
        runtime = _Runtime("serial", cache=cache, observer=observer,
                           rec=self.rec)
        ops, reports, removed = [], [], []
        for entry in self.corpus:
            t0 = time.perf_counter()
            reports.append(self.corpus_session(entry, runtime))
            ops.append(time.perf_counter() - t0)
        for sources, valid, _, _ in self.sessions:
            t0 = time.perf_counter()
            removed.append(self.fig3(sources, valid))
            ops.append(time.perf_counter() - t0)
        self.reports, self.removed = reports, removed
        if observer is not None:
            snap = observer.metrics.snapshot()
            self.totals["runtime.tasks"] += snap.get("runtime.tasks", 0)
            self.totals["debugger.configs_evaluated"] += sum(
                r.configs_evaluated for r in reports)
            self.totals["debugger.rounds"] += sum(r.rounds for r in reports)
            self.totals["hits"] += cache.stats.hits
            self.totals["lookups"] += cache.stats.lookups
        return ops

    def check(self):
        failures = []
        detected = 0
        for entry, report in zip(self.corpus, self.reports):
            invalid = [cause.assignment for cause in report.root_causes
                       if not entry.cause_is_valid(cause.assignment)]
            if invalid:
                failures.append(f"{entry.name}: invalid causes {invalid}")
            detected += any(
                set(cause.assignment.items()) <= set(culprit.items())
                for culprit in entry.culprits
                for cause in report.root_causes)
        if detected < MIN_DETECTED:
            failures.append(f"only {detected}/{len(self.corpus)} corpus "
                            f"culprits found (need {MIN_DETECTED})")
        # Removing Datascope's 25 lowest-valued rows must beat removing 25
        # random rows, in accuracy and in label errors removed.
        found, chance, deltas, random_deltas = [], [], [], []
        for (sources, valid, seed, flipped), (delta, worst) in zip(
                self.sessions, self.removed):
            rng = np.random.default_rng(seed)
            rows = rng.choice(sources["train_df"].row_ids, size=N_REMOVE,
                              replace=False)
            found.append(len(flipped.intersection(worst)))
            chance.append(len(flipped.intersection(int(r) for r in rows)))
            deltas.append(delta)
            random_deltas.append(remove_and_evaluate(
                self.pipeline, sources, source="train_df", row_ids=rows,
                model=KNeighborsClassifier(K), valid_frame=valid)["delta"])
        self.summary_ = {"detected": detected,
                         "flipped_removed": float(np.mean(found)),
                         "flipped_removed_random": float(np.mean(chance)),
                         "prioritized_delta": float(np.mean(deltas)),
                         "random_delta": float(np.mean(random_deltas))}
        if np.mean(deltas) <= np.mean(random_deltas) \
                or np.mean(found) <= np.mean(chance):
            failures.append(f"prioritized removal does not beat random "
                            f"removal: {self.summary_}")
        return failures

    def layer_metrics(self, n: int, stats: dict, other: dict) -> dict:
        lookups = self.totals["lookups"]
        return {
            "pipelines.run_s": total(stats, "pipelines.run") / n,
            "pipelines.datascope_s": total(stats, "pipelines.datascope") / n,
            "pipelines.whatif_s": total(stats, "pipelines.whatif") / n,
            # session time minus the time blocked in map_cached
            "debugger.plan_s":
                total(stats, "debugger.session", "self") / n,
            "debugger.configs_evaluated":
                self.totals["debugger.configs_evaluated"] / n,
            "debugger.rounds": self.totals["debugger.rounds"] / n,
            "runtime.map_s": total(stats, "runtime.map") / n,
            "runtime.tasks": self.totals["runtime.tasks"] / n,
            "runtime.cache_hit_rate":
                self.totals["hits"] / lookups if lookups else 0.0,
        }

    def summary(self) -> dict:
        return self.summary_
