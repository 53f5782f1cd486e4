"""Wiring: the instrumented layers emit the expected spans/metrics/events
— and observation never changes the computed results."""

import numpy as np
import pytest

from repro.cleaning import CleaningOracle, IterativeCleaner
from repro.datasets import make_blobs, make_hiring_tables
from repro.importance import (
    BetaShapley,
    DataBanzhaf,
    MonteCarloShapley,
    Utility,
    leave_one_out,
)
from repro.ml import KNeighborsClassifier, LogisticRegression
from repro.observe import Observer, RunLog, diff_runs
from repro.runtime import FingerprintCache, Runtime
from repro.unlearning import ShardedUnlearner
from repro.uncertain import cpclean_greedy


@pytest.fixture()
def game(blobs_split):
    X_train, y_train, X_valid, y_valid = blobs_split
    def make(runtime=None):
        return Utility(KNeighborsClassifier(3), X_train[:24], y_train[:24],
                       X_valid, y_valid, runtime=runtime)
    return make


def test_shapley_mc_emits_span_metrics_and_event(game):
    obs = Observer(run_id="w")
    estimator = MonteCarloShapley(n_permutations=4, seed=0, observer=obs)
    values = estimator.score(game())

    (root,) = obs.tracer.roots
    assert root.name == "shapley_mc"
    assert root.attrs["players"] == 24
    assert root.wall_seconds > 0

    metrics = obs.metrics.snapshot()
    assert metrics["importance.permutations"] == 4
    assert metrics["utility.evaluations"] > 0

    (event,) = obs.runlog.events
    assert event["kind"] == "importance.run"
    assert event["method"] == "shapley_mc"
    assert event["params"]["n_permutations"] == 4
    assert event["seed"] == 0
    assert len(event["data_fingerprint"]) == 64
    assert event["permutations_used"] == 4
    assert event["score_min"] <= event["score_mean"] <= event["score_max"]
    assert np.isclose(event["score_mean"], float(np.mean(values)))


def test_observed_scores_match_unobserved(game):
    plain = MonteCarloShapley(n_permutations=4, seed=0).score(game())
    observed = MonteCarloShapley(n_permutations=4, seed=0,
                                 observer=Observer()).score(game())
    np.testing.assert_array_equal(plain, observed)


def test_identical_runs_have_empty_provenance_diff(game):
    logs = []
    for _ in range(2):
        obs = Observer()
        MonteCarloShapley(n_permutations=3, seed=5, observer=obs).score(game())
        logs.append(obs.runlog)
    assert diff_runs(*logs) == []


def test_seed_change_shows_up_in_provenance_diff(game):
    logs = []
    for seed in (0, 1):
        obs = Observer()
        MonteCarloShapley(n_permutations=3, seed=seed,
                          observer=obs).score(game())
        logs.append(obs.runlog)
    assert any("seed" in line for line in diff_runs(*logs))


@pytest.mark.parametrize("method,build", [
    ("banzhaf", lambda obs: DataBanzhaf(n_samples=8, seed=0, observer=obs)),
    ("beta_shapley", lambda obs: BetaShapley(n_permutations=3, seed=0,
                                             observer=obs)),
])
def test_other_estimators_emit_importance_run(game, method, build):
    obs = Observer()
    build(obs).score(game())
    (event,) = obs.runlog.events
    assert event["kind"] == "importance.run"
    assert event["method"] == method
    assert obs.tracer.roots[0].name == method
    assert obs.metrics.snapshot()["utility.evaluations"] > 0


class _StopAt:
    """``partial=`` hook that stops the loop once ``n`` units folded."""

    every = 1

    def __init__(self, n):
        self.n = n

    def publish(self, **fields):
        return fields["completed"] >= self.n


@pytest.mark.parametrize("counter,run", [
    ("importance.permutations", lambda u, obs, hook: MonteCarloShapley(
        n_permutations=20, seed=0, observer=obs, partial=hook).score(u)),
    ("importance.permutations", lambda u, obs, hook: BetaShapley(
        n_permutations=20, seed=0, observer=obs, partial=hook).score(u)),
    ("importance.coalitions", lambda u, obs, hook: DataBanzhaf(
        n_samples=40, seed=0, observer=obs, partial=hook).score(u)),
    ("importance.coalitions", lambda u, obs, hook: leave_one_out(
        u, observer=obs, partial=hook)),
], ids=["shapley_mc", "beta_shapley", "banzhaf", "leave_one_out"])
def test_unit_counter_counts_folded_units_after_early_stop(game, counter,
                                                           run):
    obs = Observer()
    run(game(), obs, _StopAt(5))
    assert obs.metrics.snapshot()[counter] == 5


def test_leave_one_out_emits_event(game):
    obs = Observer()
    leave_one_out(game(), observer=obs)
    (event,) = obs.runlog.events
    assert event["method"] == "leave_one_out"
    assert event["utility_calls"] > 0


def test_runtime_map_spans_nest_under_estimator_span(game):
    obs = Observer()
    with Runtime(backend="serial", cache=FingerprintCache(),
                 observer=obs) as runtime:
        MonteCarloShapley(n_permutations=4, seed=0,
                          observer=obs).score(game(runtime))
    (root,) = obs.tracer.roots
    assert root.name == "shapley_mc"
    child_names = {c.name for c in root.children}
    assert "runtime.shapley_mc" in child_names
    runtime_span = next(c for c in root.children
                        if c.name == "runtime.shapley_mc")
    assert runtime_span.attrs["backend"] == "serial"
    assert runtime_span.attrs["tasks"] == 4
    assert root.cache is not None  # fingerprint-cache delta attached
    assert obs.metrics.snapshot()["runtime.tasks"] >= 4


def test_iterative_cleaner_emits_round_events(hiring_tables):
    letters, _, _ = hiring_tables
    from repro.core.api import _encode, default_letter_encoder, \
        inject_labelerrors

    train = letters.take(range(60))
    valid = letters.take(range(60, 100))
    dirty, _ = inject_labelerrors(train, fraction=0.2)

    def encode(frame):
        X, y, _, _ = _encode(frame)
        return X, y

    Xv, yv, _, _ = _encode(valid)
    obs = Observer(run_id="clean")
    cleaner = IterativeCleaner(
        LogisticRegression(max_iter=50), "knn_shapley",
        CleaningOracle(train), encode=encode, batch=5, seed=0, observer=obs)
    result = cleaner.run(dirty, Xv, yv, n_rounds=2)

    round_events = list(obs.runlog.iter_events("cleaning.round"))
    assert [e["round"] for e in round_events] == [0, 1]
    assert all(len(e["cleaned_row_ids"]) == 5 for e in round_events)
    assert [e["score"] for e in round_events] == result.scores[1:]

    (run_event,) = obs.runlog.iter_events("cleaning.run")
    assert run_event["rounds"] == 2
    assert run_event["initial"] == result.initial
    assert run_event["final"] == result.final
    assert run_event["cleaned_row_ids"] == result.cleaned_ids

    assert obs.metrics.snapshot()["cleaning.rows_cleaned"] == 10

    (root,) = obs.tracer.roots
    assert root.name == "cleaning.run"
    assert [c.name for c in root.children] == ["cleaning.round"] * 2


def test_cpclean_greedy_emits_events():
    rng = np.random.default_rng(3)
    X_clean, y = make_blobs(24, n_features=2, seed=3)
    X_dirty = X_clean.copy()
    holes = rng.choice(len(X_dirty), size=4, replace=False)
    X_dirty[holes, 0] = np.nan
    X_test, _ = make_blobs(10, n_features=2, seed=4)

    obs = Observer()
    result = cpclean_greedy(X_dirty, y, X_clean, X_test, k=3,
                            max_cleaned=2, observer=obs)

    rounds = list(obs.runlog.iter_events("cpclean.round"))
    assert len(rounds) == result["n_cleaned"]
    assert [e["row"] for e in rounds] == result["cleaned_rows"]
    (run_event,) = obs.runlog.iter_events("cpclean.run")
    assert run_event["n_cleaned"] == result["n_cleaned"]
    metrics = obs.metrics.snapshot()
    if result["n_cleaned"]:
        assert metrics["cpclean.rows_cleaned"] == result["n_cleaned"]
        assert metrics["cpclean.candidate_evals"] > 0
    assert obs.tracer.roots[0].name == "cpclean.greedy"


def test_sharded_unlearner_counts_requests(blobs):
    X, y = blobs
    obs = Observer()
    unlearner = ShardedUnlearner(KNeighborsClassifier(3), n_shards=4,
                                 seed=0, observer=obs).fit(X, y)
    unlearner.unlearn([0, 1, 2])
    unlearner.unlearn([0])     # idempotent: already deleted

    metrics = obs.metrics.snapshot()
    assert metrics["unlearning.requests"] == 2
    assert metrics["unlearning.rows_deleted"] == 3

    (fit_event,) = obs.runlog.iter_events("unlearning.fit")
    assert fit_event["n_shards"] == 4
    events = list(obs.runlog.iter_events("unlearning.unlearn"))
    assert events[0]["n_deleted"] == 3
    assert events[1]["n_deleted"] == 0
    assert events[1]["shards_retrained"] == []
    span_names = [s.name for s in obs.tracer.roots]
    assert span_names == ["sharded.fit", "sharded.unlearn",
                          "sharded.unlearn"]


def test_runlog_jsonl_written_during_wired_run(game, tmp_path):
    path = tmp_path / "run.jsonl"
    obs = Observer(log_path=path)
    MonteCarloShapley(n_permutations=3, seed=0, observer=obs).score(game())
    loaded = RunLog.load(path)
    assert diff_runs(obs.runlog, loaded) == []
