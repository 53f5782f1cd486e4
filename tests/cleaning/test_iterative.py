"""Unit tests for the iterative prioritized cleaner."""

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.cleaning import CleaningOracle, IterativeCleaner, make_strategy
from repro.datasets import make_blobs
from repro.dataframe import DataFrame
from repro.errors import inject_label_errors
from repro.ml import KNeighborsClassifier, LogisticRegression


@pytest.fixture(scope="module")
def setting():
    X, y = make_blobs(150, n_features=3, centers=2, cluster_std=1.3, seed=19)
    frame = DataFrame({
        "f0": X[:100, 0], "f1": X[:100, 1], "f2": X[:100, 2],
        "label": [str(v) for v in y[:100]],
    })
    dirty, report = inject_label_errors(frame, column="label", fraction=0.25,
                                        seed=20)
    return {
        "clean": frame, "dirty": dirty, "report": report,
        "X_valid": X[100:], "y_valid": np.array([str(v) for v in y[100:]]),
    }


def encode(frame):
    X = frame.select(["f0", "f1", "f2"]).to_numpy()
    y = np.array(frame["label"].to_list())
    return X, y


class TestStrategies:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            make_strategy("quantum")

    def test_random_strategy_is_permutation(self, setting, rng):
        strategy = make_strategy("random")
        X, y = encode(setting["dirty"])
        scores = strategy(None, X, y, setting["X_valid"], setting["y_valid"],
                          np.random.default_rng(0))
        assert sorted(scores.tolist()) == list(range(len(X)))

    def test_loss_strategy_ranks_flipped_low(self, setting, rng):
        strategy = make_strategy("loss")
        X, y = encode(setting["dirty"])
        scores = strategy(LogisticRegression(max_iter=60), X, y,
                          setting["X_valid"], setting["y_valid"],
                          np.random.default_rng(0))
        flipped_positions = setting["dirty"].positions_of(
            sorted(setting["report"].row_ids()))
        worst = set(np.argsort(scores)[:25].tolist())
        hits = len(worst & set(int(p) for p in flipped_positions))
        assert hits / len(flipped_positions) >= 0.6


class TestIterativeCleaner:
    def test_shapley_cleaning_beats_random(self, setting):
        def run(strategy, seed):
            oracle = CleaningOracle(setting["clean"])
            cleaner = IterativeCleaner(
                KNeighborsClassifier(5), strategy, oracle,
                encode=encode, batch=10, seed=seed)
            return cleaner.run(setting["dirty"], setting["X_valid"],
                               setting["y_valid"], n_rounds=2)

        shapley = run("knn_shapley", 0)
        random_runs = [run("random", s).improvement for s in range(3)]
        assert shapley.improvement >= np.mean(random_runs)

    def test_trajectory_length(self, setting):
        oracle = CleaningOracle(setting["clean"])
        cleaner = IterativeCleaner(KNeighborsClassifier(5), "knn_shapley",
                                   oracle, encode=encode, batch=5)
        result = cleaner.run(setting["dirty"], setting["X_valid"],
                             setting["y_valid"], n_rounds=3)
        assert len(result.scores) == 4
        assert result.rounds == 3
        assert len(result.cleaned_ids) == 15

    def test_rescoring_each_round(self, setting):
        """Cleaned rows must not be recleaned: ids are distinct."""
        oracle = CleaningOracle(setting["clean"])
        cleaner = IterativeCleaner(KNeighborsClassifier(5), "knn_shapley",
                                   oracle, encode=encode, batch=8)
        result = cleaner.run(setting["dirty"], setting["X_valid"],
                             setting["y_valid"], n_rounds=2)
        # Note: re-scoring may re-rank already-clean rows lowest again; the
        # oracle tolerates that, but most cleaned ids should be distinct.
        assert len(set(result.cleaned_ids)) >= len(result.cleaned_ids) * 0.6

    def test_invalid_rounds_rejected(self, setting):
        oracle = CleaningOracle(setting["clean"])
        cleaner = IterativeCleaner(KNeighborsClassifier(5), "random", oracle,
                                   encode=encode)
        with pytest.raises(ValidationError):
            cleaner.run(setting["dirty"], setting["X_valid"],
                        setting["y_valid"], n_rounds=0)


class TestCheckpointResume:
    def _cleaner(self, setting, **kwargs):
        # "random" consumes RNG state every round, so an identical
        # resumed trajectory proves the snapshot carries the stream.
        return IterativeCleaner(KNeighborsClassifier(5), "random",
                                CleaningOracle(setting["clean"]),
                                encode=encode, batch=10, seed=3, **kwargs)

    def _run(self, setting, cleaner, n_rounds=4):
        return cleaner.run(setting["dirty"], setting["X_valid"],
                           setting["y_valid"], n_rounds=n_rounds)

    def test_resume_reproduces_trajectory(self, setting, tmp_path):
        ref = self._run(setting, self._cleaner(setting))
        self._run(setting, self._cleaner(setting, checkpoint=tmp_path))
        # Keep only the oldest of the newest three records (rounds 2,
        # 3, 4): simulates a kill after round 2.
        from tests.journal import keep_only_oldest
        keep_only_oldest(tmp_path)
        resumed = self._run(setting, self._cleaner(setting,
                                                   resume_from=tmp_path))
        assert [s.hex() for s in resumed.scores] == \
            [s.hex() for s in ref.scores]
        assert resumed.cleaned_ids == ref.cleaned_ids
        assert resumed.rounds == ref.rounds

    def test_resume_extends_to_more_rounds(self, setting, tmp_path):
        ref = self._run(setting, self._cleaner(setting), n_rounds=5)
        self._run(setting, self._cleaner(setting, checkpoint=tmp_path),
                  n_rounds=3)
        resumed = self._run(setting, self._cleaner(setting,
                                                   resume_from=tmp_path),
                            n_rounds=5)
        assert [s.hex() for s in resumed.scores] == \
            [s.hex() for s in ref.scores]
        assert resumed.cleaned_ids == ref.cleaned_ids

    def test_resume_with_fewer_rounds_replays_a_prefix(self, setting,
                                                       tmp_path):
        ref = self._run(setting, self._cleaner(setting), n_rounds=2)
        self._run(setting, self._cleaner(setting, checkpoint=tmp_path),
                  n_rounds=5)
        resumed = self._run(setting, self._cleaner(setting,
                                                   resume_from=tmp_path),
                            n_rounds=2)
        assert [s.hex() for s in resumed.scores] == \
            [s.hex() for s in ref.scores]
        assert resumed.cleaned_ids == ref.cleaned_ids
        assert resumed.rounds == ref.rounds == 2

    def test_checkpoint_requires_integer_seed(self, setting, tmp_path):
        with pytest.raises(ValidationError, match="integer seed"):
            IterativeCleaner(KNeighborsClassifier(5), "random",
                             CleaningOracle(setting["clean"]),
                             encode=encode, seed=None, checkpoint=tmp_path)
