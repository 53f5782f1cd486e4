"""Unit tests for CPClean-style certain predictions."""

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.datasets import make_blobs
from repro.errors import inject_missing_array
from repro.uncertain import CertainPredictionKNN, cpclean_greedy


@pytest.fixture(scope="module")
def incomplete_blobs():
    X, y = make_blobs(80, n_features=2, centers=2, cluster_std=1.0, seed=12)
    X_test, y_test = make_blobs(25, n_features=2, centers=2,
                                cluster_std=1.0, seed=12)
    X_dirty, mask = inject_missing_array(X, fraction=0.15, columns=[0],
                                         seed=3)
    return {"X": X, "y": y, "X_dirty": X_dirty, "mask": mask,
            "X_test": X_test, "y_test": y_test}


class TestCertainPredictionKNN:
    def test_complete_data_is_always_certain(self, incomplete_blobs):
        checker = CertainPredictionKNN(k=3).fit(incomplete_blobs["X"],
                                                incomplete_blobs["y"])
        assert checker.certain_fraction(incomplete_blobs["X_test"]) == 1.0

    def test_certain_predictions_match_ground_truth_worlds(
            self, incomplete_blobs):
        """Whenever the checker says 'certain', the true-world k-NN must
        predict exactly that label (the true world is one completion)."""
        from repro.ml import KNeighborsClassifier

        checker = CertainPredictionKNN(k=3).fit(incomplete_blobs["X_dirty"],
                                                incomplete_blobs["y"])
        truth_model = KNeighborsClassifier(3).fit(incomplete_blobs["X"],
                                                  incomplete_blobs["y"])
        for x in incomplete_blobs["X_test"]:
            outcome = checker.check(x)
            if outcome["certain"]:
                assert outcome["prediction"] == \
                    truth_model.predict(x[None, :])[0]

    def test_certainty_never_contradicted_by_sampled_worlds(
            self, incomplete_blobs):
        """Monte-Carlo check of the worst-case argument: no sampled
        completion may flip a certain prediction."""
        from repro.ml import KNeighborsClassifier

        X_dirty = incomplete_blobs["X_dirty"]
        checker = CertainPredictionKNN(k=3).fit(X_dirty, incomplete_blobs["y"])
        lo = np.nanmin(X_dirty, axis=0)
        hi = np.nanmax(X_dirty, axis=0)
        nan = np.isnan(X_dirty)
        rng = np.random.default_rng(1)
        certain_points = [
            (x, checker.check(x)["prediction"])
            for x in incomplete_blobs["X_test"]
            if checker.check(x)["certain"]
        ]
        assert certain_points  # the test is vacuous otherwise
        for _ in range(15):
            world = X_dirty.copy()
            fills = rng.uniform(lo, hi, size=world.shape)
            world[nan] = fills[nan]
            model = KNeighborsClassifier(3).fit(world, incomplete_blobs["y"])
            for x, certain_label in certain_points:
                assert model.predict(x[None, :])[0] == certain_label

    def test_more_missingness_less_certainty(self):
        X, y = make_blobs(80, n_features=2, centers=2, cluster_std=1.2,
                          seed=5)
        X_test, _ = make_blobs(30, n_features=2, centers=2, cluster_std=1.2,
                               seed=5)
        fractions = []
        for missing in (0.05, 0.5):
            X_dirty, _ = inject_missing_array(X, fraction=missing,
                                              columns=[0, 1], seed=6)
            checker = CertainPredictionKNN(k=3).fit(X_dirty, y)
            fractions.append(checker.certain_fraction(X_test))
        assert fractions[0] >= fractions[1]

    def test_uncertain_outcome_reports_midpoint_guess(self):
        X = np.array([[0.0], [np.nan], [np.nan]])
        y = np.array([0, 1, 1])
        checker = CertainPredictionKNN(k=3, bounds=(np.array([-10.0]),
                                                    np.array([10.0]))).fit(X, y)
        outcome = checker.check(np.array([0.0]))
        if not outcome["certain"]:
            assert "midpoint_guess" in outcome

    def test_multiclass_rejected(self):
        X, y = make_blobs(30, centers=3, seed=7)
        with pytest.raises(ValidationError):
            CertainPredictionKNN(k=3).fit(X, y)

    def test_k_exceeding_train_rejected(self):
        with pytest.raises(ValidationError):
            CertainPredictionKNN(k=10).fit(np.ones((3, 1)),
                                           np.array([0, 1, 0]))


class TestCpcleanGreedy:
    def test_certainty_trajectory_monotone(self, incomplete_blobs):
        outcome = cpclean_greedy(incomplete_blobs["X_dirty"],
                                 incomplete_blobs["y"],
                                 incomplete_blobs["X"],
                                 incomplete_blobs["X_test"][:10],
                                 k=3, max_cleaned=6)
        trajectory = outcome["certain_fraction"]
        assert all(b >= a - 1e-9 for a, b in zip(trajectory, trajectory[1:]))

    def test_stops_when_all_certain(self, incomplete_blobs):
        outcome = cpclean_greedy(incomplete_blobs["X_dirty"],
                                 incomplete_blobs["y"],
                                 incomplete_blobs["X"],
                                 incomplete_blobs["X_test"][:10], k=3)
        if outcome["certain_fraction"][-1] == 1.0:
            incomplete_rows = int(np.isnan(
                incomplete_blobs["X_dirty"]).any(axis=1).sum())
            assert outcome["n_cleaned"] <= incomplete_rows

    def test_budget_respected(self, incomplete_blobs):
        outcome = cpclean_greedy(incomplete_blobs["X_dirty"],
                                 incomplete_blobs["y"],
                                 incomplete_blobs["X"],
                                 incomplete_blobs["X_test"][:10],
                                 k=3, max_cleaned=2)
        assert outcome["n_cleaned"] <= 2


class TestIncrementalCandidateEvaluation:
    """The greedy selector's incremental candidate path must be
    bit-identical to refitting a fresh checker per candidate."""

    @staticmethod
    def _shared(X, X_clean, y, X_test, k):
        from repro.uncertain.cpclean import _distance_bounds

        nan = np.isnan(X)
        lo = np.nanmin(X, axis=0)
        hi = np.nanmax(X, axis=0)
        X_lo = np.where(nan, np.broadcast_to(lo, X.shape), X)
        X_hi = np.where(nan, np.broadcast_to(hi, X.shape), X)
        base_dmin, base_dmax = _distance_bounds(X_lo, X_hi, X_test)
        exact = _distance_bounds(X_clean, X_clean, X_test)[0]
        return (X, X_clean, y, X_test, k, np.unique(y), lo, hi,
                base_dmin, base_dmax, exact)

    def _assert_all_candidates_match(self, X, X_clean, y, X_test, k=3):
        from repro.uncertain.cpclean import (
            _candidate_fraction_task,
            _incremental_candidate_fraction_task,
        )

        shared = self._shared(X, X_clean, y, X_test, k)
        brute_shared = (X, X_clean, y, X_test, k)
        for row in np.flatnonzero(np.isnan(X).any(axis=1)):
            brute = _candidate_fraction_task(brute_shared, int(row))
            fast = _incremental_candidate_fraction_task(shared, int(row))
            assert float(brute).hex() == float(fast).hex()

    def test_bit_identical_to_brute_force(self, incomplete_blobs):
        self._assert_all_candidates_match(
            incomplete_blobs["X_dirty"], incomplete_blobs["X"],
            incomplete_blobs["y"], incomplete_blobs["X_test"])

    def test_bit_identical_when_fills_change(self, incomplete_blobs):
        # A hidden extreme value: revealing it moves the column minimum,
        # which shifts every other incomplete row's fill values — the
        # incremental path must detect this and recompute.
        X_clean = incomplete_blobs["X"].copy()
        X_dirty = incomplete_blobs["X_dirty"]
        row = int(np.flatnonzero(np.isnan(X_dirty).any(axis=1))[0])
        col = int(np.flatnonzero(np.isnan(X_dirty[row]))[0])
        X_clean[row, col] = X_clean[:, col].min() - 10.0
        self._assert_all_candidates_match(
            X_dirty, X_clean, incomplete_blobs["y"],
            incomplete_blobs["X_test"])

    def test_greedy_matches_brute_force_reference(self, incomplete_blobs):
        from repro.uncertain.cpclean import _candidate_fraction_task

        X_dirty = incomplete_blobs["X_dirty"]
        X_clean = incomplete_blobs["X"]
        y, X_test = incomplete_blobs["y"], incomplete_blobs["X_test"]
        result = cpclean_greedy(X_dirty, y, X_clean, X_test, k=3,
                                max_cleaned=4)

        # Reference: the pre-kernel greedy loop, refitting per candidate.
        X_current = X_dirty.copy()
        incomplete = list(np.flatnonzero(np.isnan(X_current).any(axis=1)))
        checker = CertainPredictionKNN(k=3).fit(X_current, y)
        cleaned = [checker.certain_fraction(X_test)]
        rows = []
        while incomplete and len(rows) < 4 and cleaned[-1] < 1.0:
            fractions = [_candidate_fraction_task(
                (X_current, X_clean, y, X_test, 3), r) for r in incomplete]
            best = int(np.argmax(fractions))
            rows.append(incomplete[best])
            X_current[incomplete[best]] = X_clean[incomplete[best]]
            cleaned.append(fractions[best])
            incomplete.pop(best)
        assert result["cleaned_rows"] == rows
        assert [float(f).hex() for f in result["certain_fraction"]] == \
            [float(f).hex() for f in cleaned]


@pytest.fixture(scope="module")
def hard_blobs():
    """Overlapping clusters + heavy missingness: the greedy selector
    genuinely cleans several rows (the well-separated fixture above is
    often certain from the start)."""
    X, y = make_blobs(60, n_features=2, centers=2, cluster_std=2.5, seed=12)
    X_test, _ = make_blobs(20, n_features=2, centers=2, cluster_std=2.5,
                           seed=13)
    from repro.errors import inject_missing_array
    X_dirty, _ = inject_missing_array(X, fraction=0.3, seed=3)
    return {"X": X, "y": y, "X_dirty": X_dirty, "X_test": X_test}


class TestCheckpointResume:
    def _select(self, hard_blobs, **kwargs):
        return cpclean_greedy(hard_blobs["X_dirty"], hard_blobs["y"],
                              hard_blobs["X"], hard_blobs["X_test"], k=3,
                              max_cleaned=5, **kwargs)

    def test_resume_reproduces_selection(self, hard_blobs, tmp_path):
        ref = self._select(hard_blobs)
        assert ref["n_cleaned"] == 5  # the scenario must exercise the loop
        self._select(hard_blobs, checkpoint=tmp_path)
        from tests.journal import keep_only_oldest
        # Keep only the oldest of the newest three records — a kill
        # mid-selection.
        keep_only_oldest(tmp_path)
        resumed = self._select(hard_blobs, resume_from=tmp_path)
        assert resumed["cleaned_rows"] == ref["cleaned_rows"]
        assert [float(f).hex() for f in resumed["certain_fraction"]] == \
            [float(f).hex() for f in ref["certain_fraction"]]
        assert resumed["n_cleaned"] == ref["n_cleaned"]

    def test_resume_extends_budget(self, hard_blobs, tmp_path):
        """The greedy order is a prefix property: a snapshot from a
        budget-3 run seeds a budget-5 run without divergence."""
        ref = self._select(hard_blobs)
        cpclean_greedy(hard_blobs["X_dirty"], hard_blobs["y"],
                       hard_blobs["X"], hard_blobs["X_test"],
                       k=3, max_cleaned=3, checkpoint=tmp_path)
        resumed = self._select(hard_blobs, resume_from=tmp_path)
        assert resumed["cleaned_rows"] == ref["cleaned_rows"]
        assert [float(f).hex() for f in resumed["certain_fraction"]] == \
            [float(f).hex() for f in ref["certain_fraction"]]

    def test_identity_mismatch_rejected(self, hard_blobs, tmp_path):
        self._select(hard_blobs, checkpoint=tmp_path)
        with pytest.raises(ValidationError, match="different job"):
            cpclean_greedy(hard_blobs["X_dirty"], hard_blobs["y"],
                           hard_blobs["X"], hard_blobs["X_test"], k=5,
                           resume_from=tmp_path)
