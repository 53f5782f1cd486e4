"""Unit tests for LOO, Monte-Carlo Shapley, Banzhaf, and Beta Shapley."""

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.importance import (
    BetaShapley,
    DataBanzhaf,
    MonteCarloShapley,
    Utility,
    leave_one_out,
)
from repro.importance.beta_shapley import beta_size_weights
from repro.ml import KNeighborsClassifier


def _knn_utility(dirty_blobs):
    return Utility(KNeighborsClassifier(3),
                   dirty_blobs["X_train"], dirty_blobs["y_dirty"],
                   dirty_blobs["X_valid"], dirty_blobs["y_valid"])


class TestLeaveOneOut:
    def test_one_value_per_player(self, dirty_utility):
        values = leave_one_out(dirty_utility)
        assert values.shape == (dirty_utility.n_players,)

    def test_definition_holds_per_point(self, dirty_utility):
        values = leave_one_out(dirty_utility)
        n = dirty_utility.n_players
        full = dirty_utility.full_value()
        for i in (0, n // 2, n - 1):
            without = dirty_utility(np.delete(np.arange(n), i))
            assert values[i] == pytest.approx(full - without)


class TestMonteCarloShapley:
    def test_converges_towards_knn_ranking(self, dirty_blobs):
        """With enough permutations, MC Shapley should rank a decent share
        of the flipped points at the bottom."""
        utility = _knn_utility(dirty_blobs)
        values = MonteCarloShapley(n_permutations=25, truncation_tol=0.02,
                                   seed=0).score(utility)
        worst = set(np.argsort(values)[:20].tolist())
        flipped = set(dirty_blobs["flipped"].tolist())
        assert len(worst & flipped) / len(flipped) >= 0.4

    def test_truncation_reduces_trainings(self, dirty_blobs):
        utility_full = _knn_utility(dirty_blobs)
        MonteCarloShapley(n_permutations=3, truncation_tol=0.0,
                          seed=1).score(utility_full)
        utility_truncated = _knn_utility(dirty_blobs)
        MonteCarloShapley(n_permutations=3, truncation_tol=0.05,
                          seed=1).score(utility_truncated)
        assert utility_truncated.calls < utility_full.calls

    def test_convergence_early_stop(self, dirty_blobs):
        utility = _knn_utility(dirty_blobs)
        estimator = MonteCarloShapley(n_permutations=50, truncation_tol=0.05,
                                      convergence_tol=0.5,
                                      convergence_window=3, seed=2)
        estimator.score(utility)
        assert estimator.n_permutations_used_ < 50

    def test_seed_reproducible(self, dirty_blobs):
        a = MonteCarloShapley(n_permutations=4, seed=9).score(
            _knn_utility(dirty_blobs))
        b = MonteCarloShapley(n_permutations=4, seed=9).score(
            _knn_utility(dirty_blobs))
        np.testing.assert_array_equal(a, b)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            MonteCarloShapley(n_permutations=0)
        with pytest.raises(ValidationError):
            MonteCarloShapley(truncation_tol=-1.0)


class TestDataBanzhaf:
    def test_detects_flipped_labels(self, dirty_blobs):
        utility = _knn_utility(dirty_blobs)
        values = DataBanzhaf(n_samples=150, seed=0).score(utility)
        worst = set(np.argsort(values)[:20].tolist())
        flipped = set(dirty_blobs["flipped"].tolist())
        assert len(worst & flipped) / len(flipped) >= 0.4

    def test_msr_reuses_every_sample(self, dirty_blobs):
        """MSR does exactly n_samples trainings regardless of n_players."""
        utility = _knn_utility(dirty_blobs)
        DataBanzhaf(n_samples=40, seed=1).score(utility)
        assert utility.calls <= 40

    def test_minimum_samples_validated(self):
        with pytest.raises(ValidationError):
            DataBanzhaf(n_samples=1)


class TestBetaShapley:
    def test_size_weights_sum_to_one(self):
        for alpha, beta in [(1, 1), (16, 1), (1, 16), (4, 4)]:
            weights = beta_size_weights(30, alpha, beta)
            assert weights.sum() == pytest.approx(1.0)

    def test_uniform_weights_recover_shapley(self):
        """Beta(1,1) size distribution is uniform over coalition sizes."""
        weights = beta_size_weights(25, 1.0, 1.0)
        np.testing.assert_allclose(weights, 1.0 / 25, atol=1e-12)

    def test_beta16_1_emphasizes_small_coalitions(self):
        weights = beta_size_weights(40, 16.0, 1.0)
        assert weights[0] > weights[-1]
        assert np.argmax(weights) < 5

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValidationError):
            beta_size_weights(10, 0.0, 1.0)

    def test_detects_flipped_labels(self, dirty_blobs):
        utility = _knn_utility(dirty_blobs)
        values = BetaShapley(alpha=16, beta=1, n_permutations=10,
                             seed=0).score(utility)
        worst = set(np.argsort(values)[:20].tolist())
        flipped = set(dirty_blobs["flipped"].tolist())
        assert len(worst & flipped) / len(flipped) >= 0.4


@pytest.mark.parametrize("build", [
    lambda: MonteCarloShapley(convergence_tol=0.01, convergence_window=0),
    lambda: MonteCarloShapley(convergence_tol=0.01, convergence_window=-3),
    lambda: MonteCarloShapley(convergence_tol=0.0),
    lambda: MonteCarloShapley(convergence_tol=-0.5),
    lambda: BetaShapley(alpha=-1),
    lambda: BetaShapley(alpha=0.0),
    lambda: BetaShapley(beta=-2.0),
], ids=["window-0", "window-neg", "tol-0", "tol-neg", "alpha-neg",
        "alpha-0", "beta-neg"])
def test_invalid_sampling_params_rejected_at_construction(build):
    with pytest.raises(ValidationError):
        build()
