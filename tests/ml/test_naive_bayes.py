"""Unit tests for Gaussian naive Bayes."""

import numpy as np
import pytest

from repro.datasets import make_blobs
from repro.ml import GaussianNB


class TestGaussianNB:
    def test_separable_blobs(self, blobs_split):
        X_train, y_train, X_test, y_test = blobs_split
        model = GaussianNB().fit(X_train, y_train)
        assert model.score(X_test, y_test) >= 0.9

    def test_class_priors_match_frequencies(self):
        X = np.vstack([np.zeros((30, 1)), np.ones((10, 1))])
        y = np.array([0] * 30 + [1] * 10)
        model = GaussianNB().fit(X, y)
        np.testing.assert_allclose(model.class_prior_, [0.75, 0.25])

    def test_per_class_means_estimated(self):
        X = np.vstack([np.full((20, 1), -3.0), np.full((20, 1), 3.0)])
        y = np.array([0] * 20 + [1] * 20)
        model = GaussianNB().fit(X, y)
        np.testing.assert_allclose(model.theta_.ravel(), [-3.0, 3.0])

    def test_proba_sums_to_one(self, blobs):
        X, y = blobs
        proba = GaussianNB().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_var_smoothing_handles_constant_features(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        y = np.array([0] * 10 + [1] * 10)
        model = GaussianNB().fit(X, y)  # must not divide by zero
        assert model.score(X, y) == pytest.approx(1.0)

    def test_multiclass(self):
        X, y = make_blobs(150, centers=4, cluster_std=0.5, seed=9)
        model = GaussianNB().fit(X, y)
        assert model.score(X, y) >= 0.9

    def test_vectorized_jll_bit_identical_to_per_class_loop(self):
        """The broadcast/chunked ``_joint_log_likelihood`` must reproduce
        the original per-class loop bit for bit (same contiguous-axis
        reductions, same elementwise arithmetic)."""
        X, y = make_blobs(200, n_features=5, centers=3, seed=12)
        model = GaussianNB().fit(X, y)
        jll = model._joint_log_likelihood(X)
        reference = np.zeros((len(X), len(model.classes_)))
        for c in range(len(model.classes_)):
            log_det = np.sum(np.log(2.0 * np.pi * model.var_[c]))
            quad = np.sum((X - model.theta_[c]) ** 2 / model.var_[c], axis=1)
            reference[:, c] = np.log(model.class_prior_[c] + 1e-12) \
                - 0.5 * (log_det + quad)
        np.testing.assert_array_equal(jll, reference)

    def test_vectorized_jll_chunking_is_seamless(self):
        """Chunk boundaries (chunk < n_rows) must not change results."""
        X, y = make_blobs(64, n_features=3, centers=2, seed=13)
        model = GaussianNB().fit(X, y)
        whole = model._joint_log_likelihood(X)
        stitched = np.vstack([model._joint_log_likelihood(X[i:i + 7])
                              for i in range(0, len(X), 7)])
        np.testing.assert_array_equal(whole, stitched)


class TestPartialFit:
    def test_partial_fit_matches_batch_fit(self):
        X, y = make_blobs(90, n_features=3, centers=3, seed=4)
        batch = GaussianNB().fit(X, y)
        grown = GaussianNB().partial_fit(X[:30], y[:30])
        grown.partial_fit(X[30:60], y[30:60]).partial_fit(X[60:], y[60:])
        np.testing.assert_allclose(grown.theta_, batch.theta_, atol=1e-10)
        np.testing.assert_allclose(grown.var_, batch.var_, atol=1e-10)
        np.testing.assert_allclose(grown.class_prior_, batch.class_prior_)
        np.testing.assert_array_equal(grown.predict(X), batch.predict(X))

    def test_fit_then_partial_fit_continues(self):
        X, y = make_blobs(80, n_features=2, centers=2, seed=5)
        grown = GaussianNB().fit(X[:40], y[:40]).partial_fit(X[40:], y[40:])
        batch = GaussianNB().fit(X, y)
        np.testing.assert_allclose(grown.theta_, batch.theta_, atol=1e-10)
        np.testing.assert_allclose(grown.var_, batch.var_, atol=1e-10)

    def test_new_classes_widen_statistics(self):
        X, y = make_blobs(120, n_features=2, centers=3, seed=6)
        first = y < 2
        grown = GaussianNB().partial_fit(X[first], y[first])
        assert len(grown.classes_) == 2
        grown.partial_fit(X[~first], y[~first])
        assert len(grown.classes_) == 3
        batch = GaussianNB().fit(X, y)
        np.testing.assert_allclose(grown.theta_, batch.theta_, atol=1e-10)
        np.testing.assert_array_equal(grown.predict(X), batch.predict(X))

    def test_feature_mismatch_rejected(self):
        from repro.core.exceptions import ValidationError

        X, y = make_blobs(30, n_features=2, centers=2, seed=7)
        model = GaussianNB().fit(X, y)
        with pytest.raises(ValidationError):
            model.partial_fit(np.ones((4, 3)), np.array([0, 1, 0, 1]))


def _two_pass_fit(X, y, var_smoothing=1e-9):
    """The fit that gathered every class's rows twice (once for θ and
    σ², once for the running statistics), kept as the oracle."""
    classes, encoded = np.unique(y, return_inverse=True)
    k, d = len(classes), X.shape[1]
    theta, var, prior = np.zeros((k, d)), np.zeros((k, d)), np.zeros(k)
    for c in range(k):
        rows = X[encoded == c]
        theta[c] = rows.mean(axis=0)
        var[c] = rows.var(axis=0)
        prior[c] = len(rows) / len(X)
    var += var_smoothing * max(X.var(axis=0).max(), 1e-12)
    counts = np.bincount(encoded, minlength=k).astype(float)
    sums, sumsqs = np.zeros((k, d)), np.zeros((k, d))
    for c in range(k):
        rows = X[encoded == c]
        sums[c] = rows.sum(axis=0)
        sumsqs[c] = (rows * rows).sum(axis=0)
    return {"theta_": theta, "var_": var, "class_prior_": prior,
            "_counts": counts, "_sums": sums, "_sumsqs": sumsqs,
            "_total_sum": X.sum(axis=0), "_total_sumsq": (X * X).sum(axis=0)}


class TestSingleGatherFit:
    @pytest.mark.parametrize("seed", range(40))
    def test_hex_equal_to_two_pass_fit(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = 1 + seed % 5
        n, d = int(rng.integers(n_classes, 200)), int(rng.integers(1, 12))
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d) \
            + rng.normal(scale=100.0, size=d)
        y = np.concatenate([np.arange(n_classes),
                            rng.integers(0, n_classes, n - n_classes)])
        if n_classes > 1:
            y[y == n_classes - 1] = 0
            y[rng.integers(n)] = n_classes - 1  # a one-row class
        model = GaussianNB().fit(X, y)
        for name, expected in _two_pass_fit(X, y).items():
            got = np.asarray(getattr(model, name))
            assert got.tobytes() == expected.tobytes(), name
        assert model._n_samples == float(n)
