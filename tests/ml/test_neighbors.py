"""Unit tests for the k-NN classifier and pairwise distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ValidationError
from repro.ml import KNeighborsClassifier
from repro.ml.neighbors import _k_nearest, _stable_order, pairwise_distances


class TestPairwiseDistances:
    def test_euclidean_matches_numpy(self, rng):
        A = rng.standard_normal((10, 4))
        B = rng.standard_normal((7, 4))
        expected = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
        np.testing.assert_allclose(
            pairwise_distances(A, B), expected, atol=1e-9)

    def test_manhattan(self):
        A = np.array([[0.0, 0.0]])
        B = np.array([[1.0, 2.0]])
        assert pairwise_distances(A, B, "manhattan")[0, 0] == 3.0

    def test_cosine_of_identical_vector_is_zero(self):
        A = np.array([[1.0, 2.0]])
        assert pairwise_distances(A, A, "cosine")[0, 0] == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            pairwise_distances(np.ones((2, 3)), np.ones((2, 4)))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError):
            pairwise_distances(np.ones((1, 1)), np.ones((1, 1)), "hamming")


class TestKNeighborsClassifier:
    def test_1nn_memorizes_training_data(self, blobs):
        X, y = blobs
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_kneighbors_sorted_by_distance(self, blobs):
        X, y = blobs
        model = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        distances, _ = model.kneighbors(X[:3])
        assert np.all(np.diff(distances, axis=1) >= 0)

    def test_deterministic_tie_breaking_by_index(self):
        X = np.array([[0.0], [1.0], [1.0]])
        y = np.array([0, 1, 0])
        model = KNeighborsClassifier(n_neighbors=2).fit(X, y)
        _, indices = model.kneighbors(np.array([[1.0]]))
        assert indices[0].tolist() == [1, 2]

    def test_proba_is_vote_fraction(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([0, 0, 1, 1])
        model = KNeighborsClassifier(n_neighbors=3).fit(X, y)
        proba = model.predict_proba(np.array([[0.0]]))
        np.testing.assert_allclose(proba[0], [2 / 3, 1 / 3])

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValidationError):
            KNeighborsClassifier(n_neighbors=10).fit(
                np.ones((3, 1)), np.array([0, 1, 0]))

    def test_generalizes_on_blobs(self, blobs_split):
        X_train, y_train, X_test, y_test = blobs_split
        model = KNeighborsClassifier(n_neighbors=5).fit(X_train, y_train)
        assert model.score(X_test, y_test) >= 0.9


class TestManhattanChunking:
    def test_chunked_output_identical_to_broadcast(self, rng, monkeypatch):
        from repro.ml import neighbors

        A = rng.standard_normal((37, 5))
        B = rng.standard_normal((11, 5))
        expected = np.abs(A[:, None, :] - B[None, :, :]).sum(axis=2)
        # Force many tiny chunks: every boundary must still be exact.
        monkeypatch.setattr(neighbors, "_MANHATTAN_CHUNK_ELEMENTS", 1)
        chunked = pairwise_distances(A, B, metric="manhattan")
        np.testing.assert_array_equal(chunked, expected)

    def test_single_chunk_path_unchanged(self, rng):
        A = rng.standard_normal((8, 3))
        B = rng.standard_normal((6, 3))
        expected = np.abs(A[:, None, :] - B[None, :, :]).sum(axis=2)
        np.testing.assert_array_equal(
            pairwise_distances(A, B, metric="manhattan"), expected)


class TestPartialFit:
    def test_partial_fit_equals_batch_fit(self, rng):
        X = rng.standard_normal((30, 3))
        y = rng.integers(0, 3, size=30)
        batch = KNeighborsClassifier(n_neighbors=3).fit(X, y)
        grown = KNeighborsClassifier(n_neighbors=3).fit(X[:10], y[:10])
        grown.partial_fit(X[10:20], y[10:20]).partial_fit(X[20:], y[20:])
        queries = rng.standard_normal((12, 3))
        np.testing.assert_array_equal(batch.predict(queries),
                                      grown.predict(queries))
        np.testing.assert_array_equal(batch.classes_, grown.classes_)

    def test_partial_fit_on_unfitted_is_fit(self, rng):
        X = rng.standard_normal((12, 2))
        y = rng.integers(0, 2, size=12)
        model = KNeighborsClassifier(n_neighbors=3).partial_fit(X, y)
        np.testing.assert_array_equal(model.predict(X[:4]),
                                      KNeighborsClassifier(3).fit(
                                          X, y).predict(X[:4]))

    def test_partial_fit_feature_mismatch_rejected(self, rng):
        X = rng.standard_normal((10, 2))
        y = rng.integers(0, 2, size=10)
        model = KNeighborsClassifier(n_neighbors=2).fit(X, y)
        with pytest.raises(ValidationError):
            model.partial_fit(rng.standard_normal((4, 3)),
                              np.array([0, 1, 0, 1]))


class TestKNearest:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 14),
           st.integers(0, 2**16), st.sampled_from([2, 4, 1000]))
    def test_matches_stable_full_sort(self, n_rows, n_cols, k, seed, levels):
        """Tie-heavy distances (few levels) exercise the fallback rows;
        many levels exercise the partition path."""
        rng = np.random.default_rng(seed)
        dist = rng.integers(0, levels, size=(n_rows, n_cols)) / 4.0
        np.testing.assert_array_equal(_k_nearest(dist, k),
                                      _stable_order(dist)[:, :k])

    def test_kneighbors_breaks_ties_by_training_index(self):
        X = np.array([[0.0], [2.0], [-2.0], [1.0], [-1.0]])
        model = KNeighborsClassifier(3).fit(X, [0, 1, 0, 1, 0])
        distances, indices = model.kneighbors(np.array([[0.0], [1.5]]))
        np.testing.assert_array_equal(indices, [[0, 3, 4], [1, 3, 0]])
        np.testing.assert_array_equal(distances,
                                      [[0.0, 1.0, 1.0], [0.5, 0.5, 1.5]])
