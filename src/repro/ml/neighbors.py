"""k-nearest-neighbor classifier.

Beyond serving as a baseline model, k-NN is the proxy model that makes
exact Shapley values tractable (KNN-Shapley, paper reference [33]) and
the model class for which certain predictions over incomplete data can be
decided efficiently (CPClean, reference [40]). Both of those algorithms
reuse :func:`pairwise_distances` and the sorted-neighbor machinery here.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.validation import check_array, check_X_y
from repro.ml.base import BaseEstimator, check_fitted


# Manhattan distances need an (rows_of_A, n_B, d) float64 intermediate;
# cap it around 64 MB by chunking over rows of A.
_MANHATTAN_CHUNK_ELEMENTS = 8_000_000


def pairwise_distances(A: np.ndarray, B: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Dense distance matrix between the rows of ``A`` and ``B``."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"incompatible shapes for pairwise distances: {A.shape} vs {B.shape}"
        )
    if metric == "euclidean":
        sq = (
            np.sum(A**2, axis=1)[:, None]
            + np.sum(B**2, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        return np.sqrt(np.maximum(sq, 0.0))
    if metric == "manhattan":
        step = max(1, _MANHATTAN_CHUNK_ELEMENTS // max(1, B.size))
        out = np.empty((len(A), len(B)))
        for start in range(0, len(A), step):
            stop = start + step
            out[start:stop] = np.abs(
                A[start:stop, None, :] - B[None, :, :]).sum(axis=2)
        return out
    if metric == "cosine":
        norm_a = np.linalg.norm(A, axis=1, keepdims=True)
        norm_b = np.linalg.norm(B, axis=1, keepdims=True)
        denom = np.maximum(norm_a, 1e-12) @ np.maximum(norm_b, 1e-12).T
        return 1.0 - (A @ B.T) / denom
    raise ValidationError(f"unknown metric {metric!r}")


def _stable_order(dist: np.ndarray) -> np.ndarray:
    """Per-row column order by (distance, column index)."""
    return np.lexsort(
        (np.broadcast_to(np.arange(dist.shape[1]), dist.shape), dist), axis=1)


def _k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` columns of :func:`_stable_order` per row, without
    sorting whole rows.

    A row whose k-th smallest distance bounds exactly ``k`` entries has
    its k nearest fixed as a set; only those are ordered (a stable sort,
    so equal distances keep index order). Rows with a tie across the
    k-th place take the full stable sort.
    """
    n_rows, n_cols = dist.shape
    if not 0 < k < n_cols:
        return _stable_order(dist)[:, :k]
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    near = dist <= kth
    tied = np.count_nonzero(near, axis=1) != k
    clear = ~tied
    cols = np.nonzero(near[clear])[1].reshape(-1, k)
    rows = np.flatnonzero(clear)[:, None]
    out = np.empty((n_rows, k), dtype=np.intp)
    out[clear] = np.take_along_axis(
        cols, np.argsort(dist[rows, cols], axis=1, kind="stable"), axis=1)
    if tied.any():
        out[tied] = _stable_order(dist[tied])[:, :k]
    return out


class KNeighborsClassifier(BaseEstimator):
    """Majority-vote k-NN classifier.

    Parameters
    ----------
    n_neighbors:
        Number of neighbors to vote.
    metric:
        ``"euclidean"``, ``"manhattan"`` or ``"cosine"``.
    """

    def __init__(self, n_neighbors: int = 5, metric: str = "euclidean"):
        self.n_neighbors = n_neighbors
        self.metric = metric

    def fit(self, X, y) -> "KNeighborsClassifier":
        X, y = check_X_y(X, y)
        if self.n_neighbors < 1:
            raise ValidationError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        if self.n_neighbors > len(X):
            raise ValidationError(
                f"n_neighbors={self.n_neighbors} exceeds training size {len(X)}"
            )
        self.classes_, self._encoded = np.unique(y, return_inverse=True)
        self._X = X
        return self

    def partial_fit(self, X, y) -> "KNeighborsClassifier":
        """Append training rows; equivalent to refitting on the union.

        k-NN's "fitted state" is the training set itself, so incremental
        fitting is concatenation — the hook coalition walks use to grow a
        prefix one example at a time without re-copying history.
        """
        if not hasattr(self, "_X"):
            return self.fit(X, y)
        X, y = check_X_y(X, y)
        if X.shape[1] != self._X.shape[1]:
            raise ValidationError(
                f"partial_fit feature mismatch: {X.shape[1]} vs "
                f"{self._X.shape[1]}")
        previous_y = self.classes_[self._encoded]
        merged_y = np.concatenate([previous_y, np.asarray(y)])
        self._X = np.concatenate([self._X, X])
        self.classes_, self._encoded = np.unique(merged_y,
                                                 return_inverse=True)
        return self

    def kneighbors(self, X, n_neighbors: int | None = None):
        """Return (distances, indices) of the nearest training rows,
        sorted ascending by distance (ties broken by training index so
        results are deterministic)."""
        check_fitted(self)
        X = check_array(X)
        k = n_neighbors or self.n_neighbors
        dist = pairwise_distances(X, self._X, metric=self.metric)
        order = _k_nearest(dist, k)
        rows = np.arange(len(X))[:, None]
        return dist[rows, order], order

    def predict_proba(self, X) -> np.ndarray:
        _, neighbors = self.kneighbors(X)
        votes = self._encoded[neighbors]
        proba = np.zeros((len(votes), len(self.classes_)))
        for c in range(len(self.classes_)):
            proba[:, c] = (votes == c).mean(axis=1)
        return proba

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))
