"""Gaussian naive Bayes classifier (batch ``fit`` and running-statistics
``partial_fit``)."""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.validation import check_array, check_X_y
from repro.ml.base import BaseEstimator, check_fitted


class GaussianNB(BaseEstimator):
    """Gaussian naive Bayes with per-class diagonal covariance.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to every variance
        for numerical stability.
    """

    def __init__(self, var_smoothing: float = 1e-9):
        self.var_smoothing = var_smoothing

    def fit(self, X, y) -> "GaussianNB":
        X, y = check_X_y(X, y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        k, d = len(self.classes_), X.shape[1]
        # One gather per class feeds both the batch parameters and the
        # running sufficient statistics partial_fit continues from.
        self.var_ = np.zeros((k, d))
        self._counts = np.bincount(encoded, minlength=k).astype(float)
        self._sums = np.zeros((k, d))
        self._sumsqs = np.zeros((k, d))
        for c in range(k):
            rows = X[encoded == c]
            self.var_[c] = rows.var(axis=0)
            self._sums[c] = rows.sum(axis=0)
            self._sumsqs[c] = (rows * rows).sum(axis=0)
        # The same reduction and division ``rows.mean(axis=0)`` performs.
        self.theta_ = self._sums / self._counts[:, None]
        self.class_prior_ = self._counts / len(X)
        self.var_ += self.var_smoothing * max(X.var(axis=0).max(), 1e-12)
        self._total_sum = X.sum(axis=0)
        self._total_sumsq = (X * X).sum(axis=0)
        self._n_samples = float(len(X))
        return self

    def partial_fit(self, X, y) -> "GaussianNB":
        """Fold one more batch into the per-class sufficient statistics.

        The model keeps per-class ``(count, sum, sum-of-squares)`` plus
        global totals for the variance-smoothing term, so each update is
        O(n_batch · d) regardless of how much data has been seen.
        Parameters after ``partial_fit`` equal a fresh ``fit`` on the
        concatenated data up to floating-point rounding (one-pass vs
        two-pass variance).
        """
        if not hasattr(self, "_counts"):
            return self.fit(X, y)
        X, y = check_X_y(X, y)
        if X.shape[1] != self._sums.shape[1]:
            raise ValidationError(
                f"partial_fit feature mismatch: {X.shape[1]} vs "
                f"{self._sums.shape[1]}")
        classes = np.union1d(self.classes_, np.unique(y))
        if len(classes) != len(self.classes_):
            # New labels appeared: widen the per-class statistic arrays.
            grown = np.searchsorted(classes, self.classes_)
            counts = np.zeros(len(classes))
            sums = np.zeros((len(classes), self._sums.shape[1]))
            sumsqs = np.zeros_like(sums)
            counts[grown] = self._counts
            sums[grown] = self._sums
            sumsqs[grown] = self._sumsqs
            self.classes_, self._counts = classes, counts
            self._sums, self._sumsqs = sums, sumsqs
        encoded = np.searchsorted(self.classes_, np.asarray(y))
        np.add.at(self._counts, encoded, 1.0)
        np.add.at(self._sums, encoded, X)
        np.add.at(self._sumsqs, encoded, X * X)
        self._total_sum += X.sum(axis=0)
        self._total_sumsq += (X * X).sum(axis=0)
        self._n_samples += len(X)
        self._refresh_from_statistics()
        return self

    def _refresh_from_statistics(self) -> None:
        """Recompute ``theta_`` / ``var_`` / ``class_prior_`` from the
        running sufficient statistics (one-pass moment formulas)."""
        seen = self._counts > 0
        counts = np.where(seen, self._counts, 1.0)[:, None]
        self.theta_ = self._sums / counts
        self.var_ = np.maximum(
            self._sumsqs / counts - self.theta_ ** 2, 0.0)
        mean = self._total_sum / self._n_samples
        global_var = np.maximum(
            self._total_sumsq / self._n_samples - mean ** 2, 0.0)
        self.var_ = self.var_ + self.var_smoothing * max(
            global_var.max(), 1e-12)
        self.class_prior_ = self._counts / self._n_samples

    def _joint_log_likelihood(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_array(X)
        k, d = self.theta_.shape
        # Vectorized over classes: one broadcast (rows, k, d) difference
        # instead of a per-class Python loop. Bit-identical to the loop —
        # the reduction runs over the same contiguous last axis, and the
        # elementwise arithmetic is unchanged. Rows are chunked so the
        # temporary stays bounded regardless of batch size.
        log_det = np.sum(np.log(2.0 * np.pi * self.var_), axis=1)
        log_prior = np.log(self.class_prior_ + 1e-12)
        jll = np.empty((len(X), k))
        chunk = max(1, 1_048_576 // max(1, k * d))
        for start in range(0, len(X), chunk):
            rows = X[start:start + chunk]
            quad = np.sum((rows[:, None, :] - self.theta_) ** 2 / self.var_,
                          axis=2)
            jll[start:start + chunk] = log_prior - 0.5 * (log_det + quad)
        return jll

    def predict_proba(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        probs = np.exp(jll)
        return probs / probs.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self._joint_log_likelihood(X), axis=1)]

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))
