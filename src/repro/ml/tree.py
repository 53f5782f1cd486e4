"""CART-style decision tree classifier (gini impurity, binary splits).

Decision trees are the model class of the programmable-bias robustness
work the paper surveys (reference [54]); the tree structure here is also
reused by the possible-worlds ensemble for cheap repeated retraining.

The split search is a sorted prefix-count scan in numpy: each block of
feature columns is sorted once, cumulative class counts over the sorted
rows give the left counts of every cut at once (the right counts are the
parent's minus those), and every cut's gini gain comes out of one array
expression. The winner is the first maximum in (feature, position)
order, the tie-break a cut-by-cut loop with a strict ``>`` would make,
and the float operations are the ones such a loop performs, so the trees
are bit-identical to it. Blocks are sized so that each
``(n - 1) x block x n_classes`` temporary holds at most
``_SCAN_BUDGET`` elements (a block is never narrower than one column),
which bounds the scan's memory whatever the number of features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.validation import check_array, check_X_y
from repro.ml.base import BaseEstimator, check_fitted

# Elements per (n - 1) x block x n_classes temporary of the split scan.
_SCAN_BUDGET = 1 << 17


@dataclass
class _Node:
    """A tree node; leaves have ``feature is None``."""

    counts: np.ndarray
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def proba(self) -> np.ndarray:
        total = self.counts.sum()
        return self.counts / total if total > 0 else np.full_like(
            self.counts, 1.0 / len(self.counts), dtype=float
        )


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


class DecisionTreeClassifier(BaseEstimator):
    """Greedy binary decision tree.

    Parameters
    ----------
    max_depth:
        Depth cap (root has depth 0); ``None`` grows until pure.
    min_samples_split:
        Minimum rows required to consider splitting a node.
    min_impurity_decrease:
        Minimum weighted impurity decrease required for a split.
    """

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2,
                 min_impurity_decrease: float = 0.0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        if self.min_samples_split < 2:
            raise ValidationError("min_samples_split must be >= 2")
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_features_in_ = X.shape[1]
        self.tree_ = self._build(X, encoded, depth=0)
        return self

    # ------------------------------------------------------------------
    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = np.bincount(y, minlength=len(self.classes_)).astype(float)
        node = _Node(counts=counts)
        if (
            len(X) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or _gini(counts) == 0.0
        ):
            return node
        best = self._best_split(X, y, counts)
        if best is None:
            return node
        feature, threshold, gain = best
        if gain < self.min_impurity_decrease:
            return node
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X, y, parent_counts):
        """The best ``(feature, threshold, gain)`` over every cut, or None.

        A prefix-count scan over blocks of feature columns: a stable
        sort of each column, cumulative class counts over the sorted
        rows (the left side of every cut; the right side is
        ``parent_counts`` minus it), then every cut's gain as
        ``parent - (n_left * gini_left + n_right * gini_right) / n``.
        Cuts between equal neighbouring values score ``-inf``. The first
        maximum in (feature, position) order wins, and a later block must
        beat the best so far strictly. The block width keeps each
        ``(n - 1) x block x k`` temporary within ``_SCAN_BUDGET``
        elements, or at one column when a single column needs more.
        """
        n, d = X.shape
        if n < 2:
            return None  # no cut
        k = len(parent_counts)
        parent_impurity = _gini(parent_counts)
        best = None
        best_gain = -np.inf
        onehot = y[:, None] == np.arange(k)
        n_left = np.arange(1.0, n)[:, None]
        n_right = n - n_left
        width = max(1, _SCAN_BUDGET // ((n - 1) * k))
        for start in range(0, d, width):
            columns = X[:, start:start + width]
            order = np.argsort(columns, axis=0, kind="stable")
            values = np.take_along_axis(columns, order, axis=0)
            # (n - 1, block, k): class counts left of each cut. The class
            # axis must stay last and contiguous: numpy then sums each
            # cut's k terms in the order a 1-D sum of k terms takes (its
            # pairwise order from 8 terms up), which keeps gains bit-equal.
            counts = np.cumsum(onehot[order[:-1]], axis=0, dtype=float)
            p = counts / n_left[..., None]
            p *= p
            gini_left = 1.0 - np.sum(p, axis=-1)
            # right side in place: a block holds two arrays of this size
            np.subtract(parent_counts, counts, out=counts)
            np.divide(counts, n_right[..., None], out=p)
            p *= p
            gini_right = 1.0 - np.sum(p, axis=-1)
            gains = parent_impurity - (n_left * gini_left + n_right * gini_right) / n
            gains[values[:-1] == values[1:]] = -np.inf
            # feature-major flat index: the first maximum in scan order
            flat = int(np.argmax(gains.T))
            feature, i = divmod(flat, n - 1)
            if gains[i, feature] > best_gain:
                best_gain = gains[i, feature]
                threshold = float((values[i, feature] + values[i + 1, feature]) / 2.0)
                best = (start + feature, threshold, float(best_gain))
        return best

    # ------------------------------------------------------------------
    def _leaf_for(self, x: np.ndarray) -> _Node:
        node = self.tree_
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_array(X)
        return np.array([self._leaf_for(x).proba() for x in X])

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        check_fitted(self)

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.tree_)

    def n_leaves(self) -> int:
        check_fitted(self)

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.tree_)
