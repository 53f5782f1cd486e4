"""Unit tests for the decision tree."""

import tracemalloc

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.datasets import make_blobs, make_moons
from repro.ml import DecisionTreeClassifier


class TestDecisionTree:
    def test_memorizes_unbounded(self, blobs):
        X, y = blobs
        model = DecisionTreeClassifier().fit(X, y)
        assert model.score(X, y) == 1.0

    def test_max_depth_respected(self, blobs):
        X, y = blobs
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert model.depth() <= 2

    def test_depth_zero_tree_is_single_leaf(self, blobs):
        X, y = blobs
        model = DecisionTreeClassifier(max_depth=0).fit(X, y)
        assert model.n_leaves() == 1

    def test_xor_pattern_needs_depth_two(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        X = np.repeat(X, 10, axis=0)
        y = (X[:, 0] != X[:, 1]).astype(int)
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert shallow.score(X, y) < deep.score(X, y)
        assert deep.score(X, y) == 1.0

    def test_nonlinear_moons(self):
        X, y = make_moons(300, noise=0.1, seed=4)
        model = DecisionTreeClassifier(max_depth=6).fit(X[:200], y[:200])
        assert model.score(X[200:], y[200:]) >= 0.85

    def test_predict_proba_from_leaf_counts(self):
        X = np.array([[0.0], [0.0], [10.0]])
        y = np.array([0, 1, 1])
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        proba = model.predict_proba(np.array([[0.0]]))
        np.testing.assert_allclose(proba[0], [0.5, 0.5])

    def test_min_impurity_decrease_prunes(self, blobs):
        X, y = blobs
        strict = DecisionTreeClassifier(min_impurity_decrease=0.4).fit(X, y)
        loose = DecisionTreeClassifier().fit(X, y)
        assert strict.n_leaves() <= loose.n_leaves()

    def test_min_samples_split_validated(self, blobs):
        X, y = blobs
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_samples_split=1).fit(X, y)

    def test_multiclass(self):
        X, y = make_blobs(120, centers=3, cluster_std=0.6, seed=5)
        model = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_constant_features_yield_single_leaf(self):
        X = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.n_leaves() == 1


# ----------------------------------------------------------------------
# The split search against a scalar oracle: the cut-by-cut loop the
# prefix-count scan replaced, kept here as the reference it must match
# bit for bit.

def _scalar_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _scalar_best_split(X, y, parent_counts):
    n, d = X.shape
    parent_impurity = _scalar_gini(parent_counts)
    best = None
    best_gain = -np.inf
    k = len(parent_counts)
    for feature in range(d):
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        labels = y[order]
        left_counts = np.zeros(k)
        right_counts = parent_counts.copy()
        for i in range(n - 1):
            left_counts[labels[i]] += 1
            right_counts[labels[i]] -= 1
            if values[i] == values[i + 1]:
                continue  # cannot split between equal values
            n_left = i + 1
            n_right = n - n_left
            gain = parent_impurity - (
                n_left * _scalar_gini(left_counts)
                + n_right * _scalar_gini(right_counts)
            ) / n
            if gain > best_gain:
                best_gain = gain
                best = (feature, float((values[i] + values[i + 1]) / 2.0), gain)
    return best


class _ScalarTree(DecisionTreeClassifier):
    """The tree grown with the oracle's split search."""

    def _best_split(self, X, y, parent_counts):
        return _scalar_best_split(X, y, parent_counts)


def _split_key(split):
    if split is None:
        return None
    feature, threshold, gain = split
    return feature, float(threshold).hex(), float(gain).hex()


def _vector_split(X, y, k):
    counts = np.bincount(y, minlength=k).astype(float)
    return DecisionTreeClassifier()._best_split(X, y, counts), counts


def _assert_split_matches_oracle(X, y, k):
    got, counts = _vector_split(X, y, k)
    assert _split_key(got) == _split_key(_scalar_best_split(X, y, counts))


def _tree_key(node):
    counts = tuple(float(c).hex() for c in node.counts)
    if node.is_leaf:
        return counts
    return (node.feature, float(node.threshold).hex(), counts,
            _tree_key(node.left), _tree_key(node.right))


def _random_problem(rng, kind, n, d, k):
    """Gaussian, few-level integer or 0.1-rounded columns, some constant."""
    X = rng.normal(size=(n, d))
    if kind == "levels":
        X = rng.integers(0, 3, size=(n, d)).astype(float)
    elif kind == "rounded":
        X = np.round(X, 1)
    X[:, rng.random(d) < 0.2] = 1.5  # constant columns
    y = rng.integers(0, k, size=n)
    return X, y


PROBLEMS = [(kind, k) for kind in ("gaussian", "levels", "rounded")
            for k in (2, 3, 9, 12)]


class TestSplitOracle:
    @pytest.mark.parametrize("kind,k", PROBLEMS)
    def test_best_split_matches_scalar_loop(self, kind, k):
        rng = np.random.default_rng(1000 + 17 * k + len(kind))
        for _ in range(25):
            n = int(rng.integers(1, 60))
            d = int(rng.integers(1, 7))
            X, y = _random_problem(rng, kind, n, d, k)
            _assert_split_matches_oracle(X, y, k)

    @pytest.mark.parametrize("kind,k", PROBLEMS)
    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_fitted_tree_matches_scalar_tree(self, kind, k, max_depth):
        rng = np.random.default_rng(2000 + 31 * k + len(kind))
        for _ in range(6):
            n = int(rng.integers(2, 80))
            X, y = _random_problem(rng, kind, n, int(rng.integers(1, 6)), k)
            got = DecisionTreeClassifier(max_depth=max_depth).fit(X, y)
            want = _ScalarTree(max_depth=max_depth).fit(X, y)
            assert _tree_key(got.tree_) == _tree_key(want.tree_)

    def test_one_and_two_rows(self):
        X = np.array([[0.3, 2.0]])
        assert _vector_split(X, np.array([1]), 2)[0] is None
        for X, y in [(np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([0, 1])),
                     (np.array([[1.0], [1.0]]), np.array([0, 1])),
                     (np.array([[2.0], [-1.0]]), np.array([1, 1]))]:
            _assert_split_matches_oracle(X, y, 2)
        got, _ = _vector_split(np.array([[1.0], [1.0]]), np.array([0, 1]), 2)
        assert got is None

    def test_ties_go_to_first_feature_and_first_cut(self):
        # column 0 has two cuts of equal gain (after rows 1 and 3);
        # column 1 is a copy of column 0, so it ties with it everywhere
        col = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([col, col])
        y = np.array([0, 1, 1, 0])
        got, _ = _vector_split(X, y, 2)
        assert got[:2] == (0, 0.5)
        _assert_split_matches_oracle(X, y, 2)

    def test_no_cut_between_equal_values(self):
        # a cut between the two zeros would isolate the 0 label perfectly
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 1, 1, 1])
        got, _ = _vector_split(X, y, 2)
        assert got[:2] == (0, 0.5)
        _assert_split_matches_oracle(X, y, 2)

    def test_wide_input_spans_several_blocks(self):
        # enough columns that the scan takes more than one block, with
        # duplicated columns so ties cross block boundaries
        rng = np.random.default_rng(7)
        base = np.round(rng.normal(size=(100, 20)), 1)
        X = np.concatenate([base] * 12, axis=1)
        y = rng.integers(0, 12, size=100)
        got, _ = _vector_split(X, y, 12)
        assert got[0] < 20
        _assert_split_matches_oracle(X, y, 12)

    def test_min_impurity_decrease_exactly_at_gain(self):
        rng = np.random.default_rng(11)
        X, y = _random_problem(rng, "rounded", 40, 3, 3)
        counts = np.bincount(y, minlength=3).astype(float)
        gain = _scalar_best_split(X, y, counts)[2]
        for threshold in (gain, np.nextafter(gain, np.inf)):
            got = DecisionTreeClassifier(min_impurity_decrease=threshold).fit(X, y)
            want = _ScalarTree(min_impurity_decrease=threshold).fit(X, y)
            assert _tree_key(got.tree_) == _tree_key(want.tree_)
        at_gain = DecisionTreeClassifier(min_impurity_decrease=gain).fit(X, y)
        above = DecisionTreeClassifier(
            min_impurity_decrease=np.nextafter(gain, np.inf)).fit(X, y)
        assert not at_gain.tree_.is_leaf
        assert above.tree_.is_leaf


def test_split_scan_memory_is_bounded():
    # 4000 x 100 with 5 classes: one unblocked scan of a node holds
    # several (n - 1) x 100 x 5 float temporaries (~110 MB peak), the
    # blocked scan stays near the size of X and its row subsets
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4000, 100))
    y = rng.integers(0, 5, size=4000)
    tracemalloc.start()
    try:
        DecisionTreeClassifier(max_depth=3).fit(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20, f"split scan peaked at {peak / 2**20:.1f} MiB"
