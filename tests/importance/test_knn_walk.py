"""Differential tests of the block-vectorized k-NN permutation walk.

The walk must reproduce, bit for bit, both the retrain path
(``kernel="off"``) and the per-step insertion walk it replaced, kept
here as :class:`_InsertionWalkKernel`: marginals, ``calls``,
``kernel_steps`` and ``fallback_retrains`` — on tie-heavy integer
grids, with k up to past the training-set size, one to three classes,
string and integer labels, two metrics, and truncated walks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.importance import KNNCoalitionKernel, MonteCarloShapley, Utility
from repro.importance import kernels
from repro.importance.kernels import _dense_ranks
from repro.ml import KNeighborsClassifier
from repro.ml.metrics import accuracy_score, balanced_accuracy_score
from repro.ml.neighbors import pairwise_distances


class _InsertionWalkKernel(KNNCoalitionKernel):
    """The previous walk: one vectorized sorted insertion per step."""

    def __init__(self, model, X_train, y_train, X_valid, y_valid, metric):
        super().__init__(model, X_train, y_train, X_valid, y_valid, metric)
        self.distances = pairwise_distances(X_valid, X_train,
                                            metric=model.metric)

    def walk_steps(self, permutation):
        k = self.k
        n_valid = len(self.y_valid)
        best_dist = np.full((n_valid, k), np.inf)
        best_code = np.zeros((n_valid, k), dtype=np.intp)
        counts = np.zeros(len(self.classes), dtype=np.intp)
        column = np.arange(k)
        for pos, player in enumerate(permutation):
            d = self.distances[:, player]
            code = self.encoded[player]
            at = (best_dist <= d[:, None]).sum(axis=1)[:, None]
            inserted = at < k
            rolled_dist = np.empty_like(best_dist)
            rolled_dist[:, 1:] = best_dist[:, :-1]
            rolled_code = np.empty_like(best_code)
            rolled_code[:, 1:] = best_code[:, :-1]
            rolled_dist[:, 0] = np.inf
            rolled_code[:, 0] = 0
            new_dist = np.where(column < at, best_dist,
                                np.where(column == at, d[:, None],
                                         rolled_dist))
            new_code = np.where(column < at, best_code,
                                np.where(column == at, code, rolled_code))
            best_dist = np.where(inserted, new_dist, best_dist)
            best_code = np.where(inserted, new_code, best_code)
            counts[code] += 1
            present = np.flatnonzero(counts)
            if len(present) < 2:
                constant = np.full(n_valid, self.classes[present[0]])
                yield float(self.metric(self.y_valid, constant)), 0, True
            elif pos + 1 < k:
                majority = self.classes[present][np.argmax(counts[present])]
                constant = np.full(n_valid, majority)
                yield float(self.metric(self.y_valid, constant)), 0, True
            else:
                votes = (best_code[:, :, None]
                         == present[None, None, :]).sum(axis=1)
                predictions = self.classes[present[np.argmax(votes, axis=1)]]
                yield float(self.metric(self.y_valid, predictions)), 1, True


def _array_state(kernel) -> dict:
    return {name: value.copy() for name, value in vars(kernel).items()
            if isinstance(value, np.ndarray)}


def _assert_state_unchanged(kernel, before: dict, names: set) -> None:
    assert set(vars(kernel)) == names
    for name, value in before.items():
        now = getattr(kernel, name)
        assert now.dtype == value.dtype and np.array_equal(now, value), name


@st.composite
def knn_games(draw):
    n_train = draw(st.integers(1, 14))
    n_valid = draw(st.integers(1, 6))
    n_features = draw(st.integers(1, 2))
    grid = st.integers(0, 2)
    X_train = np.array(draw(st.lists(
        st.lists(grid, min_size=n_features, max_size=n_features),
        min_size=n_train, max_size=n_train)), dtype=float)
    X_valid = np.array(draw(st.lists(
        st.lists(grid, min_size=n_features, max_size=n_features),
        min_size=n_valid, max_size=n_valid)), dtype=float)
    n_classes = draw(st.integers(1, 3))
    codes = st.integers(0, n_classes - 1)
    y_train = np.array(draw(st.lists(codes, min_size=n_train,
                                     max_size=n_train)))
    # Validation labels may name a class the training rows lack.
    y_valid = np.array(draw(st.lists(st.integers(0, 2), min_size=n_valid,
                                     max_size=n_valid)))
    if draw(st.booleans()):
        names = np.array(["neg", "pos", "mid"])
        y_train, y_valid = names[y_train], names[y_valid]
    return {
        "X_train": X_train, "y_train": y_train,
        "X_valid": X_valid, "y_valid": y_valid,
        "k": draw(st.integers(1, n_train + 2)),
        "metric": draw(st.sampled_from([accuracy_score,
                                        balanced_accuracy_score])),
        "truncation_tol": draw(st.sampled_from([0.0, 0.05, 0.3])),
        "seed": draw(st.integers(0, 2**16)),
        # Steps per walk block: small blocks carry the k-best state
        # across many block boundaries.
        "block": draw(st.sampled_from([1, 2, 3, 5, None])),
    }


def _utility(game, kernel):
    model = KNeighborsClassifier(game["k"])
    if kernel == "reference":
        kernel = _InsertionWalkKernel(model, game["X_train"],
                                      game["y_train"], game["X_valid"],
                                      game["y_valid"], game["metric"])
    return Utility(model, game["X_train"], game["y_train"],
                   game["X_valid"], game["y_valid"], metric=game["metric"],
                   kernel=kernel)


def _walk(utility, game):
    rng = np.random.default_rng(game["seed"])
    n = len(game["y_train"])
    permutations = [rng.permutation(n) for _ in range(3)]
    marginals = utility.walk_permutations(
        permutations, truncation_tol=game["truncation_tol"])
    return ([m.tobytes().hex() for m in marginals], utility.calls,
            utility.kernel_steps, utility.fallback_retrains)


@settings(max_examples=150, deadline=None)
@given(knn_games())
def test_block_walk_matches_insertion_walk_and_retrain(game):
    blocked = _utility(game, "auto")
    kernel = blocked.kernel
    assert type(kernel) is KNNCoalitionKernel
    before, names = _array_state(kernel), set(vars(kernel))

    with pytest.MonkeyPatch.context() as patch:
        if game["block"] is not None:
            patch.setattr(kernels, "_WALK_BLOCK_ELEMENTS", 1)
            patch.setattr(kernels, "_MIN_WALK_BLOCK", game["block"])
        walked = _walk(blocked, game)
    assert walked == _walk(_utility(game, "reference"), game)
    retrained = _walk(_utility(game, "off"), game)
    assert walked[:2] == retrained[:2]
    assert walked[3] == 0
    _assert_state_unchanged(kernel, before, names)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_walk_matches_insertion_walk_across_default_blocks(k):
    """Long walks on a tie-heavy grid span many default-sized blocks."""
    rng = np.random.default_rng(k)
    X = rng.integers(0, 4, size=(400, 2)).astype(float)
    y = rng.integers(0, 3, size=400)
    args = (KNeighborsClassifier(k), X[:300], y[:300], X[300:], y[300:],
            accuracy_score)
    permutation = rng.permutation(300)
    blocked = list(KNNCoalitionKernel(*args).walk_steps(permutation))
    inserted = list(_InsertionWalkKernel(*args).walk_steps(permutation))
    assert [(v.hex(), t, i) for v, t, i in blocked] == \
        [(v.hex(), t, i) for v, t, i in inserted]


def test_thread_runtime_matches_serial():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(90, 2)).astype(float)
    y = np.where(rng.random(90) < 0.5, "a", "b")

    def score(runtime):
        with Utility(KNeighborsClassifier(3), X[:60], y[:60], X[60:],
                     y[60:], runtime=runtime) as utility:
            values = MonteCarloShapley(n_permutations=6, seed=2,
                                       truncation_tol=0.0).score(utility)
            return ([v.hex() for v in values], utility.calls,
                    utility.kernel_steps, utility.fallback_retrains)

    assert score("thread") == score(None)


def test_walk_peak_memory_at_cleaning_shape():
    """One walk at the Fig. 2 cleaning benchmark's shape (300 training
    rows, 100 validation rows, 1-NN) stays under 1 MB of transients."""
    rng = np.random.default_rng(0)
    X = rng.random((400, 20))
    y = rng.integers(0, 2, size=400)
    kernel = KNNCoalitionKernel(KNeighborsClassifier(1), X[:300], y[:300],
                                X[300:], y[300:], accuracy_score)
    permutation = rng.permutation(300)
    tracemalloc.start()
    try:
        steps = sum(1 for _ in kernel.walk_steps(permutation))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps == 300
    assert peak < 1 << 20


def test_dense_ranks_keep_order_and_ties():
    distances = np.array([[0.5, 0.1, 0.5, 0.0, 0.1],
                          [2.0, 2.0, 2.0, 1.0, 3.0]])
    np.testing.assert_array_equal(_dense_ranks(distances),
                                  [[2, 1, 2, 0, 1], [1, 1, 1, 0, 2]])
