"""Exact Shapley values for a k-NN proxy model (Jia et al., paper ref [33]).

For an unweighted k-NN classifier scored by validation accuracy, the
Shapley value of every training point has a closed form computable in
O(n log n) per validation point — no model retraining at all. This is the
method Figure 2 of the paper calls ``nde.knn_shapley_values`` and the
engine behind Datascope's pipeline debugging (ref [39]).

The recursion, for one validation point ``(x, y)`` with training points
sorted by distance to ``x`` (α_1 nearest .. α_n farthest)::

    s(α_n) = 1[y_{α_n} = y] / n
    s(α_j) = s(α_{j+1}) + (1[y_{α_j} = y] - 1[y_{α_{j+1}} = y]) / K
                          * min(K, j) / j

The total value is the average over validation points.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.validation import check_X_y
from repro.ml.neighbors import pairwise_distances


def knn_shapley(X_train, y_train, X_valid, y_valid, *, k: int = 5,
                metric: str = "euclidean") -> np.ndarray:
    """Exact KNN-Shapley values for every training example.

    Parameters
    ----------
    X_train, y_train:
        Training data (the players).
    X_valid, y_valid:
        Validation data defining the utility (k-NN accuracy).
    k:
        Neighborhood size of the proxy classifier.
    metric:
        Distance metric for neighbor ranking.

    Returns
    -------
    np.ndarray
        One value per training example; lower = more harmful. Values sum
        (over players) to ``u(D) - u(∅)`` per the Shapley efficiency
        axiom, where utility is mean validation accuracy of the k-NN.
    """
    X_train, y_train = check_X_y(X_train, y_train)
    X_valid, y_valid = check_X_y(X_valid, y_valid)
    n = len(X_train)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")

    distances = pairwise_distances(X_valid, X_train, metric=metric)
    return knn_shapley_core(distances, y_train, y_valid, k)


def knn_shapley_core(distances, y_train, y_valid, k: int) -> np.ndarray:
    """The closed-form recursion over a precomputed distance matrix.

    ``distances`` is the ``n_valid x n_train`` matrix the public
    :func:`knn_shapley` computes for you. Sorting ties break by training
    position, matching the incremental KNN coalition kernel's
    (distance, position) order; the kernel
    (:class:`repro.importance.kernels.KNNCoalitionKernel`) feeds the
    same recursion from the distance ranks it already holds, so the
    exact-Shapley dispatch in :class:`~repro.importance.MonteCarloShapley`
    pays no second distance pass.
    """
    distances = np.asarray(distances, dtype=float)
    positions = np.arange(distances.shape[1])
    return knn_shapley_sorted(
        (np.lexsort((positions, row)) for row in distances),
        y_train, y_valid, k, distances.shape[1])


def knn_shapley_sorted(orders, y_train, y_valid, k: int,
                       n: int) -> np.ndarray:
    """The recursion given, per validation point, the ``n`` training
    positions in (distance, position) order — one array per entry of
    ``y_valid``, from any iterable."""
    y_train = np.asarray(y_train)
    y_valid = np.asarray(y_valid)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    values = np.zeros(n)
    js = np.arange(1, n)  # positions 1..n-1 (0-indexed sorted order)
    position_factor = np.minimum(k, js) / js

    for order, label in zip(orders, y_valid):
        matches = (y_train[order] == label).astype(float)
        s = np.empty(n)
        s[n - 1] = matches[n - 1] / n
        # Vectorized backward recursion via reversed cumulative sum.
        diffs = (matches[:-1] - matches[1:]) / k * position_factor
        s[:-1] = s[n - 1] + np.cumsum(diffs[::-1])[::-1]
        values[order] += s
    return values / len(y_valid)


def knn_shapley_by_group(X_train, y_train, X_valid, y_valid, group_ids, *,
                         k: int = 5, metric: str = "euclidean") -> dict:
    """Aggregate KNN-Shapley values over groups of training examples.

    ``group_ids`` assigns each training row to a group (e.g. a source-table
    row that fanned out through a join); by Shapley linearity the group's
    value is the sum of its members' values. Returns ``{group_id: value}``.
    """
    values = knn_shapley(X_train, y_train, X_valid, y_valid, k=k, metric=metric)
    group_ids = np.asarray(group_ids)
    if len(group_ids) != len(values):
        raise ValidationError("group_ids length must match training size")
    totals: dict = {}
    for gid, val in zip(group_ids.tolist(), values):
        totals[gid] = totals.get(gid, 0.0) + float(val)
    return totals
