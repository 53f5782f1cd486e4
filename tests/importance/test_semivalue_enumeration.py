"""Exact-enumeration checks for the semivalue fold rules.

Fed every sample its estimator could ever draw — all ``2^n`` coalitions
for the MSR Banzhaf rule, all ``n!`` permutations for the Shapley and
Beta(16, 1) rules — each fold rule must reproduce the semivalue computed
brute-force from its definition over ``utility(subset)``.
"""

import itertools
import math

import numpy as np
import pytest

from repro.datasets import make_blobs
from repro.importance import Utility
from repro.importance.banzhaf import MSRFold
from repro.importance.shapley_mc import PermutationFold
from repro.importance.beta_shapley import beta_size_weights
from repro.ml import LogisticRegression


def make_utility(n):
    X, y = make_blobs(n + 20, n_features=2, centers=2, cluster_std=2.0,
                      seed=n)
    return Utility(LogisticRegression(max_iter=30), X[:n], y[:n],
                   X[n:], y[n:])


def coalition_values(utility):
    """``u(S)`` for every subset ``S``, keyed by frozenset."""
    n = utility.n_players
    subsets = [c for size in range(n + 1)
               for c in itertools.combinations(range(n), size)]
    values = utility.evaluate_many([np.array(c, dtype=int) for c in subsets])
    return {frozenset(c): float(v) for c, v in zip(subsets, values)}


def brute_semivalue(u, n, weight):
    """``φ_i = Σ_{S ⊆ N∖{i}} weight(|S|) · (u(S ∪ {i}) − u(S))``."""
    phi = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for size in range(n):
            for subset in itertools.combinations(others, size):
                s = frozenset(subset)
                phi[i] += weight(size) * (u[s | {i}] - u[s])
    return phi


def shapley_weight(n):
    return lambda size: 1.0 / (n * math.comb(n - 1, size))


def beta_weight(n, alpha, beta):
    """Per-coalition Beta(α, β) semivalue weight,
    ``Beta(|S| + β, n − 1 − |S| + α) / Beta(α, β)``."""
    def log_beta(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return lambda size: math.exp(log_beta(size + beta, n - 1 - size + alpha)
                                 - log_beta(alpha, beta))


def fold_all_permutations(utility, rule):
    n = utility.n_players
    permutations = [np.array(p) for p in itertools.permutations(range(n))]
    rule.fold(permutations, utility.walk_permutations(permutations))
    return rule.estimate()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_shapley_fold_matches_definition(n):
    utility = make_utility(n)
    want = brute_semivalue(coalition_values(utility), n, shapley_weight(n))
    got = fold_all_permutations(utility, PermutationFold(n))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_beta_16_1_fold_matches_definition(n):
    utility = make_utility(n)
    want = brute_semivalue(coalition_values(utility), n,
                           beta_weight(n, 16.0, 1.0))
    rule = PermutationFold(n, weights=n * beta_size_weights(n, 16.0, 1.0))
    got = fold_all_permutations(utility, rule)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_banzhaf_msr_fold_matches_definition(n):
    utility = make_utility(n)
    u = coalition_values(utility)
    want = brute_semivalue(u, n, lambda size: 1.0 / 2 ** (n - 1))
    rule = MSRFold(n)
    coalitions = [np.array(sorted(s), dtype=int) for s in u]
    rule.fold(coalitions, [u[s] for s in u])
    np.testing.assert_allclose(rule.estimate(), want, rtol=0, atol=1e-12)
