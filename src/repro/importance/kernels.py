"""Incremental coalition kernels: O(update) evaluation instead of O(retrain).

Every importance and cleaning method in the library bottoms out in
``Utility.evaluate``, which by default refits the model from scratch for
every coalition — the dominant cost when scaling a data-debugging
session. For some model classes that refit is provably unnecessary: the
fitted state is a simple function of per-example contributions, so the
value of a coalition (or of every prefix of a permutation) can be
maintained incrementally.

A :class:`CoalitionKernel` packages that insight for one ``(model,
X_train, y_train, X_valid, y_valid, metric)`` game:

- :meth:`CoalitionKernel.evaluate` scores one arbitrary coalition from
  state precomputed **once per utility** (no clone, no re-validation).
- :meth:`CoalitionKernel.walk_steps` walks a permutation's prefix chain
  by **incremental insertion**, paying O(update) per step instead of a
  full refit per prefix.
- :meth:`CoalitionKernel.exact_shapley` optionally short-circuits
  permutation sampling entirely with a closed form (k-NN only).

The registry covers the whole ``repro.ml`` model zoo:

- :class:`KNNCoalitionKernel` — precomputed ``n_valid x n_train``
  distance ranks, masked top-k coalition evaluation, permutation walks
  vectorized over blocks of prefix steps, and the Jia et al.
  closed-form Shapley recurrence.
- :class:`GaussianNBCoalitionKernel` — per-class running sufficient
  statistics; adding one row to a coalition is an O(d) update.
- :class:`LinearRegressionCoalitionKernel` — maintains the inverse
  regularized Gram matrix via Sherman–Morrison rank-one updates, O(d²)
  per walk step, with randomized direct-solve stability cross-checks.
- :class:`WarmStartLogisticKernel` / :class:`WarmStartLinearSVCKernel` —
  continuation solvers that carry coefficients across prefix steps and
  certify prediction equivalence through a strong-convexity margin
  bound, falling back to bit-identical cold replays otherwise.
- :class:`PipelineCoalitionKernel` — fits coalition-invariant
  preprocessing once and dispatches the inner model's kernel on the
  transformed features.
- ``DecisionTreeClassifier`` / ``RandomForestClassifier`` carry explicit
  **fallback registrations** (:func:`register_fallback`): auto-dispatch
  resolves them to the retrain path *by declaration*, not by silently
  missing the registry.

**Exactness contract.** Kernel walk steps report, per prefix, whether
the value came from incremental state (``kernel.incremental_steps``) or
from a replayed direct solve (``kernel.fallback_retrains``); replayed
steps are bit-identical to the retrain path by construction (they run
the same solver helpers as ``fit``). Incremental steps are bit-identical
for the k-NN and Gaussian-NB kernels; for the linear and warm-start
families they are *certified-exact*: predictions (hence any
label-quantized metric such as accuracy) match the retrain path exactly
whenever the step is taken, and any step that cannot be certified is
demoted to a counted fallback replay. See ``docs/PERFORMANCE.md``.

Dispatch walks the model's MRO (most-derived registration wins), so a
subclass of a registered model inherits its kernel unless it registers a
builder of its own or opts out with :func:`register_fallback`.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.importance.knn_shapley import knn_shapley_sorted
from repro.ml.compose import Pipeline
from repro.ml.ensemble import RandomForestClassifier
from repro.ml.linear import (
    LinearRegression,
    LinearSVC,
    LogisticRegression,
    _logistic_problem,
    _minimize,
    _ridge_theta,
    _svc_problem,
)
from repro.ml.metrics import accuracy_score
from repro.ml.naive_bayes import GaussianNB
from repro.ml.neighbors import KNeighborsClassifier, pairwise_distances
from repro.ml.tree import DecisionTreeClassifier


class CoalitionKernel:
    """Exact incremental evaluator for one coalition game.

    Subclasses precompute whatever per-game state makes coalition
    evaluation cheap (distance matrices, sufficient statistics, Gram
    inverses) and must honour the exactness contract: values
    bit-identical to cloning and refitting the model on every step they
    report as incremental, ``trained`` flags matching what the retrain
    path would report, and honest ``incremental`` flags so replayed
    solves land in the ``kernel.fallback_retrains`` counter. Kernels must
    be picklable (they ship to process workers once, inside the utility
    core) and treat their state as read-only after construction (thread
    workers share it) — walk state lives in the generator, never on
    ``self``.
    """

    #: Short identifier used in reports and observability counters.
    name = "kernel"

    def evaluate(self, subset: np.ndarray, y_sub: np.ndarray,
                 classes: np.ndarray) -> tuple[float, int, bool]:
        """Value of one coalition with >= 2 classes.

        ``y_sub`` is ``y_train[subset]`` and ``classes`` its sorted
        unique labels (both already computed by the caller). Returns
        ``(value, trained, incremental)``: ``trained`` is 1 iff the
        retrain path would have fit a model for this coalition, and
        ``incremental`` is ``False`` when the kernel answered by
        replaying a full direct solve (honest fallback accounting)
        rather than from incremental state.
        """
        raise NotImplementedError

    def walk_steps(self, permutation: np.ndarray):
        """Yield ``(value, trained, incremental)`` for each prefix of
        ``permutation``, maintaining incremental state between steps.

        Prefix ``p`` covers ``permutation[:p + 1]``; degenerate prefixes
        (single class, ``|S| < k``) must reproduce the retrain path's
        constant-predictor fallbacks exactly.
        """
        raise NotImplementedError

    def exact_shapley(self):
        """Closed-form Shapley values of the kernel's game, or ``None``.

        Kernels with an analytic solution (k-NN) return one value per
        training point computed without any sampling;
        :class:`~repro.importance.MonteCarloShapley` dispatches to this
        when constructed with ``exact=True`` / ``exact="auto"``.
        """
        return None


def _majority_label(classes: np.ndarray, counts: np.ndarray):
    """First-maximum majority label — identical tie-break to
    ``np.unique`` + ``np.argmax`` on the subset's labels."""
    return classes[np.argmax(counts)]


#: Transient budget of one k-NN walk block, in array elements. A block
#: covers ``_WALK_BLOCK_ELEMENTS // (n_valid * width)`` prefix steps (at
#: least ``_MIN_WALK_BLOCK``), where ``width`` is the class count of the
#: vote table for k > 1 and 1 otherwise, so a walk's working set stays
#: O(k·n_valid·block) whatever the permutation length.
_WALK_BLOCK_ELEMENTS = 8192
_MIN_WALK_BLOCK = 16
#: Walk key of "no j-th neighbour yet" (a prefix shorter than j).
_NO_NEIGHBOR = np.iinfo(np.int64).max


def _dense_ranks(distances: np.ndarray) -> np.ndarray:
    """Per-row dense rank of ``distances``: equal distances share a rank
    and ranks order exactly as the distances do."""
    order = np.argsort(distances, axis=1)
    rows = np.arange(len(distances))[:, None]
    ordered = distances[rows, order]
    dense = np.empty(distances.shape, dtype=np.int64)
    dense[:, :1] = 0
    dense[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    np.cumsum(dense, axis=1, out=dense)
    ranks = np.empty_like(dense)
    ranks[rows, order] = dense
    return ranks


def _label_matches(y_valid: np.ndarray, classes: np.ndarray):
    """``matches[c, v] = y_valid[v] == classes[c]`` as accuracy_score
    compares them, or ``None`` when object labels compare to something
    other than booleans (the walk then calls the metric per prefix)."""
    matches = np.asarray(np.asarray(y_valid)[None, :] == classes[:, None])
    return matches if matches.dtype == bool else None


class KNNCoalitionKernel(CoalitionKernel):
    """Exact k-NN coalition kernel over precomputed distance ranks.

    Fitting :class:`~repro.ml.neighbors.KNeighborsClassifier` only
    stores the coalition's rows; all prediction work happens in
    ``kneighbors``. The kernel therefore computes the full
    ``n_valid x n_train`` distance matrix once, keeps each validation
    point's dense distance ranks (equal distances, equal rank), and
    evaluates any coalition by selecting each validation point's k
    nearest members — no refit, no per-coalition ``pairwise_distances``.

    Permutation walks are vectorized over blocks of prefix steps. Step
    ``p`` of a walk gets the key ``rank * len(permutation) + p`` per
    validation point — unique, and ordered exactly as the retrain path's
    stable (distance, position) sort. The j-th nearest neighbour of
    every prefix in a block is then one running minimum,
    ``b_j = cummin(max(shift(b_{j-1}), key))``, seeded with the k-best
    state carried from the previous block; votes are counted on class
    codes. A truncated walk stops at the block holding the truncation
    point. The same ranks also feed :meth:`exact_shapley`, the Jia et
    al. closed-form recurrence (O(n log n) per validation point, no
    sampling at all).
    """

    name = "knn"

    def __init__(self, model: KNeighborsClassifier, X_train, y_train,
                 X_valid, y_valid, metric):
        self.k = int(model.n_neighbors)
        # ranks[i, v]: dense rank of train row i's distance to valid row v;
        # train-major, so a block of walk steps gathers whole rows.
        self.ranks = np.ascontiguousarray(_dense_ranks(
            pairwise_distances(X_valid, X_train, metric=model.metric)).T)
        self.classes, self.encoded = np.unique(y_train, return_inverse=True)
        self.y_valid = y_valid
        self.metric = metric
        # accuracy_score of a whole block is one row-wise mean over these
        # (the same bits as one metric call per prefix); any other metric
        # is called once per prefix.
        self.matches = (_label_matches(y_valid, self.classes)
                        if metric is accuracy_score else None)

    def _constant_value(self, code):
        constant = np.full(len(self.y_valid), self.classes[code])
        return float(self.metric(self.y_valid, constant))

    def evaluate(self, subset, y_sub, classes):
        if self.k > len(subset):
            # The retrain path's fit raises ValidationError here and
            # falls back to the coalition's majority class.
            sub_classes, counts = np.unique(y_sub, return_counts=True)
            constant = np.full(len(self.y_valid),
                               _majority_label(sub_classes, counts))
            return float(self.metric(self.y_valid, constant)), 0, True
        ranks = self.ranks[subset].T
        # Stable (distance, position-in-subset) order — exactly
        # KNeighborsClassifier.kneighbors on the coalition's rows.
        order = np.lexsort(
            (np.broadcast_to(np.arange(ranks.shape[1]), ranks.shape), ranks),
            axis=1)[:, : self.k]
        neighbor_codes = self.encoded[subset][order]
        present_codes = np.searchsorted(self.classes, classes)
        votes = (neighbor_codes[:, :, None]
                 == present_codes[None, None, :]).sum(axis=1)
        predictions = classes[np.argmax(votes, axis=1)]
        return float(self.metric(self.y_valid, predictions)), 1, True

    def _predict_block(self, keys, best, step_codes):
        """Predicted class codes (steps x n_valid) of every prefix in one
        block, from the block's walk keys; advances ``best`` (the j-th
        best key per validation point, carried between blocks) in place.

        Rows of prefixes shorter than k hold arbitrary codes: their
        sentinel keys still index a valid step. The walk never reads them.
        """
        n_steps = len(step_codes)
        n_block, n_valid = keys.shape
        votes = (np.zeros((len(self.classes), n_block, n_valid),
                          dtype=np.int64) if self.k > 1 else None)
        rows = np.arange(n_block)[:, None]
        columns = np.arange(n_valid)
        previous = None
        for j in range(self.k):
            if j == 0:
                current = keys.copy()
            else:
                current = np.empty_like(keys)
                current[0] = best[j - 1]
                current[1:] = previous[:-1]
                np.maximum(current, keys, out=current)
                best[j - 1] = previous[-1]
            np.minimum.accumulate(current, axis=0, out=current)
            np.minimum(current, best[j], out=current)
            previous = current
            neighbor = step_codes[current % n_steps]
            if votes is not None:
                votes[neighbor, rows, columns] += 1
        best[-1] = previous[-1]
        return neighbor if votes is None else votes.argmax(axis=0)

    def walk_steps(self, permutation):
        permutation = np.asarray(permutation)
        k = self.k
        n_steps = len(permutation)
        n_valid = len(self.y_valid)
        n_classes = len(self.classes)
        step_codes = self.encoded[permutation]
        block = max(_MIN_WALK_BLOCK, _WALK_BLOCK_ELEMENTS // max(
            1, n_valid * (n_classes if k > 1 else 1)))
        columns = np.arange(n_valid)
        # Carried from block to block: each validation point's j-th best
        # key over the prefix so far, and the prefix's class counts.
        best = np.full((k, n_valid), _NO_NEIGHBOR, dtype=np.int64)
        counts = np.zeros(n_classes, dtype=np.int64)
        constants: dict[int, float] = {}
        for start in range(0, n_steps, block):
            stop = min(start + block, n_steps)
            steps = np.arange(start, stop)
            prefix_counts = counts + np.cumsum(
                step_codes[start:stop, None] == np.arange(n_classes), axis=0)
            counts = prefix_counts[-1]
            # Single-class prefixes and prefixes shorter than k are the
            # retrain path's constant predictor of the first-max class.
            trained = (((prefix_counts > 0).sum(axis=1) >= 2)
                       & (steps + 1 >= k))
            constant = prefix_counts.argmax(axis=1)

            values = None
            if k <= n_steps:  # otherwise no prefix is ever trained
                keys = self.ranks[permutation[start:stop]]
                keys *= n_steps
                keys += steps[:, None]
                predicted = self._predict_block(keys, best, step_codes)
                if self.matches is not None:
                    values = self.matches[predicted, columns].mean(
                        axis=1).tolist()
            for i, is_trained in enumerate(trained.tolist()):
                if not is_trained:
                    code = int(constant[i])
                    if code not in constants:
                        constants[code] = self._constant_value(code)
                    yield constants[code], 0, True
                elif values is not None:
                    yield values[i], 1, True
                else:
                    predictions = self.classes[predicted[i]]
                    yield (float(self.metric(self.y_valid, predictions)),
                           1, True)

    def exact_shapley(self):
        """Closed-form KNN-Shapley values over the precomputed distance
        ranks (Jia et al., paper ref [33]); ``None`` when ``k`` exceeds
        the training-set size (no full-data model exists to anchor
        them)."""
        n = self.ranks.shape[0]
        if self.k > n:
            return None
        # A stable sort of the ranks is the (distance, position) order;
        # ranks below 2**16 take numpy's radix sort.
        dtype = np.uint16 if n <= 1 << 16 else np.int64
        orders = (np.argsort(column.astype(dtype), kind="stable")
                  for column in self.ranks.T)
        return knn_shapley_sorted(orders, self.classes[self.encoded],
                                  self.y_valid, self.k, n)


class GaussianNBCoalitionKernel(CoalitionKernel):
    """Exact Gaussian naive Bayes kernel via sufficient statistics.

    A fitted :class:`~repro.ml.naive_bayes.GaussianNB` is fully
    determined by per-class ``(count, mean, variance)`` plus the global
    variance-smoothing term. Coalition evaluation replays the fit's own
    arithmetic on the coalition's rows (skipping cloning and input
    re-validation); permutation walks maintain per-class running
    ``(count, sum, sum-of-squares)`` so each prefix step is an O(d)
    update followed by one vectorized scoring pass.
    """

    name = "gaussian_nb"

    def __init__(self, model: GaussianNB, X_train, y_train, X_valid,
                 y_valid, metric):
        self.var_smoothing = float(model.var_smoothing)
        self.X_train = X_train
        self.classes, self.encoded = np.unique(y_train, return_inverse=True)
        self.X_valid = X_valid
        self.y_valid = y_valid
        self.metric = metric

    def evaluate(self, subset, y_sub, classes):
        X_sub = self.X_train[subset]
        _, encoded = np.unique(y_sub, return_inverse=True)
        n_classes, n_features = len(classes), X_sub.shape[1]
        # Verbatim GaussianNB.fit arithmetic — bit-identical parameters.
        theta = np.zeros((n_classes, n_features))
        var = np.zeros((n_classes, n_features))
        prior = np.zeros(n_classes)
        for c in range(n_classes):
            rows = X_sub[encoded == c]
            theta[c] = rows.mean(axis=0)
            var[c] = rows.var(axis=0)
            prior[c] = len(rows) / len(X_sub)
        var += self.var_smoothing * max(X_sub.var(axis=0).max(), 1e-12)
        # Verbatim _joint_log_likelihood arithmetic.
        jll = np.zeros((len(self.X_valid), n_classes))
        for c in range(n_classes):
            log_det = np.sum(np.log(2.0 * np.pi * var[c]))
            quad = np.sum((self.X_valid - theta[c]) ** 2 / var[c], axis=1)
            jll[:, c] = np.log(prior[c] + 1e-12) - 0.5 * (log_det + quad)
        predictions = classes[np.argmax(jll, axis=1)]
        return float(self.metric(self.y_valid, predictions)), 1, True

    def walk_steps(self, permutation):
        n_valid = len(self.y_valid)
        n_classes = len(self.classes)
        n_features = self.X_train.shape[1]
        counts = np.zeros(n_classes)
        sums = np.zeros((n_classes, n_features))
        sumsqs = np.zeros((n_classes, n_features))
        total_sum = np.zeros(n_features)
        total_sumsq = np.zeros(n_features)
        for pos, player in enumerate(permutation):
            x = self.X_train[player]
            code = self.encoded[player]
            x_sq = x * x
            counts[code] += 1
            sums[code] += x
            sumsqs[code] += x_sq
            total_sum += x
            total_sumsq += x_sq

            present = np.flatnonzero(counts)
            if len(present) < 2:
                constant = np.full(n_valid, self.classes[present[0]])
                yield float(self.metric(self.y_valid, constant)), 0, True
                continue
            size = pos + 1
            count = counts[present][:, None]
            theta = sums[present] / count
            var = np.maximum(sumsqs[present] / count - theta * theta, 0.0)
            global_mean = total_sum / size
            global_var = np.maximum(
                total_sumsq / size - global_mean * global_mean, 0.0)
            var = var + self.var_smoothing * max(global_var.max(), 1e-12)
            prior = counts[present] / size
            log_det = np.sum(np.log(2.0 * np.pi * var), axis=1)
            diff = self.X_valid[None, :, :] - theta[:, None, :]
            quad = np.sum(diff * diff / var[:, None, :], axis=2)
            jll = np.log(prior + 1e-12)[:, None] - 0.5 * (log_det[:, None]
                                                          + quad)
            predictions = self.classes[present[np.argmax(jll, axis=0)]]
            yield float(self.metric(self.y_valid, predictions)), 1, True


class LinearRegressionCoalitionKernel(CoalitionKernel):
    """Sherman–Morrison kernel for :class:`~repro.ml.LinearRegression`.

    The fitted model is the normal-equation solve ``(Xa'Xa + reg) theta
    = Xa'y`` over the coalition's (intercept-augmented) rows. Along a
    permutation walk each prefix adds one row ``x``, a rank-one update of
    the Gram matrix — so the kernel maintains ``(Xa'Xa + reg)^{-1}``
    directly via the Sherman–Morrison identity, turning each step into
    O(d²) instead of the retrain path's O(|S|·d²) refit.

    Accounting is honest about floating point: warmup steps (until the
    regularized Gram is invertible and well conditioned), refresh steps,
    and steps whose **randomized stability cross-check** against the
    direct solve deviates by more than ``stability_tol`` are answered by
    replaying :func:`repro.ml.linear._ridge_theta` on the prefix —
    bit-identical to the retrain path and counted in
    ``kernel.fallback_retrains``. Incremental steps solve from the
    maintained inverse; their parameter vectors can differ from the
    direct solve in trailing ulps, which label-quantized metrics (and
    the cross-check tolerance) absorb. Cross-check positions come from a
    seeded RNG, so walks stay deterministic on every backend.
    """

    name = "linear"

    def __init__(self, model: LinearRegression, X_train, y_train, X_valid,
                 y_valid, metric, *, stability_checks: int = 8,
                 stability_tol: float = 1e-6,
                 stability_seed: int = 1299721):
        self.alpha = float(model.alpha)
        self.fit_intercept = bool(model.fit_intercept)
        self.y = np.asarray(y_train, dtype=float)
        self.y_raw = y_train
        if self.fit_intercept:
            self.Xa = np.column_stack([X_train, np.ones(len(X_train))])
        else:
            self.Xa = np.asarray(X_train, dtype=float)
        self.X_valid = X_valid
        self.y_valid = y_valid
        self.metric = metric
        self.stability_checks = int(stability_checks)
        self.stability_tol = float(stability_tol)
        self.stability_seed = int(stability_seed)

    def _predict(self, theta):
        # Replays LinearRegression.predict exactly: X @ coef_ + intercept_.
        if self.fit_intercept:
            return self.X_valid @ theta[:-1] + float(theta[-1])
        return self.X_valid @ theta + 0.0

    def _direct_theta(self, Xa, y):
        return _ridge_theta(Xa, y, self.alpha, self.fit_intercept)

    def evaluate(self, subset, y_sub, classes):
        # A lone coalition has no incremental structure: replay the
        # direct solve (bit-identical, counted as a fallback retrain).
        theta = self._direct_theta(self.Xa[subset], self.y[subset])
        value = float(self.metric(self.y_valid, self._predict(theta)))
        return value, 1, False

    def walk_steps(self, permutation):
        n = len(permutation)
        n_valid = len(self.y_valid)
        D = self.Xa.shape[1]
        Xbuf = np.empty((n, D))
        ybuf = np.empty(n)
        reg = None
        if self.alpha > 0:
            reg = self.alpha * np.eye(D)
            if self.fit_intercept:
                reg[-1, -1] = 0.0
        rng = np.random.default_rng(self.stability_seed + n)
        check_positions: set[int] = set()
        if self.stability_checks > 0 and n > D + 2:
            check_positions = set(
                rng.integers(D + 2, n, size=self.stability_checks).tolist())
        inv = None
        rhs = np.zeros(D)
        distinct: set[float] = set()
        for pos, player in enumerate(permutation):
            x = self.Xa[player]
            yv = self.y[player]
            Xbuf[pos] = x
            ybuf[pos] = yv
            size = pos + 1
            rhs = rhs + yv * x
            distinct.add(float(yv))
            if inv is not None:
                # Sherman–Morrison rank-one insert of row x.
                u = inv @ x
                denom = 1.0 + float(x @ u)
                if denom > 1e-12:
                    inv = inv - np.outer(u, u) / denom
                else:
                    inv = None  # numerically degenerate insert: rebuild
            if len(distinct) < 2:
                # Retrain path: single distinct target -> constant
                # predictor of that value (np.unique fallback).
                constant = np.full(n_valid, self.y_raw[player])
                yield float(self.metric(self.y_valid, constant)), 0, True
                continue
            if inv is not None:
                theta = inv @ rhs
                if pos not in check_positions:
                    value = float(self.metric(self.y_valid,
                                              self._predict(theta)))
                    yield value, 1, True
                    continue
                direct = self._direct_theta(Xbuf[:size], ybuf[:size])
                if np.allclose(theta, direct, rtol=self.stability_tol,
                               atol=self.stability_tol):
                    value = float(self.metric(self.y_valid,
                                              self._predict(theta)))
                    yield value, 1, True
                    continue
                inv = None  # drifted past tolerance: refresh below
            # Warmup / refresh: replay the direct solve on the prefix —
            # bit-identical to the retrain path, counted as a fallback.
            theta = self._direct_theta(Xbuf[:size], ybuf[:size])
            value = float(self.metric(self.y_valid, self._predict(theta)))
            yield value, 1, False
            if inv is None and size > D:
                gram = Xbuf[:size].T @ Xbuf[:size]
                if reg is not None:
                    gram = gram + reg
                try:
                    if np.linalg.cond(gram) < 1e12:
                        inv = np.linalg.inv(gram)
                        rhs = Xbuf[:size].T @ ybuf[:size]
                except np.linalg.LinAlgError:
                    inv = None


class WarmStartLogisticKernel(CoalitionKernel):
    """Warm-start continuation kernel for
    :class:`~repro.ml.LogisticRegression`.

    Each prefix step carries the last solved coefficients forward and
    checks a **margin certificate before running any solver**: one
    gradient evaluation of the new prefix's (strongly convex)
    regularized softmax objective at the carried solution bounds its
    distance from the new true optimum by ``r = (||g|| + sqrt(Dk)·tol)
    / alpha`` (strong-convexity modulus ``alpha = 1 / (C·n)`` on the
    regularized coordinates; the ``tol`` term covers the cold solver's
    own convergence ball). Any validation point whose top-1/top-2 score
    margin exceeds ``2·safety·||x||·r`` keeps its argmax under both the
    carried solution and anything a cold solve could return — so the
    step is answered from the carried coefficients at the cost of one
    gradient pass, and certified steps produce bit-identical values for
    any label-based metric. The gradient norm grows as certified rows
    accumulate, so the certificate eventually fails; those steps — and
    the first non-degenerate prefix, and class-set growth — are replayed
    cold through the same solver helper ``fit`` uses (bit-identical) and
    counted in ``kernel.fallback_retrains``, resetting the continuation.
    The unregularized intercept direction makes the bound heuristic
    there; the ``safety`` factor plus the CI bit-identity gate backstop
    it.
    """

    name = "logistic_warm"

    def __init__(self, model: LogisticRegression, X_train, y_train,
                 X_valid, y_valid, metric, *, safety: float = 4.0):
        self.C = float(model.C)
        self.max_iter = int(model.max_iter)
        self.fit_intercept = bool(model.fit_intercept)
        self.tol = float(model.tol)
        self.safety = float(safety)
        self.X_train = X_train
        self.classes, self.encoded = np.unique(y_train, return_inverse=True)
        self.X_valid = X_valid
        self.y_valid = y_valid
        self.metric = metric
        norms_sq = np.sum(X_valid * X_valid, axis=1)
        self.valid_norms = np.sqrt(norms_sq + 1.0) if self.fit_intercept \
            else np.sqrt(norms_sq)

    def _solve(self, Xa, Y, w0):
        size = len(Xa)
        sample_weight = np.ones(size)
        total_weight = sample_weight.sum()
        alpha = 1.0 / (max(self.C, 1e-12) * total_weight)
        objective = _logistic_problem(Xa, Y, sample_weight, total_weight,
                                      alpha, self.fit_intercept)
        return _minimize(objective, w0, self.max_iter, self.tol), alpha

    def _scores(self, W):
        # Replays LogisticRegression.decision_function exactly.
        if self.fit_intercept:
            return self.X_valid @ W[:-1] + W[-1]
        return self.X_valid @ W + np.zeros(W.shape[1])

    def evaluate(self, subset, y_sub, classes):
        Xp = self.X_train[subset]
        sub_classes, encoded = np.unique(y_sub, return_inverse=True)
        size = len(subset)
        Xa = np.column_stack([Xp, np.ones(size)]) if self.fit_intercept \
            else Xp
        Y = np.zeros((size, len(sub_classes)))
        Y[np.arange(size), encoded] = 1.0
        result, _ = self._solve(Xa, Y, np.zeros(Xa.shape[1]
                                                * len(sub_classes)))
        W = result.x.reshape(Xa.shape[1], len(sub_classes))
        predictions = sub_classes[np.argmax(self._scores(W), axis=1)]
        return float(self.metric(self.y_valid, predictions)), 1, False

    def walk_steps(self, permutation):
        n = len(permutation)
        n_valid = len(self.y_valid)
        d = self.X_train.shape[1]
        D = d + 1 if self.fit_intercept else d
        Xabuf = np.empty((n, D))
        if self.fit_intercept:
            Xabuf[:, -1] = 1.0
        codebuf = np.empty(n, dtype=np.intp)
        counts = np.zeros(len(self.classes), dtype=np.intp)
        W_prev = None
        prev_present = None
        for pos, player in enumerate(permutation):
            Xabuf[pos, :d] = self.X_train[player]
            code = self.encoded[player]
            codebuf[pos] = code
            counts[code] += 1
            size = pos + 1
            present = np.flatnonzero(counts)
            if len(present) < 2:
                constant = np.full(n_valid, self.classes[present[0]])
                yield float(self.metric(self.y_valid, constant)), 0, True
                continue
            Xa = Xabuf[:size]
            k = len(present)
            sub_codes = np.searchsorted(present, codebuf[:size])
            Y = np.zeros((size, k))
            Y[np.arange(size), sub_codes] = 1.0
            sub_classes = self.classes[present]
            if W_prev is not None:
                if len(prev_present) == k and np.array_equal(prev_present,
                                                             present):
                    W_cand = W_prev
                else:
                    # Class set grew: keep the old columns, zero the new
                    # (the fresh class's gradient then sinks the
                    # certificate, forcing the cold replay below).
                    W_cand = np.zeros((D, k))
                    W_cand[:, np.searchsorted(present,
                                              prev_present)] = W_prev
                # Certificate first — one gradient evaluation of the new
                # prefix's objective at the carried solution, no solver.
                alpha = 1.0 / (max(self.C, 1e-12) * size)
                objective = _logistic_problem(Xa, Y, np.ones(size),
                                              float(size), alpha,
                                              self.fit_intercept)
                _, grad = objective(W_cand.ravel())
                g2 = float(np.linalg.norm(grad))
                radius = self.safety * (g2 + np.sqrt(D * k) * self.tol) \
                    / alpha
                scores = self._scores(W_cand)
                part = np.partition(scores, k - 2, axis=1)
                margin = part[:, -1] - part[:, -2]
                if np.all(margin > 2.0 * self.valid_norms * radius):
                    predictions = sub_classes[np.argmax(scores, axis=1)]
                    W_prev, prev_present = W_cand, present
                    yield float(self.metric(self.y_valid,
                                            predictions)), 1, True
                    continue
            # Cold replay: first non-degenerate prefix, or margins too
            # tight for the carried solution's certificate —
            # bit-identical to the retrain path (same solver helper,
            # zero start).
            result, _ = self._solve(Xa, Y, np.zeros(D * k))
            W = result.x.reshape(D, k)
            predictions = sub_classes[np.argmax(self._scores(W), axis=1)]
            W_prev, prev_present = W, present
            yield float(self.metric(self.y_valid, predictions)), 1, False


class WarmStartLinearSVCKernel(CoalitionKernel):
    """Warm-start continuation kernel for :class:`~repro.ml.LinearSVC`.

    Same certificate-first continuation scheme as
    :class:`WarmStartLogisticKernel`, for the binary squared-hinge SVM:
    the L2 term gives strong-convexity modulus 1 on the regularized
    coordinates, so the carried solution lies within ``r = (||g|| +
    sqrt(D)·tol)`` of the new prefix's optimum — ``g`` evaluated at the
    carried coefficients, no solver run — and any validation point with
    ``|decision| > safety·||x||·r`` keeps its sign, hence its predicted
    label, under anything a cold solve could return. Added rows outside
    the carried margin contribute nothing to the gradient, so certified
    stretches are long on separable data; uncertified steps replay the
    cold solve (bit-identical to the retrain path). Prefixes whose class
    count is not exactly 2 replicate the retrain path's
    ``ValidationError`` fallback (coalition-majority constant predictor,
    no training counted).
    """

    name = "linear_svc_warm"

    def __init__(self, model: LinearSVC, X_train, y_train, X_valid,
                 y_valid, metric, *, safety: float = 4.0):
        self.C = float(model.C)
        self.max_iter = int(model.max_iter)
        self.fit_intercept = bool(model.fit_intercept)
        self.tol = float(model.tol)
        self.safety = float(safety)
        self.X_train = X_train
        self.classes, self.encoded = np.unique(y_train, return_inverse=True)
        self.X_valid = X_valid
        self.y_valid = y_valid
        self.metric = metric
        norms_sq = np.sum(X_valid * X_valid, axis=1)
        self.valid_norms = np.sqrt(norms_sq + 1.0) if self.fit_intercept \
            else np.sqrt(norms_sq)

    def _solve(self, Xa, signs, w0):
        sample_weight = np.ones(len(Xa))
        objective = _svc_problem(Xa, signs, sample_weight, self.C,
                                 self.fit_intercept)
        return _minimize(objective, w0, self.max_iter, self.tol)

    def _decision(self, w):
        # Replays LinearSVC.decision_function exactly.
        if self.fit_intercept:
            return self.X_valid @ w[:-1] + float(w[-1])
        return self.X_valid @ w + 0.0

    def _majority_value(self, y_sub):
        sub_classes, counts = np.unique(y_sub, return_counts=True)
        constant = np.full(len(self.y_valid),
                           _majority_label(sub_classes, counts))
        return float(self.metric(self.y_valid, constant))

    def evaluate(self, subset, y_sub, classes):
        if len(classes) != 2:
            # Retrain path: LinearSVC.fit raises (binary only), the
            # utility falls back to the coalition's majority class.
            return self._majority_value(y_sub), 0, True
        Xp = self.X_train[subset]
        _, encoded = np.unique(y_sub, return_inverse=True)
        signs = np.where(encoded == 1, 1.0, -1.0)
        size = len(subset)
        Xa = np.column_stack([Xp, np.ones(size)]) if self.fit_intercept \
            else Xp
        result = self._solve(Xa, signs, np.zeros(Xa.shape[1]))
        decision = self._decision(result.x)
        predictions = classes[(decision > 0).astype(int)]
        return float(self.metric(self.y_valid, predictions)), 1, False

    def walk_steps(self, permutation):
        n = len(permutation)
        n_valid = len(self.y_valid)
        d = self.X_train.shape[1]
        D = d + 1 if self.fit_intercept else d
        Xabuf = np.empty((n, D))
        if self.fit_intercept:
            Xabuf[:, -1] = 1.0
        codebuf = np.empty(n, dtype=np.intp)
        counts = np.zeros(len(self.classes), dtype=np.intp)
        w_prev = None
        prev_present = None
        for pos, player in enumerate(permutation):
            Xabuf[pos, :d] = self.X_train[player]
            code = self.encoded[player]
            codebuf[pos] = code
            counts[code] += 1
            size = pos + 1
            present = np.flatnonzero(counts)
            if len(present) < 2:
                constant = np.full(n_valid, self.classes[present[0]])
                yield float(self.metric(self.y_valid, constant)), 0, True
                continue
            if len(present) != 2:
                # Retrain path: fit raises (binary only) -> majority.
                sub_counts = counts[present]
                constant = np.full(n_valid, _majority_label(
                    self.classes[present], sub_counts))
                yield float(self.metric(self.y_valid, constant)), 0, True
                continue
            Xa = Xabuf[:size]
            sub_codes = np.searchsorted(present, codebuf[:size])
            signs = np.where(sub_codes == 1, 1.0, -1.0)
            sub_classes = self.classes[present]
            if w_prev is not None and np.array_equal(prev_present, present):
                # Certificate first — one gradient evaluation of the new
                # prefix's objective at the carried solution, no solver.
                objective = _svc_problem(Xa, signs, np.ones(size), self.C,
                                         self.fit_intercept)
                _, grad = objective(w_prev)
                g2 = float(np.linalg.norm(grad))
                radius = self.safety * (g2 + np.sqrt(D) * self.tol)
                decision = self._decision(w_prev)
                if np.all(np.abs(decision) > self.valid_norms * radius):
                    predictions = sub_classes[(decision > 0).astype(int)]
                    yield float(self.metric(self.y_valid,
                                            predictions)), 1, True
                    continue
            # Cold replay — bit-identical to the retrain path.
            result = self._solve(Xa, signs, np.zeros(D))
            decision = self._decision(result.x)
            predictions = sub_classes[(decision > 0).astype(int)]
            w_prev, prev_present = result.x, present
            yield float(self.metric(self.y_valid, predictions)), 1, False


class PipelineCoalitionKernel(CoalitionKernel):
    """Kernel for :class:`~repro.ml.Pipeline` utilities whose
    preprocessing is coalition-invariant.

    When every pre-step declares ``coalition_invariant`` (its fitted
    transform is independent of which training rows it saw, and slicing
    commutes with transforming — e.g. a ``rowwise``
    :class:`~repro.ml.FunctionTransformer`), the pipeline's coalition
    game factorizes: transform ``X_train`` / ``X_valid`` **once**, then
    play the inner model's game on the transformed features. This kernel
    wraps whatever kernel the inner model resolves to and delegates
    evaluation, walks, and the closed-form Shapley shortcut to it. The
    builder declines (retrain path) when any pre-step is not invariant
    or the inner model has no kernel.
    """

    def __init__(self, inner: CoalitionKernel):
        self.inner = inner
        self.name = f"pipeline[{inner.name}]"

    def evaluate(self, subset, y_sub, classes):
        return self.inner.evaluate(subset, y_sub, classes)

    def walk_steps(self, permutation):
        return self.inner.walk_steps(permutation)

    def exact_shapley(self):
        return self.inner.exact_shapley()


# ---------------------------------------------------------------------------
# Builders and the dispatch registry
# ---------------------------------------------------------------------------

def _build_knn_kernel(model, X_train, y_train, X_valid, y_valid, metric):
    if model.n_neighbors < 1 or model.metric not in ("euclidean",
                                                     "manhattan", "cosine"):
        return None  # let the retrain path raise/fall back as today
    return KNNCoalitionKernel(model, X_train, y_train, X_valid, y_valid,
                              metric)


def _build_gaussian_nb_kernel(model, X_train, y_train, X_valid, y_valid,
                              metric):
    return GaussianNBCoalitionKernel(model, X_train, y_train, X_valid,
                                     y_valid, metric)


def _build_linear_regression_kernel(model, X_train, y_train, X_valid,
                                    y_valid, metric):
    if model.alpha < 0:
        return None
    return LinearRegressionCoalitionKernel(model, X_train, y_train, X_valid,
                                           y_valid, metric)


def _build_logistic_kernel(model, X_train, y_train, X_valid, y_valid,
                           metric):
    return WarmStartLogisticKernel(model, X_train, y_train, X_valid,
                                   y_valid, metric)


def _build_linear_svc_kernel(model, X_train, y_train, X_valid, y_valid,
                             metric):
    return WarmStartLinearSVCKernel(model, X_train, y_train, X_valid,
                                    y_valid, metric)


def _build_pipeline_kernel(model, X_train, y_train, X_valid, y_valid,
                           metric):
    from repro.ml.base import clone

    for name, step in model.steps[:-1]:
        if not getattr(step, "coalition_invariant", False):
            return None  # subset-dependent preprocessing: retrain path
    Xt_train, Xt_valid = X_train, X_valid
    for name, step in model.steps[:-1]:
        step = clone(step)
        Xt_train = step.fit_transform(Xt_train, y_train)
        Xt_valid = step.transform(Xt_valid)
    inner, _ = resolve_kernel(model.steps[-1][1], Xt_train, y_train,
                              Xt_valid, y_valid, metric)
    if inner is None:
        return None
    return PipelineCoalitionKernel(inner)


#: Builder registry: model class -> builder(model, X_train, y_train,
#: X_valid, y_valid, metric) -> CoalitionKernel | None. Lookup walks the
#: model's MRO; the most-derived registration (builder or fallback) wins.
_KERNEL_BUILDERS: dict[type, object] = {
    KNeighborsClassifier: _build_knn_kernel,
    GaussianNB: _build_gaussian_nb_kernel,
    LinearRegression: _build_linear_regression_kernel,
    LogisticRegression: _build_logistic_kernel,
    LinearSVC: _build_linear_svc_kernel,
    Pipeline: _build_pipeline_kernel,
}

#: Documented fallback registrations: model class -> reason the retrain
#: path is the intended behavior (surfaced by resolve_kernel and the
#: utility's observability plumbing, so auto-dispatch is total).
_KERNEL_FALLBACKS: dict[type, str] = {}


def register_kernel(model_type: type, builder) -> None:
    """Register an incremental kernel builder for a model class.

    ``builder(model, X_train, y_train, X_valid, y_valid, metric)`` must
    return a :class:`CoalitionKernel` honouring the exactness contract,
    or ``None`` to decline (the utility then uses the retrain path).
    Dispatch walks the model's MRO, most-derived class first, so
    subclasses inherit the closest ancestor's registration unless they
    register a builder of their own — or opt out explicitly with
    :func:`register_fallback`.
    """
    if not isinstance(model_type, type):
        raise ValidationError("model_type must be a class")
    if not callable(builder):
        raise ValidationError("builder must be callable")
    _KERNEL_BUILDERS[model_type] = builder


def register_fallback(model_type: type, reason: str) -> None:
    """Declare that a model class intentionally uses the retrain path.

    A fallback registration makes auto-dispatch *total*: every model in
    the zoo resolves to either a kernel or a documented reason, and an
    unregistered class is a visible gap rather than a silent slow path.
    Fallbacks participate in MRO dispatch like builders do, so they also
    let a subclass opt out of an ancestor's kernel.
    """
    if not isinstance(model_type, type):
        raise ValidationError("model_type must be a class")
    if not isinstance(reason, str) or not reason:
        raise ValidationError("reason must be a non-empty string")
    _KERNEL_FALLBACKS[model_type] = reason


register_fallback(
    DecisionTreeClassifier,
    "greedy impurity splits re-rank under any row change; every coalition "
    "needs a fresh tree, so the retrain path is the documented fallback")
register_fallback(
    RandomForestClassifier,
    "bootstrap resampling and greedy splits both depend on the exact row "
    "set; the retrain path is the documented fallback")


def resolve_kernel(model, X_train, y_train, X_valid, y_valid, metric):
    """Resolve ``model``'s incremental kernel by walking its MRO.

    Returns ``(kernel_or_None, info)`` where ``info`` describes how
    dispatch concluded: ``resolution`` is ``"kernel"`` (an incremental
    kernel was built), ``"declined"`` (a registered builder rejected
    these hyperparameters), ``"fallback"`` (the class carries a
    documented :func:`register_fallback` reason), or ``"unregistered"``
    (a registry gap — worth registering one way or the other).
    """
    for cls in type(model).__mro__:
        builder = _KERNEL_BUILDERS.get(cls)
        if builder is not None:
            kernel = builder(model, X_train, y_train, X_valid, y_valid,
                             metric)
            if kernel is not None:
                return kernel, {"resolution": "kernel",
                                "kernel": kernel.name,
                                "registered_for": cls.__name__}
            return None, {"resolution": "declined",
                          "registered_for": cls.__name__,
                          "reason": "builder declined (unsupported "
                                    "hyperparameters for the fast path)"}
        reason = _KERNEL_FALLBACKS.get(cls)
        if reason is not None:
            return None, {"resolution": "fallback",
                          "registered_for": cls.__name__,
                          "reason": reason}
    return None, {"resolution": "unregistered", "registered_for": None,
                  "reason": "no kernel or fallback registered for "
                            f"{type(model).__name__}"}


def build_kernel(model, X_train, y_train, X_valid, y_valid, metric):
    """Build the incremental kernel for ``model``, if any.

    Backwards-compatible wrapper over :func:`resolve_kernel` that drops
    the resolution info. Returns ``None`` when no kernel applies —
    callers then use the retrain path unchanged.
    """
    return resolve_kernel(model, X_train, y_train, X_valid, y_valid,
                          metric)[0]
