"""Certain predictions for k-NN over incomplete data (CPClean, ref [40]).

A test point's prediction is *certain* when **every** completion of the
incomplete training data yields the same k-NN vote — then cleaning cannot
change the answer and is provably unnecessary for that query ("do we even
need to debug?"). CPClean's second contribution is picking *which* rows
to clean so the most validation queries become certain; the greedy
selector here follows that design.

Algorithm. Each incomplete training row has an interval distance
``[dmin, dmax]`` to the test point (features boxed by per-column bounds).
For the binary case, label ``c`` is a certain prediction iff ``c`` still
wins the k-NN vote in its own worst world — all ``c``-labelled rows pushed
to ``dmax``, all others pulled to ``dmin``. Pushing a same-label row
farther or an other-label row closer can only reduce ``c``'s vote, so the
check is exact (a completion attaining the worst case exists because each
row's distance varies continuously and independently over its interval).
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.validation import check_array


def _interval_distances(X_lo, X_hi, x: np.ndarray):
    """Row-wise [min, max] euclidean distance to a complete point ``x``."""
    below = np.clip(X_lo - x, 0.0, None)
    above = np.clip(x - X_hi, 0.0, None)
    nearest_gap = np.maximum(below, above)           # 0 inside the box
    farthest_gap = np.maximum(np.abs(X_lo - x), np.abs(X_hi - x))
    return (np.sqrt((nearest_gap**2).sum(axis=1)),
            np.sqrt((farthest_gap**2).sum(axis=1)))


class CertainPredictionKNN:
    """Certain-prediction checker for binary k-NN classification.

    Parameters
    ----------
    k:
        Neighborhood size (odd values avoid vote ties).
    bounds:
        ``(lo, hi)`` arrays of per-column fill ranges for NaN cells; when
        omitted, observed per-column min/max are used.
    """

    def __init__(self, k: int = 3, bounds: tuple | None = None):
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.k = k
        self.bounds = bounds

    def fit(self, X, y) -> "CertainPredictionKNN":
        X = check_array(X, allow_nan=True)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) != 2:
            raise ValidationError("certain predictions implemented for binary tasks")
        if self.k > len(X):
            raise ValidationError(f"k={self.k} exceeds training size {len(X)}")
        if self.bounds is None:
            lo_fill = np.nanmin(X, axis=0)
            hi_fill = np.nanmax(X, axis=0)
        else:
            lo_fill, hi_fill = self.bounds
        nan = np.isnan(X)
        self._X_lo = np.where(nan, np.broadcast_to(lo_fill, X.shape), X)
        self._X_hi = np.where(nan, np.broadcast_to(hi_fill, X.shape), X)
        self._y = y
        self._incomplete_rows = np.flatnonzero(nan.any(axis=1))
        return self

    # ------------------------------------------------------------------
    def _wins_worst_case(self, dmin, dmax, candidate) -> bool:
        """Does ``candidate`` win the vote in its own worst world?"""
        is_candidate = self._y == candidate
        adversarial = np.where(is_candidate, dmax, dmin)
        order = np.lexsort((np.arange(len(adversarial)), adversarial))[: self.k]
        votes = int(is_candidate[order].sum())
        return votes * 2 > self.k

    def check(self, x) -> dict:
        """Decide certainty for a single complete test point.

        Returns ``{"certain": bool, "prediction": label_or_None,
        "votes_best_case": {...}}``. ``prediction`` is the certain label
        when one exists; ``None`` when no label wins all worlds.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValidationError("check takes a single test point")
        dmin, dmax = _interval_distances(self._X_lo, self._X_hi, x)
        for candidate in self.classes_:
            if self._wins_worst_case(dmin, dmax, candidate):
                return {"certain": True, "prediction": candidate}
        # No certain winner: report the midpoint-world prediction.
        mid = (dmin + dmax) / 2.0
        order = np.lexsort((np.arange(len(mid)), mid))[: self.k]
        values, counts = np.unique(self._y[order], return_counts=True)
        return {"certain": False, "prediction": None,
                "midpoint_guess": values[np.argmax(counts)]}

    def certain_fraction(self, X_test) -> float:
        """Fraction of test points with certain predictions — the headline
        number of the T4 benchmark."""
        X_test = check_array(X_test)
        certain = sum(1 for x in X_test if self.check(x)["certain"])
        return certain / len(X_test)


def _candidate_fraction_task(shared, row: int) -> float:
    """Certain fraction after hypothetically cleaning one training row —
    reference implementation that refits a fresh checker per candidate.

    ``shared`` is ``(X_current, X_clean, y, X_test, k)``. The greedy
    selector now uses :func:`_incremental_candidate_fraction_task`
    (identical results, no per-candidate refit); this brute-force path
    is kept as the equivalence oracle for tests.
    """
    X_current, X_clean, y, X_test, k = shared
    candidate = X_current.copy()
    candidate[row] = X_clean[row]
    checker = CertainPredictionKNN(k=k).fit(candidate, y)
    return checker.certain_fraction(X_test)


def _distance_bounds(X_lo, X_hi, X_test):
    """``(n_train, n_test)`` interval-distance matrices; column ``j`` is
    bit-identical to ``_interval_distances(X_lo, X_hi, X_test[j])``."""
    dmin = np.empty((len(X_lo), len(X_test)))
    dmax = np.empty_like(dmin)
    for j, x in enumerate(X_test):
        dmin[:, j], dmax[:, j] = _interval_distances(X_lo, X_hi, x)
    return dmin, dmax


def _certain_fraction_from_bounds(dmin, dmax, y, classes, k: int) -> float:
    """Certain fraction over all test points, vectorized across columns.

    Per column this replays :meth:`CertainPredictionKNN.check` exactly:
    a point is certain iff some label wins the k-NN vote in its own
    worst world, with the same stable (distance, row-index) tie-break.
    """
    n, m = dmin.shape
    row_order = np.broadcast_to(np.arange(n)[:, None], (n, m))
    certain = np.zeros(m, dtype=bool)
    for label in classes:
        is_label = y == label
        adversarial = np.where(is_label[:, None], dmax, dmin)
        order = np.lexsort((row_order, adversarial), axis=0)[:k]
        votes = is_label[order].sum(axis=0)
        certain |= votes * 2 > k
    return int(certain.sum()) / m


def _incremental_candidate_fraction_task(shared, row: int) -> float:
    """Certain fraction after hypothetically cleaning one training row,
    from the round's precomputed interval-distance matrices.

    Cleaning row ``row`` only changes that row's distance bounds — its
    interval collapses to the exact distance — unless revealing the row
    moves a column's observed min/max, which shifts the NaN fill values
    of *other* rows too; that rare case recomputes the matrices from the
    candidate dataset (the reference path's cost). Either way the
    resulting fraction is bit-identical to
    :func:`_candidate_fraction_task`.
    """
    (X_current, X_clean, y, X_test, k, classes, lo_fill, hi_fill,
     base_dmin, base_dmax, exact_dist) = shared
    candidate = X_current.copy()
    candidate[row] = X_clean[row]
    cand_lo = np.nanmin(candidate, axis=0)
    cand_hi = np.nanmax(candidate, axis=0)
    if np.array_equal(cand_lo, lo_fill) and np.array_equal(cand_hi, hi_fill):
        dmin = base_dmin.copy()
        dmax = base_dmax.copy()
        dmin[row] = exact_dist[row]
        dmax[row] = exact_dist[row]
    else:
        nan = np.isnan(candidate)
        X_lo = np.where(nan, np.broadcast_to(cand_lo, candidate.shape),
                        candidate)
        X_hi = np.where(nan, np.broadcast_to(cand_hi, candidate.shape),
                        candidate)
        dmin, dmax = _distance_bounds(X_lo, X_hi, X_test)
    return _certain_fraction_from_bounds(dmin, dmax, y, classes, k)


def cpclean_greedy(X_dirty, y, X_clean, X_test, *, k: int = 3,
                   max_cleaned: int | None = None, runtime=None,
                   observer=None, checkpoint=None, checkpoint_every: int = 1,
                   resume_from=None) -> dict:
    """Greedy CPClean cleaning-set selection (simulated with ground truth).

    Repeatedly cleans (reveals) the incomplete training row whose repair
    certifies the most currently-uncertain test points, stopping when all
    test predictions are certain or the budget is exhausted.

    Parameters
    ----------
    X_dirty:
        Training features with NaN-marked missing cells.
    X_clean:
        Ground-truth features (the oracle's answers).
    max_cleaned:
        Optional budget on cleaned rows.
    runtime:
        Optional :class:`repro.runtime.Runtime` (or backend name): each
        round's candidate evaluations — one world enumeration per still-
        incomplete row — run in parallel. The greedy choice is identical
        on every backend (first-maximum tie-break on the row order).
        Each round precomputes the interval-distance matrices once and
        ships them with the shared payload, so a candidate evaluation is
        an O(update) bound swap instead of a full checker refit (bit-
        identical fractions either way).
    observer:
        Optional :class:`repro.observe.Observer`: spans the selection
        (``cpclean.greedy``), counts candidate evaluations and rows
        cleaned, and logs one ``cpclean.round`` event per repair plus a
        final ``cpclean.run`` summary.
    checkpoint / checkpoint_every / resume_from:
        Durable per-repair snapshots (cleaned rows + certain-fraction
        trajectory). A killed selection resumed with ``resume_from=``
        replays the recorded repairs (no candidate re-evaluation) and
        continues greedily — identical ``cleaned_rows`` and trajectory
        to an uninterrupted run on any backend. A smaller
        ``max_cleaned`` replays only that many recorded repairs. The
        selection is fully deterministic, so no seed is involved.

    Returns
    -------
    dict with ``cleaned_rows`` (order of repairs), ``certain_fraction``
    trajectory, and ``n_cleaned``.
    """
    from repro.observe.observer import resolve_observer
    from repro.runtime.runtime import Runtime, resolve_runtime

    observer = resolve_observer(observer)
    # A runtime built here from a backend name is ours to close; one
    # passed in by the caller is shared and stays open.
    owns_runtime = runtime is not None and not isinstance(runtime, Runtime)
    runtime = resolve_runtime(runtime)
    try:
        return _cpclean_greedy_run(X_dirty, y, X_clean, X_test, k=k,
                                   max_cleaned=max_cleaned, runtime=runtime,
                                   observer=observer, checkpoint=checkpoint,
                                   checkpoint_every=checkpoint_every,
                                   resume_from=resume_from)
    finally:
        # The armed flush guard inside the run exits before this close,
        # so a signal-flushed checkpoint never races pool teardown.
        if owns_runtime and runtime is not None:
            runtime.close()


def _cpclean_greedy_run(X_dirty, y, X_clean, X_test, *, k, max_cleaned,
                        runtime, observer, checkpoint=None,
                        checkpoint_every=1, resume_from=None) -> dict:
    """The selection loop behind :func:`cpclean_greedy` (runtime and
    observer already resolved)."""
    from repro.runtime.checkpoint import LoopCheckpointer

    X_current = np.asarray(X_dirty, dtype=float).copy()
    X_clean = np.asarray(X_clean, dtype=float)
    y = np.asarray(y)
    X_test = np.asarray(X_test, dtype=float)
    incomplete = list(np.flatnonzero(np.isnan(X_current).any(axis=1)))
    budget = max_cleaned if max_cleaned is not None else len(incomplete)

    def fraction(X) -> float:
        checker = CertainPredictionKNN(k=k).fit(X, y)
        return checker.certain_fraction(X_test)

    # max_cleaned is excluded: the greedy order is a prefix property, so
    # a snapshot may seed a run with a larger budget, or a smaller one
    # that replays only the first max_cleaned recorded repairs.
    ckpt = LoopCheckpointer(
        checkpoint, kind="cpclean.greedy",
        identity=("checkpoint.cpclean.greedy", k, X_current, y, X_clean,
                  X_test),
        every=checkpoint_every, observer=observer, resume_from=resume_from)
    cleaned = []

    def snapshot() -> dict:
        return {"completed": len(cleaned), "cleaned": list(cleaned),
                "trajectory": [s.hex() for s in trajectory]}

    payload = ckpt.resume()
    if payload is not None:
        # Replay the recorded repairs — no candidate re-evaluation.
        for row in payload["cleaned"][:budget]:
            row = int(row)
            X_current[row] = X_clean[row]
            incomplete.remove(row)
            cleaned.append(row)
        trajectory = [float.fromhex(s) for s in
                      payload["trajectory"][:len(cleaned) + 1]]
        ckpt.record_skipped(completed=len(cleaned), total=budget,
                            method="cpclean.greedy")
    else:
        trajectory = [fraction(X_current)]
    classes = np.unique(y)
    # Exact distances of fully-revealed rows, fixed for the whole run.
    exact_dist = _distance_bounds(X_clean, X_clean, X_test)[0]

    # Rebuilt at each repair boundary so a signal flush mid-round
    # persists the last consistent state; until the first boundary that
    # is the record resumed from.
    state = payload or snapshot()
    with observer.span("cpclean.greedy", k=k, budget=budget,
                       incomplete=len(incomplete)), \
            ckpt.armed(lambda: state):
        while incomplete and len(cleaned) < budget and trajectory[-1] < 1.0:
            nan = np.isnan(X_current)
            lo_fill = np.nanmin(X_current, axis=0)
            hi_fill = np.nanmax(X_current, axis=0)
            X_lo = np.where(nan, np.broadcast_to(lo_fill, X_current.shape),
                            X_current)
            X_hi = np.where(nan, np.broadcast_to(hi_fill, X_current.shape),
                            X_current)
            base_dmin, base_dmax = _distance_bounds(X_lo, X_hi, X_test)
            shared = (X_current, X_clean, y, X_test, k, classes, lo_fill,
                      hi_fill, base_dmin, base_dmax, exact_dist)
            if runtime is not None:
                fractions = runtime.map(_incremental_candidate_fraction_task,
                                        incomplete, shared=shared,
                                        stage="cpclean.greedy")
            else:
                fractions = [_incremental_candidate_fraction_task(shared, row)
                             for row in incomplete]
            best = int(np.argmax(fractions))  # first maximum, as in the loop
            best_row, best_fraction = incomplete[best], float(fractions[best])
            X_current[best_row] = X_clean[best_row]
            incomplete.remove(best_row)
            cleaned.append(int(best_row))
            trajectory.append(best_fraction)
            state = snapshot()
            ckpt.maybe_flush(len(cleaned))
            if observer.enabled:
                observer.count("cpclean.candidate_evals", len(fractions))
                observer.count("cpclean.rows_cleaned")
                observer.event("cpclean.round", row=int(best_row),
                               certain_fraction=best_fraction,
                               candidates=len(fractions))
    if observer.enabled:
        observer.event("cpclean.run", k=k, budget=budget,
                       n_cleaned=len(cleaned),
                       initial_fraction=trajectory[0],
                       final_fraction=trajectory[-1],
                       cleaned_rows=list(cleaned))
    return {"cleaned_rows": cleaned, "certain_fraction": trajectory,
            "n_cleaned": len(cleaned)}
