"""Evaluating importance methods as error detectors.

Two views, matching how the paper's hands-on session uses importance:

- **Detection**: rank examples by value ascending; how many of the truly
  corrupted examples appear in the bottom-k? (precision/recall@k)
- **Cleaning curves**: repeatedly clean the bottom-k and retrain; how fast
  does model quality recover compared to random cleaning? (Figure 2's
  0.76 -> 0.79 is one point of such a curve.)
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError


def rank_lowest(values, k: int | None = None) -> np.ndarray:
    """Indices of the lowest-valued (most harmful) examples, ascending.

    Ties are broken by index so rankings are deterministic.
    """
    values = np.asarray(values, dtype=float)
    order = np.lexsort((np.arange(len(values)), values))
    return order if k is None else order[:k]


def detection_recall_at_k(values, corrupted_indices, k: int) -> float:
    """Fraction of corrupted examples found in the bottom-k of ``values``."""
    corrupted = set(int(i) for i in np.atleast_1d(corrupted_indices))
    if not corrupted:
        raise ValidationError("corrupted_indices is empty")
    flagged = set(rank_lowest(values, k).tolist())
    return len(flagged & corrupted) / len(corrupted)


def detection_precision_at_k(values, corrupted_indices, k: int) -> float:
    """Fraction of the bottom-k that is truly corrupted."""
    corrupted = set(int(i) for i in np.atleast_1d(corrupted_indices))
    flagged = set(rank_lowest(values, k).tolist())
    return len(flagged & corrupted) / max(len(flagged), 1)


def detection_report(values, corrupted_indices, k: int, *, utility=None,
                     wall_time: float | None = None) -> dict:
    """Detection quality plus the cost that bought it.

    Bundles recall@k / precision@k with the runtime introspection the
    benchmarks print: model trainings consumed (``utility.calls``), the
    kernel, the backend and the fingerprint-cache hit-rate — so a
    method's ranking quality is always read next to its price. Wall
    time per runtime stage comes from an attached observer's spans.

    Parameters
    ----------
    values:
        Importance scores (lower = more harmful).
    corrupted_indices:
        Ground-truth corrupted examples.
    k:
        Cutoff for the detection metrics.
    utility:
        Optional :class:`~repro.importance.Utility` (or any object with
        ``calls`` / ``cache_info``) the scores were computed through.
    wall_time:
        Optional end-to-end seconds measured by the caller.
    """
    report = {
        "k": int(k),
        "recall_at_k": detection_recall_at_k(values, corrupted_indices, k),
        "precision_at_k": detection_precision_at_k(values, corrupted_indices, k),
    }
    if wall_time is not None:
        report["wall_time"] = float(wall_time)
    if utility is not None:
        report["utility_calls"] = int(getattr(utility, "calls", 0))
        info = utility.cache_info() if hasattr(utility, "cache_info") else {}
        kernel_stats = info.get("kernel")
        if kernel_stats is not None and kernel_stats.get("name"):
            report["kernel"] = kernel_stats["name"]
            report["kernel_incremental_steps"] = int(
                kernel_stats["incremental_steps"])
            report["kernel_fallback_retrains"] = int(
                kernel_stats["fallback_retrains"])
        runtime_stats = info.get("runtime")
        if runtime_stats is not None:
            report["backend"] = runtime_stats["backend"]
            cache_stats = runtime_stats.get("cache")
            if cache_stats is not None:
                report["cache_hit_rate"] = cache_stats["hit_rate"]
                report["cache_hits"] = (cache_stats["memory_hits"]
                                        + cache_stats["disk_hits"])
    return report


def format_report(report: dict) -> str:
    """One-line rendering of a :func:`detection_report` for logs."""
    parts = [f"recall@{report['k']}={report['recall_at_k']:.2f}",
             f"precision@{report['k']}={report['precision_at_k']:.2f}"]
    if "utility_calls" in report:
        parts.append(f"trainings={report['utility_calls']}")
    if "kernel" in report:
        parts.append(f"kernel={report['kernel']}")
    if "cache_hit_rate" in report:
        parts.append(f"cache_hit_rate={report['cache_hit_rate']:.1%}")
    if "wall_time" in report:
        parts.append(f"wall={report['wall_time']:.2f}s")
    if "backend" in report:
        parts.append(f"backend={report['backend']}")
    return "  ".join(parts)


def cleaning_curve(values, *, clean_step, evaluate, n_rounds: int,
                   batch: int) -> list[float]:
    """Simulate iterative prioritized cleaning.

    Parameters
    ----------
    values:
        Importance scores of the (dirty) training data; cleaned lowest
        first, ``batch`` per round.
    clean_step:
        Callable ``clean_step(indices) -> None`` applying repairs in place
        (e.g. restoring ground-truth labels).
    evaluate:
        Callable ``evaluate() -> float`` retraining and scoring the model
        on the current data state.
    n_rounds:
        Number of cleaning rounds.
    batch:
        Examples cleaned per round.

    Returns
    -------
    list of float
        Quality after 0, 1, ..., n_rounds rounds (length n_rounds + 1).
    """
    if n_rounds < 1 or batch < 1:
        raise ValidationError("n_rounds and batch must be >= 1")
    order = rank_lowest(values)
    curve = [float(evaluate())]
    for round_idx in range(n_rounds):
        chunk = order[round_idx * batch:(round_idx + 1) * batch]
        if len(chunk) == 0:
            curve.append(curve[-1])
            continue
        clean_step(chunk)
        curve.append(float(evaluate()))
    return curve
