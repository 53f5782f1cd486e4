"""Experiment T14 — checkpoint/resume: skipped work and write overhead.

Two claims behind ``repro.runtime.checkpoint``:

1. **Resume skips the completed prefix.** A TMC-Shapley sweep killed
   partway through and resumed from its newest durable record replays
   the stored marginals (no retraining) and only evaluates the
   remaining permutations — and the resumed scores are *hex-identical*
   to the uninterrupted run. Artifact: ``results/t14_resume.txt``.
2. **Checkpointing is cheap.** A durable snapshot costs a bounded
   few milliseconds per record (one journal append + fdatasync), so
   at real workload sizes — seconds per permutation — the overhead is
   noise; the scores are bit-for-bit unchanged by the presence of a
   checkpoint.
"""

import time

from repro.datasets import make_blobs
from repro.importance import MonteCarloShapley, Utility
from repro.ml import LogisticRegression
from repro.observe import Observer
from repro.runtime.checkpoint import CheckpointStore
from tests.journal import keep_only_oldest

from .conftest import write_result

N_TRAIN = 72
N_PERMUTATIONS = 12
CHECKPOINT_EVERY = 2


def _utility():
    X, y = make_blobs(N_TRAIN + 24, n_features=3, centers=2, seed=5)
    return Utility(LogisticRegression(max_iter=40),
                   X[:N_TRAIN], y[:N_TRAIN], X[N_TRAIN:], y[N_TRAIN:])


def _simulate_kill(store_dir) -> int:
    """Keep only the oldest of the newest three records — the on-disk
    state a SIGKILL would have left two flushes ago. Returns the
    completed count recorded in the surviving snapshot."""
    keep_only_oldest(store_dir)
    record = CheckpointStore(store_dir).load_latest()
    return record.payload["completed"]


def test_t14_resume_skips_completed_work(benchmark, results_dir, tmp_path):
    store_dir = tmp_path / "ckpt"

    def full_run():
        return MonteCarloShapley(
            n_permutations=N_PERMUTATIONS, seed=9,
            checkpoint=store_dir,
            checkpoint_every=CHECKPOINT_EVERY).score(_utility())

    started = time.perf_counter()
    reference = benchmark.pedantic(full_run, rounds=1, iterations=1)
    full_seconds = time.perf_counter() - started

    completed = _simulate_kill(store_dir)
    obs = Observer(run_id="t14")
    started = time.perf_counter()
    resumed = MonteCarloShapley(
        n_permutations=N_PERMUTATIONS, seed=9,
        resume_from=store_dir, observer=obs).score(_utility())
    resumed_seconds = time.perf_counter() - started

    assert [v.hex() for v in resumed] == [v.hex() for v in reference]
    assert obs.metrics.snapshot()["checkpoint.restores"] == 1
    assert 0 < completed < N_PERMUTATIONS
    remaining = N_PERMUTATIONS - completed

    write_result(results_dir, "t14_resume", [
        f"permutations: {N_PERMUTATIONS}  (checkpoint every "
        f"{CHECKPOINT_EVERY})",
        f"surviving snapshot: {completed} permutations completed",
        f"full run:    {full_seconds:.3f}s",
        f"resumed run: {resumed_seconds:.3f}s "
        f"({remaining} permutations live, {completed} replayed)",
        "resumed scores hex-identical to the uninterrupted run",
    ])
    benchmark.extra_info["completed_at_kill"] = completed
    benchmark.extra_info["resume_seconds"] = resumed_seconds

    # The resumed run retrains only the remaining suffix; generous
    # CI-safe bound (exact fraction depends on replay + store I/O).
    assert resumed_seconds < full_seconds, (
        f"resume ({resumed_seconds:.3f}s) not faster than the full run "
        f"({full_seconds:.3f}s) despite skipping {completed} permutations")


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_t14_checkpoint_overhead(benchmark, results_dir, tmp_path):
    """Each durable record must cost a bounded few milliseconds, and
    the presence of a checkpoint must not perturb the scores."""
    perms, every = 60, 10
    n_records = perms // every

    def run(checkpoint=None):
        return MonteCarloShapley(
            n_permutations=perms, seed=9, checkpoint=checkpoint,
            checkpoint_every=every).score(_utility())

    benchmark.pedantic(run, rounds=1, iterations=1)

    plain = _best_of(lambda: run(), 3)
    store_dirs = iter(tmp_path / f"ckpt{i}" for i in range(3))
    checkpointed = _best_of(lambda: run(next(store_dirs)), 3)
    per_record = (checkpointed - plain) / n_records

    reference = run()
    resumable = run(tmp_path / "ckpt-final")
    assert [v.hex() for v in resumable] == [v.hex() for v in reference]

    write_result(results_dir, "t14_checkpoint_overhead", [
        f"sweep (no checkpoint, best of 3):   {plain:.4f}s",
        f"sweep (checkpointed, best of 3):    {checkpointed:.4f}s",
        f"per record: {per_record * 1e3:.2f}ms "
        f"({n_records} journal appends per sweep; fdatasync-bound)",
        "checkpointed scores hex-identical to the plain sweep",
        "",
        "at real workload sizes (seconds per permutation) the per-record",
        "cost is noise; pick checkpoint_every to taste",
    ])
    benchmark.extra_info["per_record_seconds"] = per_record

    # Generous CI-safe bound; typically a few ms per fsynced record.
    assert per_record < 0.1, (
        f"each checkpoint record cost {per_record * 1e3:.1f}ms")
