"""Fault-injection suite for the runtime's fault-tolerance layer.

Workers are killed with ``os._exit`` (mimicking an OOM kill / signal),
tasks raise transient and deterministic exceptions, and chunks are made
to overrun their timeouts — the executors must recover per their
:class:`~repro.runtime.FaultPolicy` with **bit-identical results**,
observable counters, and structured :class:`~repro.runtime.TaskError`
attribution when the budget runs out.

Crash fixtures are guarded by the parent pid so a task that kills a
pool worker can never kill the test process, and one-shot crashes claim
a flag file with an atomic rename so exactly one worker dies.
"""

import gc
import os
import threading
import time
from concurrent.futures.thread import BrokenThreadPool

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.ml.base import BaseEstimator
from repro.observe import Observer
from repro.runtime import (
    CancellationToken,
    FaultPolicy,
    JobCancelled,
    ProgressRecorder,
    Runtime,
    SerialExecutor,
    TaskError,
    resolve_fault_policy,
)

_MAIN_PID = os.getpid()


# --- injectable task functions (module-level: picklable) -------------------

def _double(shared, task):
    return task * 2


def _exit_always(shared, task):
    """Kill whichever pool worker runs this (never the test process)."""
    if os.getpid() != _MAIN_PID:
        os._exit(1)
    raise AssertionError("crash task ran in the parent process")


def _worker_only_crash(shared, task):
    """Dies in any worker, computes fine in the parent — exercises the
    on_worker_failure='serial' degradation path."""
    if os.getpid() != _MAIN_PID:
        os._exit(1)
    return task + 1


def _crash_once(shared, task):
    """First worker to claim the flag file dies mid-task; every retry
    (flag already claimed) computes normally."""
    _claim_flag_and_crash(shared)
    return task * 3


def _claim_flag_and_crash(flag) -> None:
    if not flag or os.getpid() == _MAIN_PID:
        return
    try:
        os.rename(flag, flag + ".claimed")
    except OSError:
        return  # someone else claimed it — run normally
    os._exit(1)


def _sleepy(shared, task):
    time.sleep(task)
    return task


def _failing(shared, task):
    if task == 3:
        raise ValueError("task 3 exploded")
    return task


_FLAKY_STATE = {"remaining": 0}


def _flaky(shared, task):
    if task == 5 and _FLAKY_STATE["remaining"] > 0:
        _FLAKY_STATE["remaining"] -= 1
        raise ConnectionError("transient blip")
    return task * 10


class CrashyNearestMean(BaseEstimator):
    """Deterministic nearest-class-mean classifier whose ``fit`` kills
    its worker once (flag-file claimed) — a model training that OOMs
    mid-Shapley, from the executor's point of view."""

    def __init__(self, flag=""):
        self.flag = flag

    def fit(self, X, y):
        _claim_flag_and_crash(self.flag)
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        self.means_ = np.stack([X[y == c].mean(axis=0)
                                for c in self.classes_])
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        distances = ((X[:, None, :] - self.means_[None, :, :]) ** 2).sum(-1)
        return self.classes_[np.argmin(distances, axis=1)]


@pytest.fixture()
def crash_flag(tmp_path):
    flag = tmp_path / "crash-flag"
    flag.touch()
    return str(flag)


@pytest.fixture()
def small_game():
    from repro.datasets import make_blobs

    X, y = make_blobs(30, n_features=3, centers=2, seed=0)
    return X[:20], y[:20], X[20:], y[20:]


# --- the seeded bugs: regression tests -------------------------------------

class TestBrokenPoolRebuild:
    def test_second_map_after_broken_pool_succeeds(self):
        # Regression: the executor used to keep its dead pool after
        # BrokenProcessPool, so every later map() reused it and failed
        # forever.
        with Runtime(backend="process", max_workers=2,
                     faults={"on_worker_failure": "raise",
                             "backoff": 0.0}) as runtime:
            with pytest.raises(TaskError):
                runtime.map(_exit_always, range(4), stage="crash")
            assert runtime.executor._pool is None
            assert runtime.map(_double, range(4),
                               stage="recovered") == [0, 2, 4, 6]

    def test_repeated_crashes_are_bounded(self):
        # A task that kills every worker it touches cannot rebuild the
        # pool forever: the crash budget trips into a TaskError.
        observer = Observer()
        with Runtime(backend="process", max_workers=2, observer=observer,
                     faults=FaultPolicy(retries=1, backoff=0.0,
                                        max_worker_crashes=2)) as runtime:
            with pytest.raises(TaskError) as info:
                runtime.map(_exit_always, range(3), stage="hopeless")
        assert observer.metrics.snapshot()["executor.worker_crashes"] == 3
        assert info.value.stage == "hopeless"


class TestChunkResponsiveness:
    def test_10k_serial_tasks_emit_at_least_100_progress_events(self):
        # Regression: auto chunking used ceil(n / 4) for serial, so a
        # 10k-task job polled progress/cancellation only 4 times.
        recorder = ProgressRecorder()
        executor = SerialExecutor()
        results = executor.map(_double, range(10_000), progress=recorder,
                               stage="big-serial")
        assert len(results) == 10_000
        assert len(recorder.events) >= 100
        assert recorder.last.completed == 10_000

    def test_cancellation_noticed_within_one_capped_chunk(self):
        token = CancellationToken()
        seen = []

        def progress(event):
            seen.append(event)
            token.cancel()

        executor = SerialExecutor()
        with pytest.raises(JobCancelled):
            executor.map(_double, range(10_000), progress=progress,
                         cancel=token, stage="abort-early")
        # Aborted after the first chunk, not a quarter of the job.
        assert seen[0].completed <= 64


# --- crash recovery --------------------------------------------------------

class TestWorkerCrashRecovery:
    def test_crash_mid_shapley_recovers_bit_identical(self, crash_flag,
                                                      small_game):
        # Acceptance: a worker killed mid-shapley_mc on the process
        # backend must not change a single bit of the scores, and the
        # recovery must be visible through repro.observe.
        from repro.importance import MonteCarloShapley, Utility

        observer = Observer()
        with Runtime(backend="process", max_workers=2, observer=observer,
                     faults=FaultPolicy(retries=3, backoff=0.0)) as runtime:
            utility = Utility(CrashyNearestMean(flag=crash_flag), *small_game,
                              runtime=runtime)
            estimator = MonteCarloShapley(n_permutations=6,
                                          truncation_tol=0.0, seed=3)
            scores = estimator.score(utility)

        assert os.path.exists(crash_flag + ".claimed"), \
            "the injected crash never fired"
        counters = observer.metrics.snapshot()
        assert counters["executor.worker_crashes"] >= 1
        assert counters["executor.retries"] >= 1
        fault_events = [event for event in observer.runlog.events
                        if event["kind"] == "executor.fault"]
        assert any(event["fault"] == "worker_crash" for event in fault_events)

        # Uninterrupted serial reference run (flag already claimed, and
        # the parent-pid guard makes crashes impossible here anyway).
        serial_utility = Utility(CrashyNearestMean(flag=crash_flag),
                                 *small_game, runtime=None)
        serial_scores = MonteCarloShapley(n_permutations=6,
                                          truncation_tol=0.0,
                                          seed=3).score(serial_utility)
        assert [s.hex() for s in scores] == [s.hex() for s in serial_scores]

    def test_crash_once_map_recovers_all_results(self, crash_flag):
        observer = Observer()
        with Runtime(backend="process", max_workers=2, observer=observer,
                     faults=FaultPolicy(retries=2, backoff=0.0)) as runtime:
            results = runtime.map(_crash_once, range(8), shared=crash_flag,
                                  stage="once")
        assert results == [task * 3 for task in range(8)]
        counters = observer.metrics.snapshot()
        assert counters["executor.worker_crashes"] == 1
        assert counters["executor.retries"] >= 1

    def test_degraded_serial_fallback_completes(self):
        observer = Observer()
        with Runtime(backend="process", max_workers=2, observer=observer,
                     on_worker_failure="serial",
                     faults={"backoff": 0.0}) as runtime:
            results = runtime.map(_worker_only_crash, range(6), stage="deg")
        assert results == [task + 1 for task in range(6)]
        counters = observer.metrics.snapshot()
        assert counters["executor.worker_crashes"] == 1
        assert counters["executor.degraded_runs"] == 1

    def test_on_worker_failure_raise_propagates_with_context(self):
        with Runtime(backend="process", max_workers=2,
                     faults={"on_worker_failure": "raise",
                             "backoff": 0.0}) as runtime:
            with pytest.raises(TaskError) as info:
                runtime.map(_exit_always, range(2), stage="fatal")
        assert info.value.stage == "fatal"
        assert info.value.backend == "process"
        assert "Broken" in type(info.value.__cause__).__name__


# --- retries, backoff, cancellation ----------------------------------------

class TestRetries:
    def test_transient_failure_retried_to_success(self):
        _FLAKY_STATE["remaining"] = 2
        observer = Observer()
        with Runtime(backend="thread", max_workers=2, observer=observer,
                     faults=FaultPolicy(retries=3, backoff=0.0)) as runtime:
            results = runtime.map(_flaky, range(8), stage="flaky")
        assert results == [task * 10 for task in range(8)]
        assert observer.metrics.snapshot()["executor.retries"] == 2

    def test_budget_exhaustion_raises_task_error_with_attribution(self):
        with Runtime(backend="thread", max_workers=2, chunk_size=1,
                     faults=FaultPolicy(retries=1, backoff=0.0)) as runtime:
            with pytest.raises(TaskError, match="task 3 exploded") as info:
                runtime.map(_failing, range(6), stage="doomed")
        error = info.value
        assert error.stage == "doomed"
        assert error.chunk_index == 3
        assert error.attempts == 2  # initial try + one retry
        assert isinstance(error.__cause__, ValueError)

    def test_cancel_during_retry_backoff_raises_jobcancelled(self):
        token = CancellationToken()
        timer = threading.Timer(0.2, token.cancel)
        timer.start()
        started = time.perf_counter()
        try:
            with Runtime(backend="serial", cancel=token,
                         faults=FaultPolicy(retries=5,
                                            backoff=30.0)) as runtime:
                with pytest.raises(JobCancelled):
                    runtime.map(_failing, range(6), stage="cancel-retry")
        finally:
            timer.cancel()
        # Aborted out of the 30 s backoff sleep, not after it.
        assert time.perf_counter() - started < 5.0

    def test_retry_events_observable(self):
        _FLAKY_STATE["remaining"] = 1
        observer = Observer()
        with Runtime(backend="thread", max_workers=2, observer=observer,
                     faults=FaultPolicy(retries=2, backoff=0.0)) as runtime:
            runtime.map(_flaky, range(8), stage="flaky")
        assert observer.metrics.snapshot()["executor.retries"] == 1
        fault_events = [event for event in observer.runlog.events
                        if event["kind"] == "executor.fault"]
        assert fault_events
        assert fault_events[0]["fault"] == "retry"
        assert fault_events[0]["stage"] == "flaky"
        assert "ConnectionError" in fault_events[0]["error"]


class TestTimeouts:
    def test_stuck_chunk_times_out_into_task_error(self):
        observer = Observer()
        with Runtime(backend="process", max_workers=2, observer=observer,
                     faults=FaultPolicy(retries=0, timeout=0.5,
                                        backoff=0.0)) as runtime:
            started = time.perf_counter()
            with pytest.raises(TaskError) as info:
                runtime.map(_sleepy, [30], stage="stuck")
            assert time.perf_counter() - started < 10.0
            assert isinstance(info.value.__cause__, TimeoutError)
            assert observer.metrics.snapshot()["executor.timeouts"] == 1
            # The killed pool is rebuilt transparently for the next job.
            assert runtime.map(_double, [1, 2], stage="after") == [2, 4]

    def test_timeout_retry_can_succeed(self, tmp_path):
        # First attempt sleeps forever; the resubmitted chunk (flag
        # claimed) returns quickly.
        flag = tmp_path / "slow-flag"
        flag.touch()
        observer = Observer()
        with Runtime(backend="process", max_workers=2, observer=observer,
                     faults=FaultPolicy(retries=1, timeout=1.0,
                                        backoff=0.0)) as runtime:
            results = runtime.map(_slow_once, [7], shared=str(flag),
                                  stage="slow-once")
        assert results == [7]
        assert observer.metrics.snapshot()["executor.timeouts"] == 1


    def test_process_clock_starts_when_the_chunk_runs(self):
        # One worker and four 0.4 s chunks. The pool moves a chunk into
        # its call queue (and marks it running) while the chunk ahead
        # of it still runs, so a clock started then would expire chunk
        # 1 at 0.6 s, before it finished at 0.8 s. Counted from the
        # worker's own start stamp, no chunk comes near the timeout.
        observer = Observer()
        with Runtime(backend="process", max_workers=1, chunk_size=1,
                     observer=observer,
                     faults=FaultPolicy(retries=0, timeout=0.6,
                                        backoff=0.0)) as runtime:
            results = runtime.map(_sleepy, [0.4] * 4, stage="queued")
        assert results == [0.4] * 4
        assert "executor.timeouts" not in observer.metrics.snapshot()


def _slow_once(shared, task):
    try:
        os.rename(shared, shared + ".claimed")
    except OSError:
        return task
    time.sleep(60)
    return task


# --- the three fault records agree ------------------------------------------

def _claim_task_flag(flag, task) -> bool:
    """True for the one attempt that claims ``<flag>-<task>``; tasks
    without an armed flag file never misbehave."""
    try:
        os.rename(f"{flag}-{task}", f"{flag}-{task}.claimed")
    except OSError:
        return False
    return True


def _break_worker() -> None:
    """Break the pool worker running this task: a process worker exits;
    a thread worker raises ``BrokenThreadPool``, the error a broken
    thread pool reports. The test process's main thread is spared."""
    if os.getpid() != _MAIN_PID:
        os._exit(1)
    if threading.current_thread() is not threading.main_thread():
        raise BrokenThreadPool("injected worker break")


def _raise_once(flag, task):
    if _claim_task_flag(flag, task):
        raise ConnectionError(f"transient blip on task {task}")
    return task


def _break_once(flag, task):
    if _claim_task_flag(flag, task):
        _break_worker()
    return task


def _stall_once(flag, task):
    if _claim_task_flag(flag, task):
        time.sleep(2.0)  # twice the 1 s timeout
    return task


def _break_in_workers(flag, task):
    _break_worker()
    return task


#: kind -> (task fn, tasks whose first attempt misbehaves, policy,
#: injected incidents of that kind)
_INJECTIONS = {
    "retry": (_raise_once, (1, 2), FaultPolicy(retries=1, backoff=0.0), 2),
    "worker_crash": (_break_once, (1,),
                     FaultPolicy(retries=1, backoff=0.0), 1),
    "timeout": (_stall_once, (1,),
                FaultPolicy(retries=1, backoff=0.0, timeout=1.0), 1),
    "degraded": (_break_in_workers, (),
                 FaultPolicy(backoff=0.0, on_worker_failure="serial"), 1),
}

_KIND_COUNTERS = {
    "retry": "executor.retries",
    "worker_crash": "executor.worker_crashes",
    "timeout": "executor.timeouts",
    "degraded": "executor.degraded_runs",
}


class TestFaultRecordsAgree:
    """Every fault incident lands once in each of the observer's three
    records: the ``executor.*`` counter, the ``executor.fault`` runlog
    events, and the ``runtime.<stage>`` span's ``fault_events``."""

    @pytest.mark.parametrize("kind", sorted(_INJECTIONS))
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_counter_events_and_span_match_injected(self, tmp_path,
                                                    backend, kind):
        fn, armed, policy, injected = _INJECTIONS[kind]
        flag = str(tmp_path / "flag")
        for task in armed:
            open(f"{flag}-{task}", "w").close()
        observer = Observer()
        with Runtime(backend=backend, max_workers=2, chunk_size=1,
                     observer=observer, faults=policy) as runtime:
            results = runtime.map(fn, range(4), shared=flag, stage="matrix")
        assert results == [0, 1, 2, 3]

        counted = observer.metrics.snapshot().get(_KIND_COUNTERS[kind], 0)
        logged = [event for event in observer.runlog.events
                  if event["kind"] == "executor.fault"
                  and event["fault"] == kind]
        (span,) = observer.tracer.roots
        assert span.name == "runtime.matrix"
        on_span = [entry for entry in span.attrs.get("fault_events", [])
                   if entry["kind"] == kind]
        assert counted == len(logged) == len(on_span) == injected


# --- policy surface and validation -----------------------------------------

class TestFaultPolicy:
    def test_defaults(self):
        policy = resolve_fault_policy(None)
        assert policy.retries == 1
        assert policy.on_worker_failure == "retry"

    def test_dict_and_override(self):
        policy = resolve_fault_policy({"retries": 4},
                                      on_worker_failure="serial")
        assert policy.retries == 4
        assert policy.on_worker_failure == "serial"

    @pytest.mark.parametrize("bad", [
        {"retries": -1},
        {"backoff": -0.5},
        {"timeout": 0.0},
        {"on_worker_failure": "shrug"},
        {"max_worker_crashes": -2},
        {"no_such_field": 1},
    ])
    def test_invalid_policies_rejected(self, bad):
        with pytest.raises(ValidationError):
            resolve_fault_policy(bad)

    def test_non_policy_rejected(self):
        with pytest.raises(ValidationError):
            resolve_fault_policy(3.14)

    def test_cannot_override_shared_runtime_policy(self, small_game):
        from repro.importance import Utility
        from repro.runtime import resolve_runtime

        with Runtime(backend="serial") as runtime:
            with pytest.raises(ValidationError):
                resolve_runtime(runtime, faults={"retries": 5})
            with pytest.raises(ValidationError):
                Utility(CrashyNearestMean(), *small_game, runtime=runtime,
                        faults={"retries": 5})

    def test_utility_builds_runtime_with_policy(self, small_game):
        from repro.importance import Utility

        with Utility(CrashyNearestMean(), *small_game, runtime="serial",
                     faults={"retries": 7}) as utility:
            assert utility.runtime.faults.retries == 7


# --- executor lifetime (the pool-leak satellite) ----------------------------

class TestExecutorLifetime:
    def test_utility_context_manager_closes_owned_runtime(self, small_game):
        from repro.importance import Utility

        with Utility(CrashyNearestMean(), *small_game,
                     runtime="thread") as utility:
            utility.evaluate_many([np.arange(10), np.arange(5)])
            assert utility.runtime.executor._pool is not None
        assert utility.runtime.executor._pool is None

    def test_utility_leaves_shared_runtime_open(self, small_game):
        from repro.importance import Utility

        with Runtime(backend="thread", max_workers=2) as runtime:
            with Utility(CrashyNearestMean(), *small_game,
                         runtime=runtime) as utility:
                utility.evaluate_many([np.arange(10), np.arange(5)])
            # The caller's runtime survives the utility's exit.
            assert runtime.map(_double, range(3), stage="still-open") \
                == [0, 2, 4]

    def test_garbage_collected_runtime_closes_its_pool(self):
        runtime = Runtime(backend="thread", max_workers=2)
        runtime.map(_double, range(4), stage="warm")
        executor = runtime.executor
        assert executor._pool is not None
        del runtime
        gc.collect()
        assert executor._pool is None

    def test_sharded_unlearner_close_releases_pool(self, small_game):
        from repro.unlearning import ShardedUnlearner

        X_train, y_train, _, _ = small_game
        with ShardedUnlearner(CrashyNearestMean(), n_shards=2, seed=0,
                              runtime="thread") as unlearner:
            unlearner.fit(X_train, y_train)
            assert unlearner.runtime.executor._pool is not None
        assert unlearner.runtime.executor._pool is None
