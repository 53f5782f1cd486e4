"""The thread backend's pool under abandonment.

A chunk abandoned on timeout gives its thread's place to a new worker.
Timeouts that fire while tasks are finishing make that hand-over race
the task's own completion; whichever wins, the pool must keep exactly
its configured number of workers, and no thread may outlive
``close()`` once the abandoned tasks have returned.
"""

import sys
import threading
import time

from repro.runtime import FaultPolicy, ThreadExecutor


def _first_attempt_slow(shared, task):
    """A task's first attempt sleeps around the timeout; retries are
    quick, so every task completes."""
    sleeps, attempts, lock = shared
    with lock:
        attempts[task] = attempts.get(task, 0) + 1
        first = attempts[task] == 1
    if first:
        time.sleep(sleeps[task % len(sleeps)])
    return task * task


def test_abandon_racing_completion_keeps_the_worker_count():
    baseline = threading.active_count()
    # First attempts straddle the timeout, so some chunks are abandoned
    # just as they return; more workers than cores, and a short switch
    # interval, interleave the hand-over with completions.
    sleeps = (0.0, 0.05, 0.08, 0.1, 0.12, 0.15)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    executor = ThreadExecutor(max_workers=4)
    outcomes = []

    def run():
        for _ in range(3):
            shared = (sleeps, {}, threading.Lock())
            outcomes.append(executor.map(
                _first_attempt_slow, range(24), shared=shared, chunk_size=1,
                faults=FaultPolicy(retries=1, backoff=0.0, timeout=0.1)))
            outcomes.append(len(executor._pool._threads))

    driver = threading.Thread(target=run, daemon=True)
    try:
        driver.start()
        driver.join(timeout=30)  # a pool that lost workers stalls here
        assert not driver.is_alive()
    finally:
        sys.setswitchinterval(interval)
        executor.close(wait=not driver.is_alive())
    assert outcomes == [[task * task for task in range(24)], 4] * 3
    deadline = time.monotonic() + 5
    while threading.active_count() > baseline \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline
