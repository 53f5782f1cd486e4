"""A pooled ``map`` must not keep its results alive after it returns.

Results are freed by reference counting alone: the test disables the
cyclic garbage collector, so a reference cycle inside the executor's
collection loop (which would hold the results until the next GC pass)
shows up as a live weak reference.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    TaskError,
    ThreadExecutor,
)


def _array(shared, task):
    return np.full(4, task)


@pytest.fixture()
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("executor_cls",
                         [SerialExecutor, ThreadExecutor, ProcessExecutor])
def test_results_freed_once_caller_drops_them(no_gc, executor_cls):
    with executor_cls(max_workers=2) as executor:
        results = executor.map(_array, range(6), chunk_size=1)
        refs = [weakref.ref(result) for result in results]
        del results
        assert sum(ref() is not None for ref in refs) == 0


_MADE = []


def _tracked(shared, task):
    if task == 3:
        raise ValueError("task 3 failed")
    array = np.full(4, task)
    _MADE.append(weakref.ref(array))
    return array


def test_partial_results_freed_after_failed_map(no_gc):
    _MADE.clear()
    with ThreadExecutor(max_workers=2) as executor:
        with pytest.raises(TaskError):
            executor.map(_tracked, range(6), chunk_size=1,
                         faults={"retries": 0})
        assert _MADE
        assert sum(ref() is not None for ref in _MADE) == 0


def test_unconsumed_results_freed_after_closed_stream(no_gc):
    _MADE.clear()
    with ThreadExecutor(max_workers=2) as executor:
        stream = executor.imap(_tracked, [0, 1, 2], chunk_size=1, inflight=3)
        next(stream)
        stream.close()
        del stream
        assert _MADE
        assert sum(ref() is not None for ref in _MADE) == 0
