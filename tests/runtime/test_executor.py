"""Unit tests for the executor backends."""

import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.runtime import (
    BACKENDS,
    ProcessExecutor,
    ProgressRecorder,
    SerialExecutor,
    TaskError,
    ThreadExecutor,
    get_executor,
)
from repro.runtime.executor import (
    _WORKER_SHARED,
    _WORKER_SHARED_SLOTS,
    _load_shared,
)


def _affine(shared, task):
    scale, offset = shared
    return scale * task + offset


def _failing(shared, task):
    if task == 3:
        raise ValueError("task 3 exploded")
    return task


class TestFactory:
    def test_names_resolve(self):
        for name in BACKENDS:
            executor = get_executor(name)
            assert executor.name == name
            executor.close()

    def test_instance_passes_through(self):
        executor = SerialExecutor()
        assert get_executor(executor) is executor

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            get_executor("gpu")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValidationError):
            ThreadExecutor(max_workers=0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMapContract:
    def test_results_in_task_order(self, backend):
        with get_executor(backend, max_workers=2) as executor:
            out = executor.map(_affine, range(23), shared=(2, 1))
        assert out == [2 * i + 1 for i in range(23)]

    def test_empty_task_list(self, backend):
        with get_executor(backend, max_workers=2) as executor:
            assert executor.map(_affine, [], shared=(1, 0)) == []

    def test_chunk_size_does_not_change_results(self, backend):
        with get_executor(backend, max_workers=2) as executor:
            for chunk_size in (1, 4, 100):
                out = executor.map(_affine, range(11), shared=(3, 0),
                                   chunk_size=chunk_size)
                assert out == [3 * i for i in range(11)]

    def test_worker_error_propagates(self, backend):
        # A deterministic task failure exhausts its retry budget and
        # surfaces as a structured TaskError with the original exception
        # chained as __cause__ (see tests/runtime/test_faults.py).
        with get_executor(backend, max_workers=2) as executor:
            with pytest.raises(TaskError, match="task 3 exploded") as info:
                executor.map(_failing, range(6), shared=None, chunk_size=1,
                             faults={"retries": 0})
        assert info.value.chunk_index == 3
        assert isinstance(info.value.__cause__, ValueError)

    def test_progress_events_cover_all_tasks(self, backend):
        recorder = ProgressRecorder()
        with get_executor(backend, max_workers=2) as executor:
            executor.map(_affine, range(10), shared=(1, 0), chunk_size=3,
                         progress=recorder, stage="affine")
        assert recorder.last is not None
        assert recorder.last.completed == 10
        assert recorder.last.total == 10
        assert recorder.last.stage == "affine"
        assert recorder.last.fraction == 1.0


class TestProcessPoolReuse:
    def test_same_shared_reuses_pool(self):
        executor = ProcessExecutor(max_workers=1)
        try:
            executor.map(_affine, range(3), shared=(1, 0))
            first_pool = executor._pool
            executor.map(_affine, range(3), shared=(1, 0))
            assert executor._pool is first_pool
            # a new payload reuses the one pool too; workers load it
            # from the call's spill file
            assert executor.map(_affine, range(3), shared=(5, 0)) \
                == [0, 5, 10]
            assert executor._pool is first_pool
        finally:
            executor.close()

    def test_numpy_shared_state(self):
        data = np.arange(20.0)
        with ProcessExecutor(max_workers=2) as executor:
            out = executor.map(_sum_slice, [(0, 5), (5, 20)], shared=data)
        assert out == [float(data[:5].sum()), float(data[5:].sum())]

    def test_spill_file_lives_only_for_its_map(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with ProcessExecutor(max_workers=1) as executor:
            assert executor.map(_spill_count, range(3),
                                shared=str(tmp_path)) \
                == [1, 1, 1]  # this map's own spill file, nothing else
            assert os.listdir(tmp_path) == []
            with pytest.raises(TaskError):
                executor.map(_failing, range(5), shared=(1, 0),
                             faults={"retries": 0})
            assert os.listdir(tmp_path) == []

    def test_close_removes_spill_files_of_unfinished_maps(self, tmp_path):
        executor = ProcessExecutor(max_workers=1)
        spill = tmp_path / "repro-shared-abandoned.pkl"
        spill.write_bytes(b"payload")
        executor._spills.add(str(spill))  # as a map cut short by a signal
        executor.close(wait=False)
        assert not spill.exists()

    def test_worker_payload_cache_is_a_bounded_lru(self, tmp_path):
        paths = []
        for i in range(_WORKER_SHARED_SLOTS + 1):
            path = tmp_path / f"spill-{i}"
            path.write_bytes(pickle.dumps(("payload", i)))
            paths.append(str(path))
        try:
            assert _load_shared("d0", paths[0]) == ("payload", 0)
            os.unlink(paths[0])
            assert _load_shared("d0", paths[0]) == ("payload", 0)  # a hit
            for i in range(1, _WORKER_SHARED_SLOTS + 1):
                _load_shared(f"d{i}", paths[i])
                _load_shared("d0", paths[0])  # most recently used stays
            assert list(_WORKER_SHARED)[-1] == "d0"
            assert len(_WORKER_SHARED) == _WORKER_SHARED_SLOTS
            assert "d1" not in _WORKER_SHARED  # least recently used left
        finally:
            _WORKER_SHARED.clear()


def _spill_count(spill_dir, task):
    return len([name for name in os.listdir(spill_dir)
                if name.startswith("repro-shared-")])


def _sum_slice(shared, task):
    lo, hi = task
    return float(shared[lo:hi].sum())
