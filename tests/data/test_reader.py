"""Tests for the fault-tolerant prefetching reading service."""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures.thread import BrokenThreadPool
from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.data import ShardCorruptionError, ShardReader, read_arrays, write_shards
from repro.observe import Observer
from repro.runtime import FaultPolicy, TaskError

SRC = str(Path(__file__).resolve().parents[2] / "src")

class WorkerCrash(BrokenThreadPool):
    """A read that breaks the reader's thread pool — the documented
    crash-injection seam."""


@pytest.fixture()
def dataset(tmp_path, rng):
    X = rng.normal(size=(50, 2))
    y = rng.integers(0, 2, size=50)
    return write_shards(tmp_path / "d", {"X": X, "y": y}, rows_per_shard=7,
                        mirror=True)


def metrics(observer):
    return observer.as_dict()["metrics"]


class FaultySource:
    """Thread-safe per-shard fault scripting for the load_fn seam."""

    def __init__(self, script):
        # script: {shard_index: [exception_or_None, ...]} consumed in order
        self.script = {k: list(v) for k, v in script.items()}
        self.lock = threading.Lock()

    def __call__(self, dataset, index):
        with self.lock:
            queued = self.script.get(index)
            action = queued.pop(0) if queued else None
        if isinstance(action, BaseException):
            raise action
        if action == "hang":
            time.sleep(10)
        return dataset.load_shard(index)


class TestBasicStreaming:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_manifest_order_any_worker_count(self, dataset, workers):
        with ShardReader(dataset, workers=workers) as reader:
            indices = [batch.index for batch in reader]
        assert indices == list(range(dataset.n_shards))

    def test_read_arrays_bit_identical(self, dataset):
        direct = {name: np.concatenate(
            [dataset.load_shard(i)[name] for i in range(dataset.n_shards)])
            for name in dataset.array_names}
        out = read_arrays(dataset, workers=3, prefetch=2)
        for name in direct:
            assert out[name].tobytes() == direct[name].tobytes()

    def test_batch_offsets_and_rows(self, dataset):
        offset = 0
        for batch in ShardReader(dataset, workers=2):
            assert batch.offset == offset
            assert batch.rows == len(batch["X"])
            offset += batch.rows
        assert offset == dataset.n_rows

    def test_backpressure_bounds_resident_shards(self, dataset):
        """Reads stall at ``prefetch`` windows instead of reading the
        whole dataset ahead of a slow consumer."""
        loads = []

        def counting_load(dataset, index):
            loads.append(index)
            return dataset.load_shard(index)

        reader = ShardReader(dataset, workers=1, prefetch=2,
                             load_fn=counting_load)
        iterator = iter(reader)
        next(iterator)
        time.sleep(0.5)  # give the workers time to read further ahead
        # prefetch windows of workers shards, the delivered one's included
        assert len(loads) <= 1 * 2
        reader.close()

    def test_next_window_read_while_consumer_works(self, dataset):
        """Reads overlap the consumer's work: while it holds shard 1,
        the next window (shard 2) is loaded."""
        loads = []

        def counting_load(dataset, index):
            loads.append(index)
            return dataset.load_shard(index)

        with ShardReader(dataset, workers=1, prefetch=2,
                         load_fn=counting_load) as reader:
            iterator = iter(reader)
            assert [next(iterator).index for _ in range(2)] == [0, 1]
            deadline = time.monotonic() + 5
            while len(loads) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert loads == [0, 1, 2]

    def test_reads_run_past_a_held_shard(self, dataset):
        """While shard 0's read is held, the other worker reads every
        shard the ``workers * prefetch`` bound admits: no read waits
        for a slower neighbour to finish."""
        gate = threading.Event()
        loads = []

        def held_load(dataset, index):
            if index == 0:
                gate.wait(30)
            loads.append(index)
            return dataset.load_shard(index)

        reader = ShardReader(dataset, workers=2, prefetch=2,
                             load_fn=held_load)
        delivered = []
        consumer = threading.Thread(
            target=lambda: delivered.extend(b.index for b in reader),
            daemon=True)
        consumer.start()
        try:
            deadline = time.monotonic() + 5
            while len(loads) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)  # room to read past the bound, were there any
            assert sorted(loads) == [1, 2, 3]
        finally:
            gate.set()
            consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert delivered == list(range(dataset.n_shards))

    def test_validation(self, dataset):
        with pytest.raises(ValidationError):
            ShardReader(dataset, workers=0)
        with pytest.raises(ValidationError):
            ShardReader(dataset, prefetch=0)
        with pytest.raises(ValidationError):
            ShardReader(dataset, on_corrupt="explode")
        with pytest.raises(ValidationError):
            ShardReader(dataset, start=dataset.n_shards + 1)


class TestRetries:
    def test_transient_failures_retried(self, dataset):
        source = FaultySource({2: [OSError("transient"), OSError("again")]})
        observer = Observer(run_id="t")
        out = read_arrays(dataset, workers=2, load_fn=source,
                          faults=FaultPolicy(retries=2, backoff=0.0),
                          observer=observer)
        clean = read_arrays(dataset)
        assert out["X"].tobytes() == clean["X"].tobytes()
        assert metrics(observer)["data.read_retries"] == 2

    def test_exhausted_retries_raise_task_error(self, dataset):
        source = FaultySource({1: [OSError("io")] * 5})
        with pytest.raises(TaskError) as excinfo:
            read_arrays(dataset, workers=2, load_fn=source,
                        faults=FaultPolicy(retries=1, backoff=0.0))
        assert excinfo.value.stage == "data.read"
        assert excinfo.value.chunk_index == 1
        assert excinfo.value.backend == "reader"


class TestWorkerCrashes:
    def test_crash_recovers_with_identical_stream(self, dataset):
        source = FaultySource({3: [WorkerCrash("boom")]})
        observer = Observer(run_id="t")
        out = read_arrays(dataset, workers=2, load_fn=source,
                          faults=FaultPolicy(max_worker_crashes=2),
                          observer=observer)
        clean = read_arrays(dataset)
        assert out["X"].tobytes() == clean["X"].tobytes()
        assert metrics(observer)["data.worker_crashes"] == 1
        events = [e for e in observer.as_dict()["events"]
                  if e["kind"] == "reader.fault"]
        assert any(e["fault"] == "worker_crash" for e in events)

    def test_repeated_crashes_exhaust_budget(self, dataset):
        source = FaultySource({1: [WorkerCrash("boom")] * 10})
        with pytest.raises(TaskError) as excinfo:
            read_arrays(dataset, workers=2, load_fn=source,
                        faults=FaultPolicy(max_worker_crashes=1))
        assert excinfo.value.stage == "data.read"

    def test_crash_on_every_worker(self, dataset):
        script = {i: [WorkerCrash(f"w{i}")]
                  for i in range(min(2, dataset.n_shards))}
        out = read_arrays(dataset, workers=2, load_fn=FaultySource(script),
                          faults=FaultPolicy(max_worker_crashes=4))
        assert out["X"].shape == (dataset.n_rows, 2)


class TestTimeouts:
    def test_stuck_worker_abandoned_and_lane_respawned(self, dataset):
        source = FaultySource({0: ["hang"]})
        observer = Observer(run_id="t")
        out = read_arrays(dataset, workers=2, load_fn=source,
                          faults=FaultPolicy(timeout=0.4,
                                             max_worker_crashes=2),
                          observer=observer)
        clean = read_arrays(dataset)
        assert out["X"].tobytes() == clean["X"].tobytes()
        assert metrics(observer)["data.read_timeouts"] == 1

    def test_stuck_read_recovers_with_one_worker(self, dataset):
        """The abandoned read keeps its thread, but a new worker takes
        its place, so the retry runs."""
        source = FaultySource({0: ["hang"]})
        out = read_arrays(dataset, workers=1, load_fn=source,
                          faults=FaultPolicy(timeout=0.4))
        clean = read_arrays(dataset)
        for name in clean:
            assert out[name].tobytes() == clean[name].tobytes()


#: The reader's cell of the fault matrix: kind -> (script, policy,
#: counter). Each script injects exactly one incident of its kind.
_INJECTIONS = {
    "retry": ({2: [OSError("transient")]},
              FaultPolicy(retries=1, backoff=0.0), "data.read_retries"),
    "worker_crash": ({3: [WorkerCrash("boom")]},
                     FaultPolicy(max_worker_crashes=2),
                     "data.worker_crashes"),
    "timeout": ({0: ["hang"]}, FaultPolicy(timeout=0.4),
                "data.read_timeouts"),
}


class TestFaultMatrix:
    """Every injected reader fault lands once in the ``data.*`` counter
    and once as a ``reader.fault`` event, and the bytes are those of a
    clean read."""

    @pytest.mark.parametrize("kind", sorted(_INJECTIONS))
    def test_counter_and_events_match_injected(self, dataset, kind):
        script, policy, counter = _INJECTIONS[kind]
        observer = Observer(run_id="t")
        out = read_arrays(dataset, workers=2, load_fn=FaultySource(script),
                          faults=policy, observer=observer)
        clean = read_arrays(dataset)
        for name in clean:
            assert out[name].tobytes() == clean[name].tobytes()
        logged = [e for e in observer.as_dict()["events"]
                  if e["kind"] == "reader.fault" and e["fault"] == kind]
        assert metrics(observer)[counter] == len(logged) == 1

    def test_crash_budget_spans_windows(self, dataset):
        """One crash in each of two windows exceeds a per-pass budget of
        one; a budget reset per window would let both through."""
        # windows of workers = 2 shards: 0 and 2 are in different windows
        source = FaultySource({0: [WorkerCrash("first")],
                               2: [WorkerCrash("second")]})
        with pytest.raises(TaskError) as excinfo:
            read_arrays(dataset, workers=2, prefetch=1, load_fn=source,
                        faults=FaultPolicy(max_worker_crashes=1))
        assert excinfo.value.chunk_index == 2
        assert excinfo.value.backend == "reader"


class TestLifecycle:
    def test_finished_reader_leaves_no_threads(self, dataset):
        baseline = threading.active_count()
        read_arrays(dataset, workers=3)
        assert threading.active_count() <= baseline

    def test_close_does_not_wait_on_stuck_read(self, dataset):
        source = FaultySource({0: ["hang"]})  # the load sleeps 10 s
        started = time.monotonic()
        read_arrays(dataset, workers=2, load_fn=source,
                    faults=FaultPolicy(timeout=0.4))
        assert time.monotonic() - started < 5

    def test_stuck_read_does_not_hold_process_exit(self, tmp_path):
        """A read that hangs far past its timeout neither blocks
        ``read_arrays`` nor keeps the process from exiting."""
        script = (
            "import sys, time\n"
            "import numpy as np\n"
            "from repro.data import read_arrays, write_shards\n"
            "from repro.runtime import FaultPolicy\n"
            "X = np.arange(20.0)\n"
            "ds = write_shards(sys.argv[1], {'X': X}, rows_per_shard=5)\n"
            "hung = []\n"
            "def load(dataset, index):\n"
            "    if index == 0 and not hung:\n"
            "        hung.append(index)\n"
            "        time.sleep(120)\n"
            "    return dataset.load_shard(index)\n"
            "out = read_arrays(ds, workers=1, load_fn=load,\n"
            "                  faults=FaultPolicy(timeout=0.3))\n"
            "assert out['X'].tobytes() == X.tobytes()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", script,
                               str(tmp_path / "d")], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert time.monotonic() - started < 30


class TestCorruptShards:
    def corrupt(self, dataset, index):
        path = dataset.shard_path(index)
        path.write_bytes(path.read_bytes()[:-4] + b"XXXX")

    def test_raise_policy_propagates(self, dataset):
        self.corrupt(dataset, 2)
        with pytest.raises(ShardCorruptionError):
            read_arrays(dataset, workers=2, faults=FaultPolicy(retries=0))

    def test_quarantine_heals_from_mirror_bit_identical(self, dataset):
        clean = read_arrays(dataset)
        self.corrupt(dataset, 2)
        observer = Observer(run_id="t")
        out = read_arrays(dataset, workers=2, on_corrupt="quarantine",
                          faults=FaultPolicy(retries=0), observer=observer)
        assert out["X"].tobytes() == clean["X"].tobytes()
        assert metrics(observer)["data.shards_healed"] == 1
        # only the healed shard is read again, not its whole window
        assert metrics(observer)["data.shards_read"] == dataset.n_shards
        assert dataset.verify_all() == []  # the primary was re-published

    def test_shard_still_corrupt_after_heal_is_quarantined(self, dataset):
        """A heal that does not cure the read (here, a load path that
        keeps failing) is tried once; the shard is then quarantined
        instead of healed and re-read forever."""
        source = FaultySource({2: [ShardCorruptionError("bad", index=2)]
                               * 5})
        observer = Observer(run_id="t")
        reader = ShardReader(dataset, workers=2, load_fn=source,
                             on_corrupt="quarantine",
                             faults=FaultPolicy(retries=0),
                             observer=observer)
        indices = [batch.index for batch in reader]
        assert indices == [i for i in range(dataset.n_shards) if i != 2]
        assert reader.quarantined == [2]
        assert metrics(observer)["data.shards_healed"] == 1
        assert metrics(observer)["data.quarantined_shards"] == 1

    def test_quarantine_skips_without_mirror(self, tmp_path, rng):
        X = rng.normal(size=(30, 2))
        dataset = write_shards(tmp_path / "nm", {"X": X}, rows_per_shard=6)
        self.corrupt(dataset, 1)
        observer = Observer(run_id="t")
        reader = ShardReader(dataset, workers=2, on_corrupt="quarantine",
                             faults=FaultPolicy(retries=0),
                             observer=observer)
        out = reader.read_all()
        expected = np.concatenate([X[:6], X[12:]])
        assert out["X"].tobytes() == expected.tobytes()
        assert reader.quarantined == [1]
        assert (dataset.path / "quarantine" / dataset.shards[1].name).exists()
        assert metrics(observer)["data.quarantined_shards"] == 1


class TestPauseResume:
    def test_pause_blocks_prefetch(self, dataset):
        reader = ShardReader(dataset, workers=2, prefetch=1)
        iterator = iter(reader)
        next(iterator)
        reader.pause()
        assert reader.paused
        reader.resume()
        remaining = [batch.index for batch in iterator]
        assert remaining == list(range(1, dataset.n_shards))

    def test_pause_does_not_trip_timeout(self, dataset):
        """The consumer's stuck-worker clock must not tick while the
        stream is deliberately paused."""
        reader = ShardReader(dataset, workers=1, prefetch=1,
                             faults=FaultPolicy(timeout=0.3))
        iterator = iter(reader)
        reader.pause()
        consumer_error = []

        def consume():
            try:
                consumer_error.append([b.index for b in iterator])
            except Exception as error:  # pragma: no cover
                consumer_error.append(error)

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.8)  # well past the timeout while paused
        reader.resume()
        thread.join(timeout=10)
        assert consumer_error and isinstance(consumer_error[0], list)


class TestSnapshot:
    def test_snapshot_resume_continues_exactly(self, dataset):
        reader = ShardReader(dataset, workers=2)
        iterator = iter(reader)
        first = [next(iterator).index, next(iterator).index]
        state = reader.snapshot()
        reader.close()

        resumed = ShardReader.from_snapshot(dataset, state, workers=3)
        rest = [batch.index for batch in resumed]
        assert first + rest == list(range(dataset.n_shards))

    def test_snapshot_event_emitted(self, dataset):
        observer = Observer(run_id="t")
        reader = ShardReader(dataset, observer=observer)
        reader.snapshot()
        events = [e for e in observer.as_dict()["events"]
                  if e["kind"] == "reader.snapshot"]
        assert len(events) == 1 and events[0]["next_index"] == 0

    def test_snapshot_carries_quarantine_record(self, tmp_path, rng):
        X = rng.normal(size=(30, 2))
        dataset = write_shards(tmp_path / "nm", {"X": X}, rows_per_shard=6)
        path = dataset.shard_path(0)
        path.write_bytes(b"junk")
        reader = ShardReader(dataset, on_corrupt="quarantine",
                             faults=FaultPolicy(retries=0))
        iterator = iter(reader)
        batch = next(iterator)  # shard 0 quarantined, shard 1 delivered
        assert batch.index == 1 and batch.offset == 6
        state = reader.snapshot()
        reader.close()
        resumed = ShardReader.from_snapshot(dataset, state)
        assert resumed.quarantined == [0]
        assert [b.index for b in resumed] == list(range(2, 5))

    def test_invalid_snapshot_rejected(self, dataset):
        with pytest.raises(ValidationError):
            ShardReader.from_snapshot(dataset, {"next_index": 2})
