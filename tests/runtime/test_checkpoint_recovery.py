"""Checkpoint store edge cases: foreign files in the store directory,
and a shutdown signal that lands while the main thread holds a lock the
flush needs, with no armed guard open to unwind it."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.observe import global_registry
from repro.runtime import (
    CheckpointStore,
    checkpoint,
    register_shutdown_flush,
    unregister_shutdown_flush,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestRecordNames:
    def test_stray_file_does_not_reset_the_sequence(self, tmp_path):
        """A stray ``ckpt-backup.json`` beside a store at seq 7 used to
        send new writes to low sequence numbers that the keep-N prune
        deleted at once, silently pinning resume to the old record."""
        store = CheckpointStore(tmp_path)
        for completed in range(8):
            store.write("demo", {"completed": completed})
        (tmp_path / "ckpt-backup.json").write_text("{}")
        written = [store.write("demo", {"completed": completed})
                   for completed in range(8, 12)]
        assert [record.seq for record in written] == [8, 9, 10, 11]
        assert written[-1].path.exists()
        assert store.load_latest("demo").payload["completed"] == 11
        assert (tmp_path / "ckpt-backup.json").exists()
        assert len(store) == 3

    def test_sequence_order_past_eight_digits(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=5)
        for seq in (99_999_998, 99_999_999, 100_000_000):
            (tmp_path / f"ckpt-{seq:08d}.json").write_text("{}")
        assert [path.name for path in store.record_paths()] == [
            "ckpt-99999998.json", "ckpt-99999999.json",
            "ckpt-100000000.json"]
        assert store.write("demo", {"completed": 1}).seq == 100_000_001


class TestBoundedUnguardedFlush:
    def test_overrunning_hook_is_skipped_and_counted(self):
        release = threading.Event()
        ran = []
        before = global_registry().snapshot().get(
            "checkpoint.flush_skipped", 0)
        handles = [register_shutdown_flush(release.wait),
                   register_shutdown_flush(lambda: ran.append(True))]
        try:
            checkpoint._run_flush_hooks(timeout=1.0)
        finally:
            release.set()
            for handle in handles:
                unregister_shutdown_flush(handle)
        assert ran == [True]
        # The count is itself taken on a bounded helper thread.
        deadline = time.monotonic() + 5
        while global_registry().snapshot().get(
                "checkpoint.flush_skipped", 0) == before:
            assert time.monotonic() < deadline, "skip never counted"
            time.sleep(0.01)
        assert global_registry().snapshot()["checkpoint.flush_skipped"] \
            == before + 1


_UNGUARDED_LOCK_HELD_DRIVER = '''\
"""SIGTERM while the main thread holds the store lock, with the flush
hooks registered directly (no armed guard to unwind to)."""
import os
import signal
import sys
import time
from pathlib import Path

from repro.runtime import CheckpointStore, register_shutdown_flush

store = CheckpointStore(sys.argv[1])
register_shutdown_flush(lambda: store.write("demo", {"completed": 5}))
register_shutdown_flush(lambda: Path(sys.argv[2]).write_text("flushed"))
with store._lock:
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(60)
'''


class TestUnguardedShutdownUnderLock:
    def test_sigterm_under_lock_skips_the_blocked_hook_and_exits(
            self, tmp_path):
        """The hook that needs the held lock is abandoned after its
        bound; the other hook still flushes, and the process dies by
        SIGTERM instead of deadlocking in the handler."""
        driver = tmp_path / "unguarded_lock_held.py"
        driver.write_text(_UNGUARDED_LOCK_HELD_DRIVER)
        store_dir, flushed = tmp_path / "store", tmp_path / "flushed.txt"
        process = subprocess.Popen(
            [sys.executable, str(driver), str(store_dir), str(flushed)],
            env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path)
        try:
            returncode = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()  # a deadlocked handler ignores SIGTERM
            process.wait()
            pytest.fail("SIGTERM under the store lock deadlocked the flush")
        assert returncode == -signal.SIGTERM
        assert flushed.read_text() == "flushed"
        assert CheckpointStore(store_dir).load_latest("demo") is None
