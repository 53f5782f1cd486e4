"""The checkpoint journal: torn tails, tampered records, concurrent
appenders, compaction races, a full disk, legacy stores, and what one
append costs in file-system calls.

Every record of a :class:`~repro.runtime.CheckpointStore` is one line of
``records.jsonl``, appended under an exclusive ``flock``. These tests
pin the three mechanisms that make that safe: the torn-tail cut (a
writer killed mid-append must not swallow the next record), the inode
re-check (an append must not land in a journal a compaction already
replaced), and the lock itself (two writers never interleave or share
a sequence number).
"""

import errno
import fcntl
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.observe import Observer
from repro.runtime import CHECKPOINT_SCHEMA, CheckpointStore, checkpoint
from repro.runtime.checkpoint import _COMPACT_SLACK
from repro.runtime.durable import _SLOW_PUBLISH_ENV, decode_envelope, \
    encode_envelope
from tests.journal import journal_lines, rewrite_journal, truncate_newest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _store(path, n=3, keep=3) -> CheckpointStore:
    store = CheckpointStore(path, keep=keep)
    for i in range(n):
        store.write("demo", {"completed": i})
    return store


def _seqs(path) -> list[int]:
    """Every journal line's seq; each line must verify."""
    return [decode_envelope(line, CHECKPOINT_SCHEMA)[0]["seq"]
            for line in journal_lines(path)]


class TestTornTail:
    @pytest.mark.parametrize("tear", ["half_line", "bytes_after_newline"])
    def test_torn_tail_falls_back_then_next_write_cuts_it(self, tmp_path,
                                                          tear):
        store = _store(tmp_path)
        if tear == "half_line":
            truncate_newest(tmp_path)  # the newest record, half written
            survivor = 1
        else:
            rewrite_journal(tmp_path, journal_lines(tmp_path),
                            tail=b'{"schema": 1, "seq": 3')
            survivor = 2
        obs = Observer()
        assert store.load_latest("demo", observer=obs).payload[
            "completed"] == survivor
        assert obs.metrics.snapshot()["checkpoint.corrupt_records"] == 1

        record = CheckpointStore(tmp_path).write("demo", {"completed": 9})
        obs = Observer()
        loaded = store.load_latest("demo", observer=obs)
        assert loaded.payload["completed"] == 9
        assert loaded.seq == record.seq == survivor + 1
        assert "checkpoint.corrupt_records" not in obs.metrics.snapshot()
        assert _seqs(tmp_path) == list(range(survivor + 2))
        assert store.journal.read_bytes().endswith(b"\n")


class TestTamperedRecord:
    def test_tampered_middle_record_is_skipped_and_counted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("a", {"completed": 0})
        store.write("a", {"completed": 1})
        store.write("b", {"completed": 2})
        lines = journal_lines(tmp_path)
        envelope = json.loads(lines[1])
        envelope["payload"] = json.dumps({"completed": 999})
        lines[1] = json.dumps(envelope).encode()
        rewrite_journal(tmp_path, lines)

        obs = Observer()
        record = store.load_latest("a", observer=obs)
        assert record.payload["completed"] == 0
        assert obs.metrics.snapshot()["checkpoint.corrupt_records"] == 1
        (event,) = [e for e in obs.as_dict()["events"]
                    if e["kind"] == "executor.checkpoint_corrupt"]
        assert event["path"] == str(store.journal)
        assert event["offset"] == len(lines[0]) + 1
        # the newest record of the other kind was never in doubt
        assert store.load_latest("b").payload["completed"] == 2


_APPENDER = '''\
import sys

from repro.runtime import CheckpointStore

store = CheckpointStore(sys.argv[1], keep=1000)
name = sys.argv[2]
for i in range(200):
    store.write("demo", {"writer": name, "i": i})
'''


class TestConcurrentAppenders:
    def test_two_processes_append_200_records_each(self, tmp_path):
        script = tmp_path / "appender.py"
        script.write_text(_APPENDER)
        store_dir = tmp_path / "store"
        env = dict(os.environ, PYTHONPATH=SRC)
        processes = [subprocess.Popen(
            [sys.executable, str(script), str(store_dir), name], env=env)
            for name in ("a", "b")]
        for process in processes:
            assert process.wait(timeout=120) == 0

        lines = journal_lines(store_dir)
        assert len(lines) == 400
        assert _seqs(store_dir) == list(range(400))
        payloads = [decode_envelope(line, CHECKPOINT_SCHEMA)[1]
                    for line in lines]
        for name in ("a", "b"):
            assert [p["i"] for p in payloads if p["writer"] == name] \
                == list(range(200))


class TestCompactionRace:
    def test_append_after_a_concurrent_compaction_is_kept(
            self, tmp_path, monkeypatch):
        """Handle ``b`` opens the journal, then ``a`` compacts it
        before ``b`` gets the lock: ``b``'s record must land in the
        new journal, not in the file the compaction replaced."""
        a = _store(tmp_path, n=2 + _COMPACT_SLACK, keep=2)
        b = CheckpointStore(tmp_path, keep=2)
        real_flock = fcntl.flock
        compacted = []

        def flock(fd, operation):
            if operation == fcntl.LOCK_EX and not compacted:
                compacted.append(None)  # a's own flock must not recurse
                compacted[0] = a.write("demo", {"who": "a"})
            return real_flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock)
        record = b.write("demo", {"who": "b"})
        monkeypatch.undo()

        assert record.seq == compacted[0].seq + 1
        assert a.load_latest("demo").payload == {"who": "b"}
        assert _seqs(tmp_path) == [record.seq - 2, record.seq - 1,
                                   record.seq]

    def test_threads_appending_across_compactions_lose_nothing(
            self, tmp_path):
        """Four handles on four threads append across several
        compactions: the journal ends holding the newest records with
        consecutive seqs, and every record a writer returned is either
        still there unchanged or older than the journal's oldest."""
        keep, per_writer = 2, 60
        written = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def work(name):
                store = CheckpointStore(tmp_path, keep=keep)
                for i in range(per_writer):
                    written.append(store.write("demo", {"w": name, "i": i}))

            threads = [threading.Thread(target=work, args=(name,))
                       for name in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old_interval)

        total = 4 * per_writer
        assert sorted(r.seq for r in written) == list(range(total))
        seqs = _seqs(tmp_path)
        assert seqs == list(range(total - len(seqs), total))
        assert len(seqs) <= keep + _COMPACT_SLACK
        on_disk = {decode_envelope(line, CHECKPOINT_SCHEMA)[0]["seq"]:
                   decode_envelope(line, CHECKPOINT_SCHEMA)[1]
                   for line in journal_lines(tmp_path)}
        for record in written:
            if record.seq >= seqs[0]:
                assert on_disk[record.seq] == record.payload


class TestFork:
    def test_child_forked_mid_write_does_not_keep_the_lock(
            self, tmp_path, monkeypatch):
        """A process-pool worker forked while a write holds the journal
        lock shares that lock's open file; it must close its copy, or
        every later write would block for the worker's lifetime."""
        store = _store(tmp_path, n=1)
        real_append = checkpoint.append
        children = []

        def append_then_fork(fd, data):
            real_append(fd, data)
            pid = os.fork()
            if pid == 0:  # a long-lived worker that never touches it
                time.sleep(60)
                os._exit(0)
            children.append(pid)

        monkeypatch.setattr(checkpoint, "append", append_then_fork)
        store.write("demo", {"completed": 1})
        monkeypatch.undo()
        try:
            writer = threading.Thread(target=lambda: CheckpointStore(
                tmp_path).write("demo", {"completed": 2}))
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive(), "the forked child held the lock"
        finally:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            writer.join(timeout=30)
        assert _seqs(tmp_path) == [0, 1, 2]


class TestFullDisk:
    def test_enospc_after_a_partial_write_keeps_the_store_usable(
            self, tmp_path, monkeypatch):
        store = _store(tmp_path, n=2)
        real_write = os.write
        calls = []

        def full_disk(fd, data):
            calls.append(len(data))
            if len(calls) == 1:
                return real_write(fd, bytes(data[:len(data) // 2]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full_disk)
        with pytest.raises(OSError) as info:
            store.write("demo", {"completed": 2})
        monkeypatch.undo()
        assert info.value.errno == errno.ENOSPC
        assert len(calls) == 2  # the partial write, then the failure

        obs = Observer()
        assert store.load_latest("demo", observer=obs).payload[
            "completed"] == 1
        assert "checkpoint.corrupt_records" not in obs.metrics.snapshot()
        assert store.write("demo", {"completed": 3}).seq == 2
        assert store.load_latest("demo").payload["completed"] == 3
        assert _seqs(tmp_path) == [0, 1, 2]


class TestLegacyStore:
    def _legacy(self, path, seqs, kind="demo"):
        for seq in seqs:
            (path / f"ckpt-{seq:08d}.json").write_bytes(encode_envelope(
                CHECKPOINT_SCHEMA, {"completed": seq}, seq=seq, kind=kind))

    def test_legacy_directory_resumes_and_continues(self, tmp_path):
        self._legacy(tmp_path, [4, 5, 6])
        (tmp_path / "ckpt-00000006.json").write_text("torn")
        store = CheckpointStore(tmp_path)
        obs = Observer()
        record = store.load_latest("demo", observer=obs)
        assert record.payload["completed"] == 5
        assert record.path == tmp_path / "ckpt-00000005.json"
        assert obs.metrics.snapshot()["checkpoint.corrupt_records"] == 1

        written = store.write("demo", {"completed": 7})
        assert written.seq == 7  # past every legacy name, even the torn
        assert store.load_latest("demo").payload["completed"] == 7
        assert len(list(tmp_path.glob("ckpt-*.json"))) == 3  # untouched

    def test_kind_missing_from_journal_falls_back_to_legacy(self, tmp_path):
        self._legacy(tmp_path, [0], kind="old")
        store = CheckpointStore(tmp_path)
        store.write("new", {"completed": 1})
        assert store.load_latest("old").payload["completed"] == 0
        assert store.load_latest("new").seq == 1
        store.clear()
        assert len(store) == 0
        assert store.load_latest() is None


class TestWritePath:
    def test_appends_make_no_rename_listing_or_unlink(self, tmp_path,
                                                      monkeypatch):
        """50 writes that cross no compaction: 50 fdatasyncs and
        nothing else that touches the directory."""
        store = CheckpointStore(tmp_path)
        store.write("demo", {"completed": 0})  # creates the journal
        calls = {name: 0 for name in (
            "replace", "rename", "scandir", "listdir", "unlink", "remove",
            "fsync", "fdatasync", "mkstemp")}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in calls:
            counting(tempfile if name == "mkstemp" else os, name)
        other = CheckpointStore(tmp_path)
        for i in range(1, 51):
            # alternate handles: half the writes re-read the journal
            (store if i % 4 else other).write("demo", {"completed": i})
        monkeypatch.undo()
        assert calls == dict.fromkeys(calls, 0) | {"fdatasync": 50}
        assert _seqs(tmp_path) == list(range(51))


class TestObservability:
    def test_write_and_compact_spans_and_counter(self, tmp_path):
        obs = Observer()
        store = CheckpointStore(tmp_path, keep=2, observer=obs)
        n = 2 + _COMPACT_SLACK + 1
        for i in range(n):
            store.write("demo", {"completed": i})

        def names(spans):
            for span in spans:
                yield span["name"]
                yield from names(span.get("children", []))

        spans = list(names(obs.as_dict()["spans"]))
        assert spans.count("checkpoint.write") == n
        assert spans.count("checkpoint.compact") == 1
        metrics = obs.metrics.snapshot()
        assert metrics["checkpoint.compactions"] == 1
        assert metrics["checkpoint.writes"] == n


_STALLED_WRITER = '''\
import sys

from repro.runtime import CheckpointStore

CheckpointStore(sys.argv[1]).write("demo", {"completed": 99})
'''


class TestWriterKilledMidAppend:
    def test_next_writer_waits_for_the_lock_then_cuts_the_tail(
            self, tmp_path):
        """A writer stalls with half its line on disk (the slow-publish
        seam) while holding the lock. A second writer blocks until the
        first is SIGKILLed, then cuts the torn half and appends."""
        _store(tmp_path, n=2)
        script = tmp_path / "stalled.py"
        script.write_text(_STALLED_WRITER)
        journal = tmp_path / "records.jsonl"
        process = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=SRC, **{_SLOW_PUBLISH_ENV: "60"}))
        writer = None
        try:
            deadline = time.monotonic() + 60
            while journal.read_bytes().endswith(b"\n"):
                assert process.poll() is None, "writer exited early"
                assert time.monotonic() < deadline, "no torn append"
                time.sleep(0.02)
            written = []
            writer = threading.Thread(target=lambda: written.append(
                CheckpointStore(tmp_path).write("demo", {"completed": 2})))
            writer.start()
            writer.join(timeout=0.5)
            assert writer.is_alive(), "appended past a held lock"
        finally:
            process.kill()
            process.wait(timeout=60)
            if writer is not None:
                writer.join(timeout=30)
        assert not writer.is_alive()
        assert written[0].seq == 2
        assert CheckpointStore(tmp_path).load_latest("demo").payload[
            "completed"] == 2
        assert _seqs(tmp_path) == [0, 1, 2]
