"""Durable checkpoint/resume: store semantics, corruption handling,
loop wiring, and the kill-the-driver acceptance scenarios.

The subprocess tests share one driver script (written to ``tmp_path``)
so the model/strategy callables fingerprint identically across the
killed run, the reference run, and the resumed run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.datasets import make_blobs
from repro.importance import MonteCarloShapley, Utility, leave_one_out
from repro.importance.banzhaf import DataBanzhaf
from repro.importance.beta_shapley import BetaShapley
from repro.ml import LogisticRegression
from repro.observe import Observer
from repro.runtime import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    Checkpointable,
    FingerprintCache,
    LoopCheckpointer,
    Runtime,
    resolve_checkpoint_store,
)
from repro.runtime.checkpoint import _COMPACT_SLACK
from tests.journal import (
    journal_lines,
    keep_only_oldest,
    rewrite_journal,
    tamper_newest,
    truncate_newest,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


# --------------------------------------------------------------------------
# store semantics
# --------------------------------------------------------------------------

class TestCheckpointStore:
    def test_write_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        record = store.write("demo", {"completed": 3, "x": [1.5.hex()]})
        assert record.seq == 0
        loaded = store.load_latest("demo")
        assert loaded.payload == {"completed": 3, "x": [1.5.hex()]}
        assert loaded.seq == 0

    def test_newest_record_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(3):
            store.write("demo", {"completed": i})
        assert store.load_latest("demo").payload["completed"] == 2

    def test_prunes_to_keep(self, tmp_path):
        """The journal grows to ``keep`` + slack records; the write that
        crosses the bound compacts it to the newest ``keep``."""
        store = CheckpointStore(tmp_path, keep=2)
        bound = 2 + _COMPACT_SLACK
        for i in range(bound):
            store.write("demo", {"completed": i})
        assert len(store) == bound
        store.write("demo", {"completed": bound})
        assert len(store) == 2
        assert store.load_latest("demo").payload["completed"] == bound
        assert [json.loads(line)["seq"] for line in journal_lines(tmp_path)] \
            == [bound - 1, bound]

    def test_kind_filter(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("a", {"completed": 1})
        store.write("b", {"completed": 2})
        assert store.load_latest("a").payload["completed"] == 1
        assert store.load_latest("b").payload["completed"] == 2

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("demo", {"completed": 1})
        store.clear()
        assert len(store) == 0
        assert store.load_latest("demo") is None

    def test_numpy_payload_coerced(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("demo", {"completed": np.int64(2),
                             "ids": np.arange(3)})
        payload = store.load_latest("demo").payload
        assert payload["completed"] == 2
        assert payload["ids"] == [0, 1, 2]

    def test_invalid_keep_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            CheckpointStore(tmp_path, keep=0)

    def test_resolve(self, tmp_path):
        assert resolve_checkpoint_store(None) is None
        assert resolve_checkpoint_store(False) is None
        store = resolve_checkpoint_store(tmp_path)
        assert isinstance(store, CheckpointStore)
        assert resolve_checkpoint_store(store) is store
        with pytest.raises(ValidationError):
            resolve_checkpoint_store(42)


class TestCorruptionHandling:
    def _store_with_records(self, tmp_path, n=3):
        store = CheckpointStore(tmp_path, keep=n)
        for i in range(n):
            store.write("demo", {"completed": i})
        return store

    def test_truncated_record_falls_back(self, tmp_path):
        store = self._store_with_records(tmp_path)
        newest = store.journal
        offset = sum(len(line) + 1 for line in journal_lines(tmp_path)[:-1])
        truncate_newest(tmp_path)
        obs = Observer()
        record = store.load_latest("demo", observer=obs)
        assert record.payload["completed"] == 1  # last good record
        metrics = obs.as_dict()["metrics"]
        assert metrics["checkpoint.corrupt_records"] == 1
        events = [e for e in obs.as_dict()["events"]
                  if e["kind"] == "executor.checkpoint_corrupt"]
        assert len(events) == 1
        assert events[0]["path"] == str(newest)
        assert events[0]["offset"] == offset

    def test_hash_mismatch_detected(self, tmp_path):
        store = self._store_with_records(tmp_path)

        def tamper(envelope):
            envelope["payload"] = json.dumps({"completed": 999})

        tamper_newest(tmp_path, tamper)
        assert store.load_latest("demo").payload["completed"] == 1

    def test_unknown_schema_skipped(self, tmp_path):
        store = self._store_with_records(tmp_path)

        def bump(envelope):
            envelope["schema"] = CHECKPOINT_SCHEMA + 1

        tamper_newest(tmp_path, bump)
        assert store.load_latest("demo").payload["completed"] == 1

    def test_all_corrupt_returns_none(self, tmp_path):
        store = self._store_with_records(tmp_path)
        rewrite_journal(tmp_path, [b"not json at all"] * 3)
        obs = Observer()
        assert store.load_latest("demo", observer=obs) is None
        assert obs.as_dict()["metrics"]["checkpoint.corrupt_records"] == 3


# --------------------------------------------------------------------------
# the loop driver
# --------------------------------------------------------------------------

class TestLoopCheckpointer:
    def test_cadence(self, tmp_path):
        ckpt = LoopCheckpointer(tmp_path, kind="demo", identity="id",
                                every=3)
        state = {"completed": 0}
        ckpt.arm(lambda: dict(state))
        for i in range(1, 8):
            state["completed"] = i
            ckpt.maybe_flush(i)
        # first flush at 1 (nothing flushed yet), then 4, then 7
        assert ckpt.store.load_latest("demo").payload["completed"] == 7
        assert len(ckpt.store) == 3

    def test_flush_dedups_unchanged_state(self, tmp_path):
        ckpt = LoopCheckpointer(tmp_path, kind="demo", identity="id")
        ckpt.arm(lambda: {"completed": 5})
        ckpt.flush()
        ckpt.flush()
        assert len(ckpt.store) == 1

    def test_identity_mismatch_rejected(self, tmp_path):
        ckpt = LoopCheckpointer(tmp_path, kind="demo", identity="job-a")
        ckpt.arm(lambda: {"completed": 1})
        ckpt.flush()
        other = LoopCheckpointer(None, kind="demo", identity="job-b",
                                 resume_from=tmp_path)
        with pytest.raises(ValidationError, match="different job"):
            other.resume()

    def test_resume_accounting(self, tmp_path):
        obs = Observer()
        ckpt = LoopCheckpointer(tmp_path, kind="demo", identity="id")
        ckpt.arm(lambda: {"completed": 4})
        ckpt.flush()
        resumed = LoopCheckpointer(None, kind="demo", identity="id",
                                   observer=obs, resume_from=tmp_path)
        payload = resumed.resume()
        assert payload["completed"] == 4
        resumed.record_skipped(completed=4, total=10)
        data = obs.as_dict()
        assert data["metrics"]["checkpoint.restores"] == 1
        events = [e for e in data["events"]
                  if e["kind"] == "checkpoint.resume"]
        assert events[0]["completed"] == 4 and events[0]["total"] == 10

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            LoopCheckpointer(tmp_path, kind="demo", identity="id", every=0)

    def test_protocol_is_runtime_checkable(self):
        class Loop:
            checkpoint_kind = "demo"

            def checkpoint_state(self):
                return {"completed": 0}

            def restore_state(self, state):
                pass

        assert isinstance(Loop(), Checkpointable)
        assert not isinstance(object(), Checkpointable)


# --------------------------------------------------------------------------
# estimator wiring (in-process, fast)
# --------------------------------------------------------------------------

def _utility(blobs_split, backend="serial"):
    X_train, y_train, X_valid, y_valid = blobs_split
    return Utility(LogisticRegression(max_iter=40), X_train[:24],
                   y_train[:24], X_valid, y_valid,
                   runtime=Runtime(backend=backend,
                                   cache=FingerprintCache()))


class TestEstimatorResume:
    """Partial resume (newest records deleted to simulate a mid-run
    kill) reproduces the uninterrupted run hex-exactly: scores, call
    counts, and cache keys."""

    def _compare(self, blobs_split, make_estimator, tmp_path):
        ref_utility = _utility(blobs_split)
        ref = make_estimator().score(ref_utility)

        full_utility = _utility(blobs_split)
        full = make_estimator(checkpoint=tmp_path).score(full_utility)
        assert np.array_equal(ref, full)

        keep_only_oldest(tmp_path)
        resumed_utility = _utility(blobs_split)
        resumed = make_estimator(resume_from=tmp_path).score(resumed_utility)
        assert [v.hex() for v in resumed] == [v.hex() for v in ref]
        assert resumed_utility.calls == ref_utility.calls
        assert sorted(resumed_utility.runtime.cache.keys()) == \
            sorted(ref_utility.runtime.cache.keys())

    def test_shapley_mc(self, blobs_split, tmp_path):
        def make(**kw):
            return MonteCarloShapley(n_permutations=6, seed=11,
                                     checkpoint_every=2, **kw)
        self._compare(blobs_split, make, tmp_path)

    def test_shapley_mc_with_convergence(self, blobs_split, tmp_path):
        def make(**kw):
            return MonteCarloShapley(n_permutations=8, seed=11,
                                     convergence_tol=1e-6,
                                     convergence_window=2,
                                     checkpoint_every=2, **kw)
        self._compare(blobs_split, make, tmp_path)

    def test_banzhaf(self, blobs_split, tmp_path):
        def make(**kw):
            return DataBanzhaf(n_samples=12, seed=5, checkpoint_every=4,
                               **kw)
        self._compare(blobs_split, make, tmp_path)

    def test_beta_shapley(self, blobs_split, tmp_path):
        def make(**kw):
            return BetaShapley(n_permutations=6, seed=9,
                               checkpoint_every=2, **kw)
        self._compare(blobs_split, make, tmp_path)

    def test_loo(self, blobs_split, tmp_path):
        ref_utility = _utility(blobs_split)
        ref = leave_one_out(ref_utility)
        full_utility = _utility(blobs_split)
        leave_one_out(full_utility, checkpoint=tmp_path, checkpoint_every=8)
        keep_only_oldest(tmp_path)
        resumed_utility = _utility(blobs_split)
        resumed = leave_one_out(resumed_utility, resume_from=tmp_path)
        assert [v.hex() for v in resumed] == [v.hex() for v in ref]
        assert resumed_utility.calls == ref_utility.calls

    def test_resume_across_backends(self, blobs_split, tmp_path):
        """A serial run's checkpoint resumed on thread and process
        backends yields hex-identical scores and call counts."""
        ref_utility = _utility(blobs_split)
        ref = MonteCarloShapley(n_permutations=6, seed=11).score(ref_utility)
        _utility(blobs_split)  # noqa: F841 - symmetry with _compare
        full_utility = _utility(blobs_split)
        MonteCarloShapley(n_permutations=6, seed=11, checkpoint=tmp_path,
                          checkpoint_every=2).score(full_utility)
        keep_only_oldest(tmp_path)
        for backend in ("thread", "process"):
            utility = _utility(blobs_split, backend=backend)
            try:
                resumed = MonteCarloShapley(
                    n_permutations=6, seed=11,
                    resume_from=tmp_path).score(utility)
                assert [v.hex() for v in resumed] == [v.hex() for v in ref]
                assert utility.calls == ref_utility.calls
            finally:
                utility.runtime.close()

    def test_resume_with_changed_fault_policy(self, blobs_split, tmp_path):
        ref_utility = _utility(blobs_split)
        ref = MonteCarloShapley(n_permutations=6, seed=11).score(ref_utility)
        full_utility = _utility(blobs_split)
        MonteCarloShapley(n_permutations=6, seed=11, checkpoint=tmp_path,
                          checkpoint_every=2).score(full_utility)
        keep_only_oldest(tmp_path)
        X_train, y_train, X_valid, y_valid = blobs_split
        utility = Utility(
            LogisticRegression(max_iter=40), X_train[:24], y_train[:24],
            X_valid, y_valid,
            runtime=Runtime(cache=FingerprintCache(),
                            faults={"retries": 4,
                                    "on_worker_failure": "serial"}))
        resumed = MonteCarloShapley(n_permutations=6, seed=11,
                                    resume_from=tmp_path).score(utility)
        assert [v.hex() for v in resumed] == [v.hex() for v in ref]

    def test_corrupt_checkpoint_falls_back(self, blobs_split, tmp_path):
        ref_utility = _utility(blobs_split)
        ref = MonteCarloShapley(n_permutations=6, seed=11).score(ref_utility)
        full_utility = _utility(blobs_split)
        MonteCarloShapley(n_permutations=6, seed=11, checkpoint=tmp_path,
                          checkpoint_every=2).score(full_utility)
        truncate_newest(tmp_path, 40)  # torn write
        obs = Observer()
        utility = _utility(blobs_split)
        resumed = MonteCarloShapley(n_permutations=6, seed=11,
                                    resume_from=tmp_path,
                                    observer=obs).score(utility)
        assert [v.hex() for v in resumed] == [v.hex() for v in ref]
        assert utility.calls == ref_utility.calls
        metrics = obs.as_dict()["metrics"]
        assert metrics["checkpoint.corrupt_records"] == 1
        assert metrics["checkpoint.restores"] == 1

    def test_checkpoint_requires_integer_seed(self, tmp_path):
        with pytest.raises(ValidationError, match="integer seed"):
            MonteCarloShapley(n_permutations=4, checkpoint=tmp_path)
        with pytest.raises(ValidationError, match="integer seed"):
            DataBanzhaf(n_samples=4, seed=None, resume_from=tmp_path)

    def test_identity_mismatch_between_jobs(self, blobs_split, tmp_path):
        utility = _utility(blobs_split)
        MonteCarloShapley(n_permutations=4, seed=11,
                          checkpoint=tmp_path).score(utility)
        other = _utility(blobs_split)
        with pytest.raises(ValidationError, match="different job"):
            MonteCarloShapley(n_permutations=4, seed=12,
                              resume_from=tmp_path).score(other)

    def test_observer_write_accounting(self, blobs_split, tmp_path):
        obs = Observer()
        utility = _utility(blobs_split)
        MonteCarloShapley(n_permutations=6, seed=11, checkpoint=tmp_path,
                          checkpoint_every=2, observer=obs).score(utility)
        metrics = obs.as_dict()["metrics"]
        assert metrics["checkpoint.writes"] == 3
        assert metrics["checkpoint.bytes"] > 0


# --------------------------------------------------------------------------
# kill-the-driver acceptance tests
# --------------------------------------------------------------------------

_DRIVER = '''\
"""Checkpoint kill/resume driver (modes: ref | run | resume)."""
import json
import sys
import time

import numpy as np

from repro.datasets import make_blobs
from repro.importance import MonteCarloShapley, Utility
from repro.ml import LogisticRegression
from repro.observe import Observer
from repro.runtime import FingerprintCache, Runtime


class SlowModel(LogisticRegression):
    """Fit slowed down so the parent can SIGKILL mid-run; subclass (not
    wrapper) so the fingerprint is stable across driver invocations."""

    def fit(self, X, y):
        time.sleep(0.05)
        return super().fit(X, y)


def build_utility(backend, faults=None):
    X, y = make_blobs(48, n_features=3, centers=2, seed=7)
    runtime = Runtime(backend=backend, cache=FingerprintCache(),
                      faults=faults)
    # The retrain path: LogisticRegression's warm-start kernel would
    # answer every coalition without calling the slowed fit.
    return Utility(SlowModel(max_iter=40), X[:32], y[:32], X[32:], y[32:],
                   runtime=runtime, kernel="off")


def main():
    mode, backend, store_dir, out_path = sys.argv[1:5]
    changed_faults = {"retries": 3, "on_worker_failure": "serial"} \\
        if "changed-faults" in sys.argv else None
    obs = Observer()
    utility = build_utility(backend, faults=changed_faults)
    kwargs = {}
    if mode == "run":
        kwargs["checkpoint"] = store_dir
    elif mode == "resume":
        kwargs["resume_from"] = store_dir
    estimator = MonteCarloShapley(n_permutations=10, seed=13,
                                  checkpoint_every=1, observer=obs,
                                  **kwargs)
    values = estimator.score(utility)
    data = obs.as_dict()
    resume_events = [e for e in data["events"]
                     if e["kind"] == "checkpoint.resume"]
    out = {
        "scores": [v.hex() for v in values],
        "calls": utility.calls,
        "cache_keys": sorted(utility.runtime.cache.keys()),
        "restores": data["metrics"].get("checkpoint.restores", 0),
        "skipped": resume_events[0]["completed"] if resume_events else 0,
    }
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    utility.runtime.close()


if __name__ == "__main__":
    main()
'''


def _write_driver(tmp_path) -> Path:
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER)
    return driver


def _run_driver(driver, *args, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, str(driver), *args], check=True,
                   timeout=timeout, env=env, cwd=driver.parent)


def _wait_for_records(store_dir: Path, n: int, process, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(journal_lines(store_dir)) >= n:
            return
        if process.poll() is not None:
            raise AssertionError(
                f"driver exited early with {process.returncode}")
        time.sleep(0.02)
    raise AssertionError(f"no {n} checkpoint records within {timeout}s")


@pytest.mark.slow
class TestKillAndResume:
    def _reference(self, driver, tmp_path) -> dict:
        out = tmp_path / "ref.json"
        _run_driver(driver, "ref", "serial", str(tmp_path / "unused"),
                    str(out))
        return json.loads(out.read_text())

    def _killed_store(self, driver, tmp_path, sig) -> Path:
        store_dir = tmp_path / "store"
        env = dict(os.environ, PYTHONPATH=SRC)
        process = subprocess.Popen(
            [sys.executable, str(driver), "run", "serial", str(store_dir),
             str(tmp_path / "never.json")], env=env, cwd=tmp_path)
        try:
            _wait_for_records(store_dir, 2, process)
            process.send_signal(sig)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode != 0
        assert not (tmp_path / "never.json").exists()
        # The signal landed mid-run: the last durable record is short of
        # the 10 permutations the killed run was asked for.
        record = CheckpointStore(store_dir).load_latest()
        assert record is not None
        assert record.payload["completed"] < 10
        return store_dir

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_sigkill_resume_is_hex_identical(self, tmp_path, backend):
        """ISSUE acceptance: SIGKILL the driver mid-shapley_mc, resume
        on every backend, require hex-identical scores, call counts,
        and cache keys — with the skipped work visible in the run log."""
        driver = _write_driver(tmp_path)
        ref = self._reference(driver, tmp_path)
        store_dir = self._killed_store(driver, tmp_path, signal.SIGKILL)

        out = tmp_path / f"resume-{backend}.json"
        _run_driver(driver, "resume", backend, str(store_dir), str(out))
        resumed = json.loads(out.read_text())
        assert resumed["scores"] == ref["scores"]
        assert resumed["calls"] == ref["calls"]
        assert resumed["cache_keys"] == ref["cache_keys"]
        assert resumed["restores"] == 1
        assert 0 < resumed["skipped"] < 10

    def test_sigterm_flushes_final_checkpoint_and_resumes(self, tmp_path):
        driver = _write_driver(tmp_path)
        ref = self._reference(driver, tmp_path)
        store_dir = self._killed_store(driver, tmp_path, signal.SIGTERM)
        out = tmp_path / "resume.json"
        _run_driver(driver, "resume", "serial", str(store_dir), str(out))
        resumed = json.loads(out.read_text())
        assert resumed["scores"] == ref["scores"]
        assert resumed["calls"] == ref["calls"]
        assert resumed["restores"] == 1

    def test_resume_with_changed_fault_policy_subprocess(self, tmp_path):
        driver = _write_driver(tmp_path)
        ref = self._reference(driver, tmp_path)
        store_dir = self._killed_store(driver, tmp_path, signal.SIGKILL)
        out = tmp_path / "resume.json"
        _run_driver(driver, "resume", "serial", str(store_dir), str(out),
                    "changed-faults")
        resumed = json.loads(out.read_text())
        assert resumed["scores"] == ref["scores"]
        assert resumed["calls"] == ref["calls"]


_LOCK_HELD_DRIVER = '''\
"""SIGTERM delivered while the main thread holds the store's lock."""
import os
import signal
import sys
import time

from repro.runtime import LoopCheckpointer

ckpt = LoopCheckpointer(sys.argv[1], kind="demo", identity="job", every=100)
state = {"completed": 0}
with ckpt.armed(lambda: dict(state)):
    state["completed"] = 5
    with ckpt.store._lock:
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(60)
'''


class TestShutdownUnderLock:
    def test_sigterm_while_store_lock_held_flushes_and_exits(self, tmp_path):
        """A signal arriving while the loop holds the (non-reentrant)
        store lock must not deadlock the flush: the process exits by
        SIGTERM, leaving the final state as a durable record."""
        driver = tmp_path / "lock_held.py"
        driver.write_text(_LOCK_HELD_DRIVER)
        store_dir = tmp_path / "store"
        process = subprocess.Popen(
            [sys.executable, str(driver), str(store_dir)],
            env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path)
        try:
            returncode = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()  # a deadlocked handler ignores SIGTERM
            process.wait()
            pytest.fail("SIGTERM under the store lock deadlocked the flush")
        assert returncode == -signal.SIGTERM
        record = CheckpointStore(store_dir).load_latest("demo")
        assert record is not None
        assert record.payload["completed"] == 5


_UNGUARDED_DRIVER = '''\
"""SIGTERM with a hook registered directly, outside any armed guard."""
import os
import signal
import sys
import time
from pathlib import Path

from repro.runtime import register_shutdown_flush

register_shutdown_flush(lambda: Path(sys.argv[1]).write_text("flushed"))
os.kill(os.getpid(), signal.SIGTERM)
time.sleep(60)
'''

_POOLED_DRIVER = '''\
"""SIGTERM while an armed loop waits on in-flight process-pool chunks."""
import os
import sys
import time
from pathlib import Path

from repro.runtime import LoopCheckpointer, Runtime


def slow(shared, started):
    """Signal the chunk started, then run for 20 s (or until orphaned)."""
    parent = os.getppid()
    (Path(started) / str(os.getpid())).touch()
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline and os.getppid() == parent:
        time.sleep(0.05)
    return marker


if __name__ == "__main__":
    store, started = sys.argv[1], sys.argv[2]
    runtime = Runtime("process", max_workers=2)
    ckpt = LoopCheckpointer(store, kind="demo", identity="job", every=100)
    state = {"completed": 7}
    with ckpt.armed(lambda: dict(state)):
        runtime.map(slow, [started, started], stage="demo")
'''


def _run_until_exit(argv, *, timeout, started=None):
    """Run a driver script; returns (returncode, seconds from the
    SIGTERM it receives — or sends itself — to its exit). With
    ``started``, the signal is sent once that directory has an entry."""
    process = subprocess.Popen([sys.executable, *argv],
                               env=dict(os.environ, PYTHONPATH=SRC))
    try:
        if started is not None:
            deadline = time.monotonic() + 60
            while not any(started.iterdir()):
                assert process.poll() is None, "driver exited early"
                assert time.monotonic() < deadline, "chunk never started"
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
        sent = time.monotonic()
        returncode = process.wait(timeout=timeout)
        return returncode, time.monotonic() - sent
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        pytest.fail(f"no exit within {timeout} s of SIGTERM")


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an unreaped zombie counts as exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestShutdownOutsideGuard:
    def test_directly_registered_hook_flushes_on_sigterm(self, tmp_path):
        """A hook registered outside any armed guard still runs on
        SIGTERM, and the process still dies by the signal."""
        driver = tmp_path / "unguarded.py"
        driver.write_text(_UNGUARDED_DRIVER)
        flushed = tmp_path / "flushed.txt"
        returncode, _ = _run_until_exit([str(driver), str(flushed)],
                                        timeout=30)
        assert returncode == -signal.SIGTERM
        assert flushed.read_text() == "flushed"

    def test_sigterm_during_pooled_map_skips_the_drain_wait(self, tmp_path):
        """In-flight process-pool chunks are abandoned, not drained:
        the final flush lands, the process exits by SIGTERM well inside
        a 10 s grace period, and no pool worker outlives it."""
        driver = tmp_path / "pooled.py"
        driver.write_text(_POOLED_DRIVER)
        store_dir, started = tmp_path / "store", tmp_path / "started"
        started.mkdir()
        returncode, elapsed = _run_until_exit(
            [str(driver), str(store_dir), str(started)], timeout=30,
            started=started)
        assert returncode == -signal.SIGTERM
        assert elapsed < 5.0
        record = CheckpointStore(store_dir).load_latest("demo")
        assert record is not None
        assert record.payload["completed"] == 7
        workers = [int(entry.name) for entry in started.iterdir()]
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in workers):
            if time.monotonic() > deadline:
                for pid in workers:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)
                pytest.fail("pool workers outlived the signalled driver")
            time.sleep(0.1)


class TestSharedStoreConcurrency:
    """Two resuming workers sharing one store must never crash each
    other: a journal rewritten or removed behind a handle's back is
    re-read, not trusted from its cache, and records another handle
    dropped are not corruption."""

    def test_vanished_record_is_not_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=5)
        for i in range(3):
            store.write("demo", {"completed": i})
        reader = CheckpointStore(tmp_path, keep=5)
        # a concurrent worker rewrote the journal without the newest
        rewrite_journal(tmp_path, journal_lines(tmp_path)[:-1])
        observer = Observer(run_id="shared")
        record = reader.load_latest("demo", observer=observer)
        assert record is not None
        assert record.payload["completed"] == 1
        metrics = observer.as_dict()["metrics"]
        assert "checkpoint.corrupt_records" not in metrics

    def test_prune_tolerates_missing_files(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=1)
        for i in range(4):
            store.write("demo", {"completed": i})
        # empty the directory behind the store's back, then write: the
        # handle's cached journal is gone and it must not raise
        store.journal.unlink()
        store.write("demo", {"completed": 99})
        assert store.load_latest("demo").payload["completed"] == 99

    def test_two_stores_interleaved_writes(self, tmp_path):
        """Interleaved writes and compactions from two store handles
        over one directory: both survive, the newest record wins, and
        the journal stays within its bound with strictly rising seqs."""
        a = CheckpointStore(tmp_path, keep=2)
        b = CheckpointStore(tmp_path, keep=2)
        n = 2 * (2 + _COMPACT_SLACK) + 9
        for i in range(n):
            (a if i % 2 == 0 else b).write("demo", {"completed": i})
        assert a.load_latest("demo").payload["completed"] == n - 1
        assert b.load_latest("demo").payload["completed"] == n - 1
        assert len(a) <= 2 + _COMPACT_SLACK
        seqs = [json.loads(line)["seq"] for line in journal_lines(tmp_path)]
        assert seqs == list(range(n - len(seqs), n))
