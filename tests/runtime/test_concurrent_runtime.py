"""Concurrency regressions for the shared runtime pieces the serving
tier hammers: the fingerprint cache, the one process pool that every
caller of an executor shares (and its recovery when one caller's chunk
crashes or hangs a worker), and the shutdown-flush hooks."""

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.runtime import (
    FaultPolicy,
    FingerprintCache,
    ProcessExecutor,
    Runtime,
    TaskError,
    ThreadExecutor,
    flush_all,
    register_shutdown_flush,
    unregister_shutdown_flush,
)
from repro.runtime.checkpoint import _shutdown_handler


def _affine(shared, task):
    scale, offset = shared
    return scale * task + offset


def _affine_with_pid(shared, task):
    return _affine(shared, task), os.getpid()


def _slow_affine(shared, task):
    """Marks ``marker`` as started, then naps ``naps[task]`` seconds."""
    scale, offset, marker, naps = shared
    if marker:
        open(marker, "a").close()
    time.sleep(naps[task])
    return scale * task + offset


def _gated(gate, task):
    if task == 0:
        gate.wait(30)
    return task


def _claim(flag) -> bool:
    try:
        os.rename(flag, flag + ".claimed")
    except OSError:
        return False  # already claimed: run normally
    return True


def _crash_once_affine(shared, task):
    """The first worker to claim ``flag`` dies; retries compute."""
    scale, offset, flag = shared
    if _claim(flag):
        os._exit(1)
    return scale * task + offset


def _stuck_once_affine(shared, task):
    """Task 0 hangs the first worker to claim ``flag``; retries compute."""
    scale, offset, flag, marker = shared
    if task == 0 and _claim(flag):
        open(marker, "a").close()
        time.sleep(60)
    return scale * task + offset


@pytest.fixture()
def pool_starts(monkeypatch):
    """Every ``ProcessPoolExecutor`` constructed while the test runs."""
    starts = []
    init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        starts.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
    return starts


class TestCacheHammer:
    def test_two_threads_same_keys_with_eviction(self):
        # Small capacity forces constant eviction while both threads
        # read and write the same key space; values are key-determined,
        # so any torn read/write surfaces as a wrong value.
        cache = FingerprintCache(max_items=16)
        errors = []
        barrier = threading.Barrier(2)

        def hammer():
            try:
                barrier.wait()
                for i in range(4000):
                    key = f"k{i % 64}"
                    value = cache.get(key)
                    if value is not None:
                        assert value == float(i % 64)
                    cache.put(key, float(i % 64))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 16
        stats = cache.stats
        assert stats.puts == 8000
        assert stats.memory_hits + stats.misses == 8000

    def test_journals_capture_concurrent_puts(self):
        cache = FingerprintCache()
        journal = cache.start_journal()

        def put_range(base):
            for i in range(200):
                cache.put(f"{base}-{i}", float(i))

        threads = [threading.Thread(target=put_range, args=(b,))
                   for b in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cache.stop_journal(journal)
        assert len(journal) == 400
        assert {key for key, _ in journal} \
            == {f"{b}-{i}" for b in ("a", "b") for i in range(200)}


class TestExecutorRegistry:
    """One executor, many callers: the single process pool that every
    :meth:`map` caller shares, whatever its payload."""

    def test_concurrent_maps_with_distinct_shared_payloads(self, pool_starts):
        # Two threads map with different shared payloads through ONE
        # executor: both run in its one pool, each worker answering
        # each payload from its own digest-keyed cache.
        executor = ProcessExecutor(max_workers=1)
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def run(tag, shared):
            try:
                barrier.wait()
                results[tag] = executor.map(_affine, range(20),
                                            shared=shared)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=run, args=("x2", (2, 0))),
                threading.Thread(target=run, args=("x3", (3, 1))),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert results["x2"] == [2 * i for i in range(20)]
            assert results["x3"] == [3 * i + 1 for i in range(20)]
            assert len(pool_starts) == 1
        finally:
            executor.close()
        assert executor._pool is None

    def test_distinct_payloads_share_one_pool(self, pool_starts):
        executor = ProcessExecutor(max_workers=2)
        pids = set()
        try:
            assert executor._pool is None
            for offset in range(5):
                out = executor.map(_affine_with_pid, range(8),
                                   shared=(1, offset), chunk_size=1)
                assert [value for value, _ in out] \
                    == [i + offset for i in range(8)]
                pids.update(pid for _, pid in out)
                assert len(executor._pool._processes) <= 2
        finally:
            executor.close()
        assert len(pool_starts) == 1
        assert 1 <= len(pids) <= 2

    def test_thread_executor_concurrent_maps_share_one_pool(self):
        executor = ThreadExecutor(max_workers=2)
        results = {}

        def run(tag, shared):
            results[tag] = executor.map(_affine, range(50),
                                        shared=shared)

        try:
            threads = [threading.Thread(target=run, args=(t, (t, 0)))
                       for t in (1, 2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for t in (1, 2, 3):
                assert results[t] == [t * i for i in range(50)]
        finally:
            executor.close()


class TestSharedPoolFaults:
    """A fault in one caller's chunk breaks the shared pool under every
    concurrent caller; each must recover its own chunks, in order."""

    def _run_pair(self, executor, first, second, marker):
        # ``first`` starts alone; ``second`` once ``first``'s slow chunk
        # is running in a worker, so both have chunks in flight.
        results, errors = {}, []

        def run(tag, kwargs):
            try:
                results[tag] = executor.map(**kwargs)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(tag, kwargs),
                                    daemon=True)
                   for tag, kwargs in (("first", first), ("second", second))]
        threads[0].start()
        deadline = time.monotonic() + 30
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.01)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        return results

    def test_worker_crash_in_one_caller_recovers_both(self, tmp_path):
        flag, marker = tmp_path / "crash", tmp_path / "started"
        flag.touch()
        policy = FaultPolicy(retries=1, backoff=0.0)
        executor = ProcessExecutor(max_workers=2)
        faults = []
        try:
            results = self._run_pair(
                executor,
                # the slow caller's last chunk is still running in one
                # worker when the crashing caller's first chunk kills
                # the other
                dict(fn=_slow_affine, tasks=range(3), chunk_size=1,
                     shared=(2, 0, str(marker), (0.2, 0.2, 2.0)),
                     faults=policy, fault_hook=faults.append),
                dict(fn=_crash_once_affine, tasks=range(8), chunk_size=1,
                     shared=(3, 1, str(flag)), faults=policy,
                     fault_hook=faults.append),
                marker)
        finally:
            executor.close()
        assert results["first"] == [2 * i for i in range(3)]
        assert results["second"] == [3 * i + 1 for i in range(8)]
        assert (tmp_path / "crash.claimed").exists()
        # the crashing caller's own incident, plus the slow caller's
        # collateral one
        assert Counter(event.kind for event in faults)["worker_crash"] == 2

    def test_stuck_chunk_timeout_recovers_both(self, tmp_path):
        flag, marker = tmp_path / "stuck", tmp_path / "started"
        flag.touch()
        executor = ProcessExecutor(max_workers=2)
        faults = []
        try:
            results = self._run_pair(
                executor,
                dict(fn=_stuck_once_affine, tasks=range(4), chunk_size=1,
                     shared=(3, 1, str(flag), str(marker)),
                     faults=FaultPolicy(retries=1, backoff=0.0,
                                        timeout=1.5),
                     fault_hook=faults.append),
                # 2 s of work on the one free worker: still running when
                # the stuck worker is killed, so its chunks are lost too
                dict(fn=_slow_affine, tasks=range(8), chunk_size=1,
                     shared=(2, 0, None, (0.25,) * 8),
                     faults=FaultPolicy(retries=1, backoff=0.0),
                     fault_hook=faults.append),
                marker)
        finally:
            executor.close()
        assert results["first"] == [3 * i + 1 for i in range(4)]
        assert results["second"] == [2 * i for i in range(8)]
        kinds = Counter(event.kind for event in faults)
        assert kinds["timeout"] == 1
        # killing the stuck worker broke the other caller's chunks too
        assert kinds["worker_crash"] == 1

    # A chunk's timeout clock starts when its chunk starts, not when it
    # is submitted: queued behind another caller's long work, a quick
    # chunk must not time out before it has run.

    def test_thread_chunk_queued_behind_another_caller_does_not_time_out(
            self, tmp_path):
        marker = tmp_path / "started"
        executor = ThreadExecutor(max_workers=1)
        try:
            results = self._run_pair(
                executor,
                # holds the only worker for 2 s
                dict(fn=_slow_affine, tasks=range(1),
                     shared=(2, 0, str(marker), (2.0,))),
                # queued for ~2 s; runs instantly against a 1 s timeout
                dict(fn=_affine, tasks=range(1), shared=(3, 1),
                     faults=FaultPolicy(retries=0, backoff=0.0,
                                        timeout=1.0)),
                marker)
        finally:
            executor.close()
        assert results == {"first": [0], "second": [1]}

    def test_process_chunk_queued_behind_another_caller_does_not_time_out(
            self, tmp_path):
        marker = tmp_path / "started"
        executor = ProcessExecutor(max_workers=1)
        try:
            results = self._run_pair(
                executor,
                # five 0.5 s chunks: the second caller's chunk starts
                # ~2.5 s after submission. The pool marks a future
                # running when it enters the call queue (two slots for
                # one worker), so its clock starts while one chunk runs
                # and one more waits ahead of it: ~1 s before it runs.
                dict(fn=_slow_affine, tasks=range(5), chunk_size=1,
                     shared=(2, 0, str(marker), (0.5,) * 5)),
                dict(fn=_affine, tasks=range(1), shared=(3, 1),
                     faults=FaultPolicy(retries=0, backoff=0.0,
                                        timeout=1.75)),
                marker)
        finally:
            executor.close()
        assert results == {"first": [0, 2, 4, 6, 8], "second": [1]}

    # A timed-out thread chunk is abandoned but keeps its worker busy.
    # Once such chunks hold every worker, nothing queued can start, so
    # a queued chunk's clock starts then: a map whose task never
    # returns still ends in TaskError.

    def test_thread_retry_queued_behind_its_own_stuck_chunk_times_out(self):
        executor = ThreadExecutor(max_workers=1)
        gate = threading.Event()
        faults = []
        started = time.monotonic()
        try:
            with pytest.raises(TaskError) as info:
                executor.map(_gated, range(1), shared=gate,
                             faults=FaultPolicy(retries=1, backoff=0.0,
                                                timeout=0.3),
                             fault_hook=faults.append)
            elapsed = time.monotonic() - started
        finally:
            gate.set()
            executor.close()
        assert info.value.attempts == 2
        assert elapsed < 5.0
        assert [event.kind for event in faults] == ["timeout", "timeout"]

    def test_thread_chunk_queued_behind_another_callers_stuck_chunk_times_out(
            self):
        executor = ThreadExecutor(max_workers=1)
        gate = threading.Event()
        policy = FaultPolicy(retries=0, backoff=0.0, timeout=0.3)
        errors = {}

        def run(tag, fn, shared):
            try:
                executor.map(fn, range(1), shared=shared, faults=policy)
            except TaskError as error:
                errors[tag] = error

        stuck = threading.Thread(target=run, args=("stuck", _gated, gate),
                                 daemon=True)
        queued = threading.Thread(target=run,
                                  args=("queued", _affine, (3, 1)),
                                  daemon=True)
        try:
            stuck.start()
            time.sleep(0.05)  # the stuck chunk takes the only worker
            queued.start()
            stuck.join(timeout=5)
            queued.join(timeout=5)
            assert not stuck.is_alive() and not queued.is_alive()
        finally:
            gate.set()
            executor.close()
        assert set(errors) == {"stuck", "queued"}

    def test_late_discard_keeps_the_rebuilt_pool(self):
        executor = ThreadExecutor(max_workers=1)
        try:
            broken = executor._ensure_pool()
            executor._discard_pool(broken)  # the first caller's recovery
            rebuilt = executor._ensure_pool()
            executor._discard_pool(broken)  # a late caller's, same pool
            assert executor._pool is rebuilt
            assert executor.map(_affine, range(3), shared=(2, 0)) \
                == [0, 2, 4]
        finally:
            executor.close()

    def test_chunks_cancelled_by_another_callers_discard_resubmit(self):
        # One worker runs the gated chunk 0 while chunks 1-3 queue;
        # another caller's discard cancels the queued ones. That is a
        # lost pool, not a task error: with no retry budget the map
        # still completes, counting one crash.
        executor = ThreadExecutor(max_workers=1)
        gate = threading.Event()
        out = {}
        faults = []

        def run():
            out["results"] = executor.map(
                _gated, range(4), shared=gate, chunk_size=1,
                faults=FaultPolicy(retries=0, backoff=0.0),
                fault_hook=faults.append)

        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
            deadline = time.monotonic() + 30
            while (executor._pool is None
                   or executor._pool._work_queue.qsize() < 3) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            executor._discard_pool(executor._pool)
            gate.set()
            thread.join(timeout=30)
        finally:
            gate.set()
            executor.close()
        assert not thread.is_alive()
        assert out["results"] == [0, 1, 2, 3]
        assert Counter(event.kind for event in faults)["worker_crash"] == 1


class TestDebuggerCorpusPools:
    def test_corpus_pass_starts_one_pool(self, pool_starts):
        from repro.pipelines.debugger import load_corpus

        with Runtime("process", max_workers=2,
                     cache=FingerprintCache()) as runtime:
            for entry in load_corpus():
                report = entry.debugger(runtime=runtime).run()
                assert entry.cause_is_valid(
                    report.root_causes[0].assignment), entry.name
        assert len(pool_starts) == 1


class TestShutdownFlushHooks:
    def test_flush_all_runs_hooks_signal_free(self):
        calls = []
        handles = [register_shutdown_flush(lambda: calls.append("a")),
                   register_shutdown_flush(lambda: calls.append("b"))]
        try:
            flush_all()
            assert calls == ["a", "b"]
            flush_all()  # safe to call repeatedly
            assert calls == ["a", "b", "a", "b"]
        finally:
            for handle in handles:
                unregister_shutdown_flush(handle)

    def test_failing_hook_does_not_block_the_rest(self):
        calls = []

        def bad():
            raise RuntimeError("flush failed")

        handles = [register_shutdown_flush(bad),
                   register_shutdown_flush(lambda: calls.append("ok"))]
        try:
            flush_all()
            assert calls == ["ok"]
        finally:
            for handle in handles:
                unregister_shutdown_flush(handle)

    def test_worker_thread_registration_does_not_block_main_install(self):
        # Regression: a worker-thread registration arriving first used
        # to leave the hook table non-empty without handlers installed,
        # and a later main-thread registration would then skip install.
        before = signal.getsignal(signal.SIGTERM)
        assert before is not _shutdown_handler
        handles = []

        def register_from_worker():
            handles.append(
                register_shutdown_flush(lambda: None))

        thread = threading.Thread(target=register_from_worker)
        thread.start()
        thread.join()
        try:
            # worker thread cannot install signal handlers
            assert signal.getsignal(signal.SIGTERM) is not _shutdown_handler
            handles.append(register_shutdown_flush(lambda: None))
            assert signal.getsignal(signal.SIGTERM) is _shutdown_handler
        finally:
            for handle in handles:
                unregister_shutdown_flush(handle)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_unguarded_sigterm_with_pool_lock_held_still_exits(self):
        # Regression: with no guard open, the handler closed every
        # runtime inline; a main thread interrupted inside pool.submit
        # holds the pool's shutdown lock, so the teardown waited on it
        # forever and the process never honoured the signal.
        script = (
            "import os, signal, time\n"
            "from repro.runtime import Runtime, register_shutdown_flush\n"
            "runtime = Runtime('thread', max_workers=1)\n"
            "runtime.map(max, [1], shared=0)\n"
            "runtime.executor._pool._shutdown_lock.acquire()\n"
            "register_shutdown_flush(lambda: None)\n"
            "os.kill(os.getpid(), signal.SIGTERM)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == -signal.SIGTERM, proc.stderr
        assert time.monotonic() - started < 20
