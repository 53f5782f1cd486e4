"""The server's footprint: settled-job retention and shutdown latency.

``queue_capacity`` bounds both admission and how many settled jobs the
server remembers; a forgotten id is unknown until it is resubmitted,
which resumes it from its checkpoint. A closed, empty queue releases
the workers at once instead of after their poll interval.
"""

import gc
import sys
import threading
import time

import pytest

from repro.core.exceptions import ValidationError
from repro.serve import Server
from repro.serve import worker as worker_module
from repro.serve.jobs import Job
from repro.serve.queue import JobQueue

from .conftest import hexes

CAPACITY = 4


def _live_jobs() -> int:
    gc.collect()
    return sum(isinstance(obj, Job) for obj in gc.get_objects())


def _run(server, utility, *, job_id=None, seed=0):
    job_id = server.submit("shapley_mc", utility, job_id=job_id,
                           params={"n_permutations": 3, "seed": seed})
    return job_id, server.result(job_id, timeout=30.0)


def _gated(make_utility, gate: threading.Event, started: threading.Event):
    def factory():
        started.set()
        assert gate.wait(30.0)
        return make_utility()
    return factory


class TestRetention:
    def test_settled_jobs_are_bounded(self, tmp_path, make_utility):
        before = _live_jobs()
        with Server(tmp_path / "srv", workers=1,
                    queue_capacity=CAPACITY) as server:
            for i in range(3 * CAPACITY):
                _run(server, make_utility, seed=i)
            assert len(server.jobs()) <= CAPACITY
            # the worker's frame still holds the last job it ran
            assert _live_jobs() - before <= CAPACITY + 1

    def test_evicted_id_is_unknown(self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1,
                    queue_capacity=CAPACITY) as server:
            first, _ = _run(server, make_utility, job_id="first")
            for i in range(CAPACITY):
                _run(server, make_utility, seed=i)
            for call in (server.status, server.result, server.resume):
                with pytest.raises(ValidationError, match="unknown"):
                    call(first)

    def test_resubmitted_evicted_id_resumes_hex_identically(
            self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1,
                    queue_capacity=CAPACITY) as server:
            job_id, scores = _run(server, make_utility, job_id="again",
                                  seed=7)
            for i in range(CAPACITY):
                _run(server, make_utility, seed=i)
            with pytest.raises(ValidationError):
                server.status(job_id)
            _, again = _run(server, make_utility, job_id=job_id, seed=7)
        assert hexes(again) == hexes(scores)

    def test_pending_and_running_jobs_are_never_evicted(
            self, tmp_path, make_utility):
        gate, started = threading.Event(), threading.Event()
        with Server(tmp_path / "srv", workers=2, queue_capacity=CAPACITY,
                    tenants={"slow": {"max_active": 1}}) as server:
            running = server.submit(
                "loo", _gated(make_utility, gate, started), tenant="slow")
            assert started.wait(30.0)
            pending = server.submit("loo", make_utility, tenant="slow")
            for i in range(CAPACITY + 2):
                _run(server, make_utility, seed=i)
            assert server.status(running)["state"] == "running"
            assert server.status(pending)["state"] == "pending"
            gate.set()
            assert len(server.result(running, timeout=30.0)) == 40
            assert len(server.result(pending, timeout=30.0)) == 40

    def test_concurrent_submitters_keep_the_table_consistent(
            self, tmp_path, make_utility):
        """Four workers and two submitters that reuse ids, with a tiny
        switch interval: a lost update to the retention order would
        leave an id settled but missing, or an unsettled job evictable."""
        scores, errors = [], []

        def submitter(server, name):
            try:
                for i in range(25):
                    job_id = server.submit("loo", make_utility,
                                           job_id=f"{name}-{i % 4}")
                    scores.append(hexes(server.result(job_id, timeout=30.0)))
            except Exception as exc:  # reported by the asserts below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Server(tmp_path / "srv", workers=4,
                        queue_capacity=3) as server:
                threads = [threading.Thread(target=submitter,
                                            args=(server, name))
                           for name in ("a", "b")]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                with server._lock:
                    assert set(server._settled) == set(server._jobs)
                    assert len(server._jobs) <= 3
                    assert all(job.finished
                               for job in server._jobs.values())
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
        assert len(scores) == 50 and all(s == scores[0] for s in scores)


class TestShutdownLatency:
    def test_idle_close_does_not_wait_out_the_poll(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(worker_module, "POLL_SECONDS", 5.0)
        server = Server(tmp_path / "srv", workers=2)
        time.sleep(0.05)  # both workers are blocked in pop
        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 1.0
        assert not any(w.is_alive() for w in server._workers)

    def test_drain_waits_for_a_running_job_without_spinning(
            self, tmp_path, make_utility, monkeypatch):
        monkeypatch.setattr(worker_module, "POLL_SECONDS", 5.0)
        pops = []
        real_pop = JobQueue.pop

        def counting_pop(self, timeout=None):
            pops.append(threading.current_thread().name)
            return real_pop(self, timeout)

        monkeypatch.setattr(JobQueue, "pop", counting_pop)
        gate, started = threading.Event(), threading.Event()
        server = Server(tmp_path / "srv", workers=2)
        job_id = server.submit("loo", _gated(make_utility, gate, started))
        assert started.wait(30.0)
        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(server.drain(timeout=30.0)))
        drainer.start()
        time.sleep(0.5)
        assert drainer.is_alive()  # still waiting for the gated job
        assert len(pops) <= 6, len(pops)
        gate.set()
        drainer.join(30.0)
        assert drained == [True]
        assert server.status(job_id)["state"] == "done"
