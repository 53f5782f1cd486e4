"""Integration tests for the Server facade — including the acceptance
criteria: concurrent multi-tenant jobs with bit-identical scores, fair
dispatch, early stop + resume, and observability isolation."""

import math
import os
import time

import pytest

from repro.core.exceptions import ValidationError
from repro.importance import DataBanzhaf, MonteCarloShapley, leave_one_out
from repro.runtime import FingerprintCache, Runtime, checkpoint
from repro.serve import AdmissionError, Server


def hexes(values):
    return [float(v).hex() for v in values]


def wait_for(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestAcceptance:
    def test_sixteen_jobs_four_tenants_bit_identical_and_fair(
            self, tmp_path, make_utility):
        """16 concurrent importance jobs from 4 tenants on one shared
        Runtime: scores bit-identical to solo serial runs, and every
        dispatch-log prefix gives each tenant at most 1.5x fair share."""
        tenants = {f"t{i}": {"weight": 1.0} for i in range(4)}
        runtime = Runtime(backend="serial", cache=FingerprintCache())
        submitted = []  # (job_id, method, seed)
        try:
            with Server(tmp_path / "srv", runtime=runtime, workers=4,
                        tenants=tenants) as server:
                for i in range(16):
                    method = "shapley_mc" if i % 2 == 0 else "banzhaf"
                    params = ({"n_permutations": 8, "seed": 100 + i}
                              if method == "shapley_mc"
                              else {"n_samples": 16, "seed": 100 + i})
                    job_id = server.submit(method, make_utility,
                                           tenant=f"t{i % 4}",
                                           params=params, every=4)
                    submitted.append((job_id, method, 100 + i))
                results = {job_id: server.result(job_id, timeout=120)
                           for job_id, _, _ in submitted}
                log = server.dispatch_log
        finally:
            runtime.close()

        for job_id, method, seed in submitted:
            if method == "shapley_mc":
                solo = MonteCarloShapley(
                    n_permutations=8, seed=seed).score(make_utility())
            else:
                solo = DataBanzhaf(
                    n_samples=16, seed=seed).score(make_utility())
            assert hexes(results[job_id]) == hexes(solo), \
                f"{job_id} ({method}, seed={seed}) diverged from solo run"

        assert len(log) == 16
        for tenant in tenants:
            assert log.count(tenant) == 4
        for k in (8, 12, 16):
            fair = k / 4
            for tenant in tenants:
                share = log[:k].count(tenant)
                assert share <= math.ceil(1.5 * fair), \
                    f"{tenant} got {share}/{k} dispatches (fair {fair})"

    def test_early_stop_then_resume_completes_hex_identically(
            self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1) as server:
            job_id = server.submit(
                "shapley_mc", make_utility, tenant="alice",
                params={"n_permutations": 60, "seed": 3}, every=1)
            est = server.estimate(job_id)
            seen = 0
            for snap in server.stream(job_id, timeout=30.0):
                seen += 1
                if seen >= 5:
                    est.stop()
                if snap.done:
                    break
            partial = server.result(job_id, timeout=30.0)
            status = server.status(job_id)
            assert status["state"] == "done"
            assert status["completed"] < 60
            assert len(partial) == 40

            resumed_id = server.resume(job_id)
            assert resumed_id == job_id
            final = server.result(job_id, timeout=60.0)
            assert server.status(job_id)["completed"] == 60

        solo = MonteCarloShapley(n_permutations=60, seed=3).score(
            make_utility())
        assert hexes(final) == hexes(solo)

    def test_stop_width_accuracy_budget(self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1) as server:
            job_id = server.submit(
                "shapley_mc", make_utility,
                params={"n_permutations": 500, "seed": 9},
                every=1, stop_width=1e9)
            server.result(job_id, timeout=60.0)
            status = server.status(job_id)
        # finite stderr appears at 2 folded permutations; a huge width
        # budget is satisfied immediately after that
        assert status["completed"] < 500
        assert status["ci_width"] <= 1e9


class TestSubmission:
    def test_loo_job_matches_direct_call(self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1) as server:
            job_id = server.submit("loo", make_utility)
            got = server.result(job_id, timeout=60.0)
        assert hexes(got) == hexes(leave_one_out(make_utility()))

    def test_sampling_methods_require_seed(self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1) as server:
            with pytest.raises(ValidationError, match="seed"):
                server.submit("shapley_mc", make_utility,
                              params={"n_permutations": 4})

    def test_unknown_method_rejected(self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1) as server:
            with pytest.raises(ValidationError):
                server.submit("influence", make_utility,
                              params={"seed": 0})

    def test_unknown_job_id_everywhere(self, tmp_path):
        with Server(tmp_path / "srv", workers=1) as server:
            for call in (server.status, server.result, server.cancel,
                         server.resume, server.estimate):
                with pytest.raises(ValidationError):
                    call("nope")

    def test_resubmit_of_live_job_rejected(self, tmp_path, make_utility):
        def slow_factory():
            time.sleep(0.4)
            return make_utility()

        with Server(tmp_path / "srv", workers=1) as server:
            job_id = server.submit("loo", slow_factory, job_id="dup-1")
            with pytest.raises(ValidationError, match="already"):
                server.submit("loo", slow_factory, job_id="dup-1")
            with pytest.raises(ValidationError, match="still"):
                server.resume(job_id)
            server.result(job_id, timeout=30.0)

    def test_result_timeout(self, tmp_path, make_utility):
        def slow_factory():
            time.sleep(0.5)
            return make_utility()

        with Server(tmp_path / "srv", workers=1) as server:
            job_id = server.submit("loo", slow_factory)
            with pytest.raises(TimeoutError):
                server.result(job_id, timeout=0.05)
            server.result(job_id, timeout=30.0)


class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_after(self, tmp_path,
                                                 make_utility):
        def slow_factory():
            time.sleep(0.8)
            return make_utility()

        with Server(tmp_path / "srv", workers=1, queue_capacity=2,
                    retry_after=0.25) as server:
            running = server.submit("loo", slow_factory)
            assert wait_for(lambda:
                            server.status(running)["state"] == "running")
            server.submit("loo", make_utility)
            server.submit("loo", make_utility)
            with pytest.raises(AdmissionError) as err:
                server.submit("loo", make_utility)
            assert err.value.reason == "queue_full"
            assert err.value.retry_after >= 0.25

    def test_tenant_quota_rejects(self, tmp_path, make_utility):
        def slow_factory():
            time.sleep(0.6)
            return make_utility()

        with Server(tmp_path / "srv", workers=1,
                    tenants={"a": {"max_pending": 1}}) as server:
            running = server.submit("loo", slow_factory, tenant="z")
            assert wait_for(lambda:
                            server.status(running)["state"] == "running")
            server.submit("loo", make_utility, tenant="a")
            with pytest.raises(AdmissionError) as err:
                server.submit("loo", make_utility, tenant="a")
            assert err.value.reason == "tenant_quota"
            server.submit("loo", make_utility, tenant="b")  # unaffected


class TestCancellation:
    def test_cancel_pending_job(self, tmp_path, make_utility):
        def slow_factory():
            time.sleep(0.6)
            return make_utility()

        with Server(tmp_path / "srv", workers=1) as server:
            blocker = server.submit("loo", slow_factory)
            assert wait_for(lambda:
                            server.status(blocker)["state"] == "running")
            victim = server.submit("loo", make_utility)
            server.cancel(victim)
            assert server.status(victim)["state"] == "cancelled"
            with pytest.raises(ValidationError, match="cancelled"):
                server.result(victim, timeout=5.0)

    def test_cancel_running_job_at_next_publish(self, tmp_path,
                                                make_utility):
        with Server(tmp_path / "srv", workers=1) as server:
            job_id = server.submit(
                "shapley_mc", make_utility,
                params={"n_permutations": 50000, "seed": 1}, every=1)
            est = server.estimate(job_id)
            assert est.wait(seq=0, timeout=30.0) is not None
            server.cancel(job_id)
            assert wait_for(lambda: server.status(job_id)["state"]
                            == "cancelled", timeout=30.0)
            with pytest.raises(ValidationError):
                server.result(job_id, timeout=5.0)


class TestObservabilityIsolation:
    def test_tenant_metrics_are_isolated(self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=2) as server:
            a_job = server.submit("loo", make_utility, tenant="a")
            b_job = server.submit(
                "shapley_mc", make_utility, tenant="b",
                params={"n_permutations": 4, "seed": 0})
            server.result(a_job, timeout=60.0)
            server.result(b_job, timeout=60.0)
            a_metrics = server.tenant_metrics("a")
            b_metrics = server.tenant_metrics("b")
        assert a_metrics["jobs.done"] == 1
        assert b_metrics["jobs.done"] == 1
        assert "jobs.seconds" in a_metrics

    def test_each_job_gets_its_own_runlog(self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1) as server:
            first = server.submit("loo", make_utility, tenant="a")
            second = server.submit("loo", make_utility, tenant="b")
            server.result(first, timeout=60.0)
            server.result(second, timeout=60.0)
        for job_id in (first, second):
            path = tmp_path / "srv" / "runlogs" / f"{job_id}.jsonl"
            assert path.exists()
            text = path.read_text()
            assert "job.start" in text and "job.done" in text
            assert job_id in text
        first_log = (tmp_path / "srv" / "runlogs"
                     / f"{first}.jsonl").read_text()
        assert second not in first_log  # no cross-job leakage


class TestLifecycle:
    def test_drain_stops_jobs_flushes_and_rejects(self, tmp_path,
                                                  make_utility):
        server = Server(tmp_path / "srv", workers=1)
        job_id = server.submit(
            "shapley_mc", make_utility,
            params={"n_permutations": 50000, "seed": 2}, every=1)
        est = server.estimate(job_id)
        assert est.wait(seq=0, timeout=30.0) is not None
        assert server.drain(timeout=60.0, stop_running=True) is True
        assert server.status(job_id)["state"] == "done"
        assert server.status(job_id)["completed"] < 50000
        store = tmp_path / "srv" / "checkpoints" / job_id
        assert store.exists() and any(store.iterdir())
        with pytest.raises(AdmissionError) as err:
            server.submit("loo", make_utility)
        assert err.value.reason == "draining"

    def test_stats_snapshot(self, tmp_path, make_utility):
        with Server(tmp_path / "srv", workers=1, owner="stats-owner") \
                as server:
            job_id = server.submit("loo", make_utility)
            server.result(job_id, timeout=60.0)
            stats = server.stats()
            jobs = server.jobs()
        assert stats["owner"] == "stats-owner"
        assert stats["jobs"][job_id] == "done"
        assert stats["queue"]["capacity"] == 64
        assert stats["metrics"]["serve.jobs.completed"] == 1
        assert [j["job_id"] for j in jobs] == [job_id]
        assert "Server(" in repr(server)


class TestPerJobFilesystemWork:
    def test_served_job_lists_no_directory(self, tmp_path, make_utility,
                                           monkeypatch):
        """A fresh checkpointed job creates its lease and checkpoint
        directories, so nothing in it lists a directory for legacy
        records, and it builds one store handle for each."""
        listings, handles = [], []
        real_scandir = os.scandir
        real_init = checkpoint.CheckpointStore.__init__

        def scandir(*args, **kwargs):
            listings.append(args)
            return real_scandir(*args, **kwargs)

        def init(self, path, **kwargs):
            handles.append(os.fspath(path))
            real_init(self, path, **kwargs)

        with Server(tmp_path / "srv", workers=1) as server:
            monkeypatch.setattr(os, "scandir", scandir)
            monkeypatch.setattr(checkpoint.CheckpointStore, "__init__", init)
            job_id = server.submit(
                "shapley_mc", make_utility,
                params={"n_permutations": 12, "seed": 4}, every=3)
            got = server.result(job_id, timeout=60.0)
            monkeypatch.undo()
        assert listings == []
        assert sorted(handles) == sorted(
            os.fspath(tmp_path / "srv" / sub / job_id)
            for sub in ("checkpoints", "leases"))
        solo = MonteCarloShapley(n_permutations=12, seed=4).score(
            make_utility())
        assert hexes(got) == hexes(solo)
        store = checkpoint.CheckpointStore(tmp_path / "srv" / "checkpoints"
                                           / job_id)
        assert store.load_latest("importance.shapley_mc") is not None
