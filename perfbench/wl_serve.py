"""``serve``: a burst of importance jobs from two tenants.

240 jobs are submitted at once by tenants ``a`` and ``b`` (weights 2:1,
offered 2:1), a fixed mix of ``shapley_mc``, ``banzhaf`` and ``loo`` on
small k-NN utilities, to a ``Server`` with two workers. One operation is
one job, timed from submit to done.

Submit, start and done times come from the ``job.submit`` /
``job.start`` / ``job.done`` events the server's observer records; the
benchmark never polls the server. It waits for the burst by blocking on
``Server.result`` for each job in turn.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from repro.datasets import make_blobs
from repro.importance import Utility
from repro.importance.banzhaf import DataBanzhaf
from repro.importance.loo import leave_one_out
from repro.importance.shapley_mc import MonteCarloShapley
from repro.ml import KNeighborsClassifier
from repro.serve import AdmissionError, Server

from harness import BaseWorkload

JOBS = 240
WORKERS = 2
TENANTS = {"a": 2.0, "b": 1.0}
N_DATASETS = 8
N_TRAIN = 30
N_VALID = 20
#: method -> estimator params; truncation is off so a job's work does
#: not depend on how noisy its data happens to be.
METHODS = (("shapley_mc", {"n_permutations": 10, "truncation_tol": 0.0}),
           ("banzhaf", {"n_samples": 40}),
           ("loo", {}))
SOLO_CHECKS = 6


class _Utility(Utility):
    """Charges the estimator's coalition evaluations to the importance
    layer; everything else a job does is the serving tier's."""

    rec = None

    def full_value(self, *args, **kwargs):
        with type(self).rec.span("importance.full_value"):
            return super().full_value(*args, **kwargs)

    def evaluate_many(self, *args, **kwargs):
        with type(self).rec.span("importance.evaluate_many"):
            return super().evaluate_many(*args, **kwargs)

    def walk_permutations(self, *args, **kwargs):
        with type(self).rec.span("importance.walk_permutations"):
            return super().walk_permutations(*args, **kwargs)


class _Factory:
    """Builds one job's utility on the worker thread that runs it."""

    def __init__(self, X, y, traced: bool):
        self.X, self.y, self.traced = X, y, traced

    def __call__(self):
        cls = _Utility if self.traced else Utility
        return cls(KNeighborsClassifier(n_neighbors=3),
                   self.X[:N_TRAIN], self.y[:N_TRAIN],
                   self.X[N_TRAIN:], self.y[N_TRAIN:])


def _solo(method, params, utility):
    if method == "shapley_mc":
        return MonteCarloShapley(**params).score(utility)
    if method == "banzhaf":
        return DataBanzhaf(**params).score(utility)
    return leave_one_out(utility, **params)


class Workload(BaseWorkload):
    primary = ("serve", "checkpoint")

    def __init__(self, rec, seed: int, state):
        self.rec = rec
        self.seed = seed
        self.state = state
        self.server = None
        self.setups = 0
        self.bursts = 0
        self.rejected = 0
        self.fair_shares = []
        self.traced_service = []
        self.submit_s = []
        self.totals = {"checkpoint.writes": 0, "checkpoint.bytes": 0,
                       "utility.evaluations": 0}
        _Utility.rec = rec

    def setup(self):
        if self.server is not None:
            self.server.close()
        self.data = [make_blobs(N_TRAIN + N_VALID, n_features=3, centers=2,
                                seed=1000 * self.seed + i)
                     for i in range(N_DATASETS)]
        rng = np.random.default_rng(self.seed)
        self.plan = []
        for i in range(JOBS):
            method, params = METHODS[i % len(METHODS)]
            params = dict(params)
            if method != "loo":
                params["seed"] = int(rng.integers(2**31))
            self.plan.append(("a" if i % 3 != 2 else "b", method, params,
                              i % N_DATASETS))
        data_dir = self.state / f"serve-{self.setups}"
        self.setups += 1
        self.server = Server(data_dir, workers=WORKERS,
                             queue_capacity=2 * JOBS,
                             tenants={name: {"weight": weight}
                                      for name, weight in TENANTS.items()})

    def _burst(self, jobs, traced: bool):
        """Submit ``jobs`` at once and block until each is done; returns
        the job ids and the burst's events."""
        server = self.server
        factories = [_Factory(X, y, traced) for X, y in self.data]
        events_before = len(server.observer.runlog.events)
        dispatched_before = len(server.dispatch_log)
        prefix = f"b{self.bursts}"
        self.bursts += 1
        ids = []
        t0 = time.perf_counter()
        with self.rec.span("serve.submit"):
            for i, (tenant, method, params, data) in enumerate(jobs):
                try:
                    ids.append(server.submit(
                        method, factories[data], tenant=tenant,
                        params=params, job_id=f"{prefix}-{i:04d}"))
                except AdmissionError:
                    self.rejected += 1
        self.submit_s.append(time.perf_counter() - t0)
        with self.rec.span("serve.wait"):
            self.results = {job_id: server.result(job_id, timeout=120)
                            for job_id in ids}
        log = server.dispatch_log[dispatched_before:]
        half = log[: len(log) // 2]
        self.fair_shares.append(half.count("a") / len(half))
        return ids, server.observer.runlog.events[events_before:]

    def warmup(self):
        # a whole burst: the first one after start-up runs a fifth slower
        self._burst(self.plan, False)

    def _tenant_counts(self) -> dict:
        counts = dict.fromkeys(self.totals, 0)
        for tenant in TENANTS:
            snap = self.server.tenant_metrics(tenant)
            for key in counts:
                counts[key] += snap.get(key, 0)
        return counts

    def episode(self, traced: bool):
        before = self._tenant_counts()
        ids, events = self._burst(self.plan, traced)
        if traced:
            after = self._tenant_counts()
            for key in self.totals:
                self.totals[key] += after[key] - before[key]
        times: dict[str, dict] = {}
        for event in events:
            if event["kind"] in ("job.submit", "job.start", "job.done"):
                times.setdefault(event["job_id"], {})[event["kind"]] = \
                    event["ts"]
        self.last_ids = ids
        self.queue_wait = [t["job.start"] - t["job.submit"]
                           for t in times.values()]
        self.service = [t["job.done"] - t["job.start"]
                        for t in times.values()]
        if traced:
            self.traced_service.append(sum(self.service))
        shutil.rmtree(self.server.data_dir / "checkpoints",
                      ignore_errors=True)
        return [t["job.done"] - t["job.submit"] for t in times.values()]

    def check(self):
        failures = []
        if self.rejected:
            failures.append(f"{self.rejected} jobs were refused admission")
        rng = np.random.default_rng(self.seed + 1)
        picks = rng.choice(len(self.last_ids), size=SOLO_CHECKS,
                           replace=False)
        for i in picks:
            _, method, params, data = self.plan[i]
            X, y = self.data[data]
            solo = _solo(method, params, _Factory(X, y, False)())
            served = self.results[self.last_ids[i]]
            if [float(v).hex() for v in served] != \
                    [float(v).hex() for v in solo]:
                failures.append(f"job {self.last_ids[i]} ({method}) differs "
                                "from its solo serial run")
        return failures

    def other_rows(self, rows: dict) -> dict:
        """Worker-thread time: the importance spans, and the rest of each
        job's service time (queue hand-off, lease, runlog, checkpoints)
        as the serving tier's."""
        rows = dict(rows)
        rows["serve"] = rows.get("serve", 0.0) + sum(self.traced_service) \
            - rows.get("importance", 0.0)
        return rows

    def layer_metrics(self, n: int, stats: dict, other: dict) -> dict:
        service = sorted(self.service)
        queue = sorted(self.queue_wait)
        return {
            "serve.submit_s": float(np.median(self.submit_s)),
            "serve.queue_wait_p50_ms": 1e3 * queue[len(queue) // 2],
            "serve.service_p50_ms": 1e3 * service[len(service) // 2],
            "serve.service_p90_ms": 1e3 * service[int(0.9 * len(service))],
            "serve.rejected": self.rejected,
            "serve.fair_share": float(np.median(self.fair_shares)),
            "importance.score_s":
                sum(slot["wall"] for name, slot in other.items()
                    if name.startswith("importance.")) / n,
            "importance.utility_calls":
                self.totals["utility.evaluations"] / n,
            "checkpoint.writes": self.totals["checkpoint.writes"] / n,
            "checkpoint.bytes": self.totals["checkpoint.bytes"] / n,
        }

    def summary(self) -> dict:
        return {"fair_share": float(np.median(self.fair_shares)),
                "rejected": self.rejected}

    def close(self):
        if self.server is not None:
            self.server.close()
