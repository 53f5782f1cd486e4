"""Experiment T15 — serving-tier throughput and latency.

The claim behind ``repro.serve``: wrapping the importance estimators in
a multi-tenant job tier costs scheduling overhead, not correctness —
N concurrent jobs from two tenants on one shared serial Runtime finish
with bit-identical scores while the queue keeps dispatch fair.

This bench submits a burst of Monte-Carlo Shapley jobs from two tenants
(2:1 weights), measures jobs/sec and per-job latency (submit → terminal
state), audits the dispatch log's fair-share property, and spot-checks
one job against its solo serial run. Artifact:
``results/t15_serve_throughput.txt`` with jobs/sec and p50/p95 latency.
"""

import time

import numpy as np
# Every served job's AnytimeEstimate imports scipy.special on first use;
# load it here so the timed burst does not pay that one-time import.
import scipy.special  # noqa: F401

from repro.datasets import make_blobs
from repro.importance import MonteCarloShapley, Utility
from repro.ml import KNeighborsClassifier
from repro.serve import Server

from .conftest import write_result

N_JOBS = 12
N_PERMUTATIONS = 30
WORKERS = 4
TENANTS = {"alice": 2.0, "bob": 1.0}


def _utility():
    X, y = make_blobs(60, n_features=3, centers=2, seed=0)
    return Utility(KNeighborsClassifier(n_neighbors=3),
                   X[:40], y[:40], X[40:], y[40:])


def _run_burst(data_dir):
    """Submit N_JOBS across two tenants; return timing + audit data."""
    tenants = {name: {"weight": weight}
               for name, weight in TENANTS.items()}
    submitted = {}     # job_id -> (tenant, seed, t_submit)
    finished = {}      # job_id -> t_done
    with Server(data_dir, workers=WORKERS, tenants=tenants) as server:
        started = time.perf_counter()
        for i in range(N_JOBS):
            tenant = "alice" if i % 3 != 2 else "bob"  # 2:1 offered load
            job_id = server.submit(
                "shapley_mc", _utility, tenant=tenant,
                params={"n_permutations": N_PERMUTATIONS, "seed": i},
                every=10)
            submitted[job_id] = (tenant, i, time.perf_counter())
        pending = set(submitted)
        while pending:
            for job_id in list(pending):
                if server.status(job_id)["state"] == "done":
                    finished[job_id] = time.perf_counter()
                    pending.remove(job_id)
            time.sleep(0.001)
        wall = time.perf_counter() - started
        results = {job_id: server.result(job_id, timeout=60)
                   for job_id in submitted}
        log = server.dispatch_log
    latencies = sorted(finished[job_id] - submitted[job_id][2]
                       for job_id in submitted)
    return wall, latencies, results, submitted, log


def test_t15_serve_throughput(benchmark, results_dir, tmp_path):
    wall, latencies, results, submitted, log = benchmark.pedantic(
        lambda: _run_burst(tmp_path / "serve"), rounds=1, iterations=1)

    jobs_per_sec = N_JOBS / wall
    p50 = latencies[len(latencies) // 2]
    p95 = latencies[min(len(latencies) - 1,
                        int(round(0.95 * (len(latencies) - 1))))]

    # Correctness spot-check: one served job against its solo run.
    job_id, (_, seed, _) = next(iter(submitted.items()))
    solo = MonteCarloShapley(n_permutations=N_PERMUTATIONS,
                             seed=seed).score(_utility())
    assert [float(v).hex() for v in results[job_id]] \
        == [float(v).hex() for v in solo]

    # Fair-share audit: everything dispatched, per-tenant counts match
    # the offered load (8 alice, 4 bob).
    assert len(log) == N_JOBS
    offered = {"alice": sum(1 for t, _, _ in submitted.values()
                            if t == "alice"),
               "bob": sum(1 for t, _, _ in submitted.values()
                          if t == "bob")}
    assert log.count("alice") == offered["alice"]
    assert log.count("bob") == offered["bob"]

    benchmark.extra_info.update({
        "jobs": N_JOBS, "workers": WORKERS,
        "jobs_per_sec": round(jobs_per_sec, 2),
        "latency_p50_ms": round(1e3 * p50, 2),
        "latency_p95_ms": round(1e3 * p95, 2),
    })
    write_result(results_dir, "t15_serve_throughput", [
        "T15  serving-tier throughput (shapley_mc jobs, "
        f"{N_PERMUTATIONS} permutations each)",
        f"jobs={N_JOBS}  workers={WORKERS}  tenants=alice:2 bob:1  "
        f"wall={wall:.3f}s",
        f"throughput: {jobs_per_sec:.2f} jobs/sec",
        f"latency: p50={1e3 * p50:.1f}ms  p95={1e3 * p95:.1f}ms  "
        f"max={1e3 * latencies[-1]:.1f}ms",
        f"dispatch log: {' '.join(log)}",
        "served scores bit-identical to solo serial run: yes",
    ])
    assert jobs_per_sec > 0.5  # sanity floor, not a perf gate
    assert np.isfinite(p95)
