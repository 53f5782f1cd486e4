"""``ooc``: the "learn" scenario out of core.

Set-up writes 64 shards of 2,000 rows with ``write_shards``. An episode
trains a ``ShardedUnlearner`` out of core with ``fit_sharded`` through
a two-worker ``ShardReader``, then serves a seeded stream of 300
single-row deletion requests, each followed by a checkpoint. One
operation is one deletion request.

The member model is ``GaussianNB``: its fit is closed-form, so a
request costs the same on every seed. An L-BFGS logistic regression
took 15 to 26 iterations per shard depending on the seed's data, which
moved the request latency by a quarter between seeds.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from repro.data import write_shards
from repro.datasets import make_blobs
from repro.ml import GaussianNB
from repro.observe import Observer
from repro.unlearning import ShardedUnlearner

from harness import BaseWorkload, total

N_SHARDS = 64
ROWS_PER_SHARD = 2000
N_FEATURES = 8
N_TEST = 1000
REQUESTS = 300
READERS = 2


class _ShardModel(GaussianNB):
    """The unlearner's member model; its fits are the unlearning layer's
    shard retrains (``clone`` keeps the subclass)."""

    rec = None

    def fit(self, X, y, *args, **kwargs):
        with type(self).rec.span("unlearning.shard_fit"):
            return super().fit(X, y, *args, **kwargs)


class Workload(BaseWorkload):
    primary = ("data", "unlearning", "checkpoint")

    def __init__(self, rec, seed: int, state):
        self.rec = rec
        self.seed = seed
        self.state = state
        self.setups = 0
        self.episodes = 0
        self.read_bytes = 0
        self.totals = {"unlearning.shard_retrains": 0,
                       "checkpoint.writes": 0, "checkpoint.bytes": 0}
        _ShardModel.rec = rec

    def setup(self):
        n = N_SHARDS * ROWS_PER_SHARD
        X, y = make_blobs(n + N_TEST, n_features=N_FEATURES, centers=2,
                          cluster_std=2.0, seed=self.seed)
        self.X, self.y = X[:n], y[:n]
        self.X_test = X[n:]
        path = self.state / f"shards-{self.setups}"
        self.setups += 1
        t0 = time.perf_counter()
        self.dataset = write_shards(path, {"X": self.X, "y": self.y},
                                    rows_per_shard=ROWS_PER_SHARD)
        self.write_s = time.perf_counter() - t0
        rng = np.random.default_rng(self.seed)
        self.requests = [int(i) for i in
                         rng.choice(n, size=REQUESTS, replace=False)]

    def _load(self, dataset, index):
        with self.rec.span("data.read"):
            arrays = dataset.load_shard(index)
        if self.rec.tracing:
            self.read_bytes += sum(a.nbytes for a in arrays.values())
        return arrays

    def _fit(self, observer=None):
        ckpt = self.state / f"ooc-ckpt-{self.episodes}"
        self.episodes += 1
        unlearner = ShardedUnlearner(_ShardModel(),
                                     seed=self.seed, observer=observer,
                                     checkpoint=ckpt)
        with self.rec.span("unlearning.fit"):
            unlearner.fit_sharded(self.dataset, reader={
                "workers": READERS, "load_fn": self._load})
        return unlearner, ckpt

    def warmup(self):
        unlearner, ckpt = self._fit()
        unlearner.unlearn([self.requests[0]])
        shutil.rmtree(ckpt, ignore_errors=True)

    def episode(self, traced: bool):
        observer = Observer() if traced else None
        unlearner, ckpt = self._fit(observer)
        ops = []
        for row in self.requests:
            t0 = time.perf_counter()
            with self.rec.span("unlearning.unlearn"):
                unlearner.unlearn([row])
            ops.append(time.perf_counter() - t0)
        self.unlearner = unlearner
        shutil.rmtree(ckpt, ignore_errors=True)
        if observer is not None:
            snap = observer.metrics.snapshot()
            for key in self.totals:
                self.totals[key] += snap.get(key, 0)
        self.ops = ops
        return ops

    def check(self):
        contiguous = np.repeat(np.arange(N_SHARDS), ROWS_PER_SHARD)
        reference = ShardedUnlearner(GaussianNB(),
                                     n_shards=N_SHARDS, seed=self.seed)
        reference.fit(self.X, self.y, assignment=contiguous)
        reference.unlearn(self.requests)
        served = self.unlearner.predict(self.X_test)
        expected = reference.predict(self.X_test)
        wrong = int(np.sum(served != expected))
        if wrong:
            return [f"{wrong}/{len(expected)} out-of-core predictions differ "
                    "from the in-memory fit after the same deletions"]
        return []

    def layer_metrics(self, n: int, stats: dict, other: dict) -> dict:
        read_s = total(other, "data.read")
        ops = sorted(self.ops)
        return {
            "data.write_s": self.write_s,
            "data.read_s": read_s / n,
            "data.read_mb_s": self.read_bytes / 1e6 / read_s
            if read_s else 0.0,
            # fit_sharded time not spent fitting shard members: the
            # consumer waiting for the reader
            "data.consumer_wait_s":
                total(stats, "unlearning.fit", "self") / n,
            "data.shards_read": total(other, "data.read", "calls") / n,
            "unlearning.unlearn_p50_ms": 1e3 * ops[len(ops) // 2],
            "unlearning.shard_retrains":
                self.totals["unlearning.shard_retrains"] / n,
            "checkpoint.writes": self.totals["checkpoint.writes"] / n,
            "checkpoint.bytes": self.totals["checkpoint.bytes"] / n,
        }

    def summary(self) -> dict:
        return {"requests": REQUESTS, "shards": N_SHARDS}
