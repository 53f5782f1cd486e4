"""Experiment T18 — reading service: prefetch hides storage latency.

The claim behind ``repro.data.ShardReader``: with shard reads run as
one executor ``imap`` that keeps ``workers * prefetch`` shards in
flight, shard fetches overlap, so a consumer
draining the stream in manifest order finishes in roughly
``latency * n_shards / workers`` instead of the single-threaded
``latency * n_shards`` — while the delivered bytes stay bit-identical
to a sequential pass. Storage latency is simulated (a fixed sleep per
shard load) so the measurement is stable on shared CI runners; the
speedup floor is deliberately conservative next to the ``workers``-fold
ideal. Artifact: ``results/t18_reading_service.txt``.
"""

import time

import numpy as np

from repro.data import ShardReader, write_shards
from repro.observe import Observer

from .conftest import write_result

N_SHARDS = 16
ROWS_PER_SHARD = 256
LATENCY = 0.02       # simulated per-shard storage fetch
WORKERS = 4
SPEEDUP_FLOOR = 2.0  # ideal is WORKERS-fold; stay conservative for CI


def _slow_load(dataset, index):
    time.sleep(LATENCY)
    return dataset.load_shard(index)


def test_t18_prefetch_throughput(benchmark, results_dir, tmp_path):
    rng = np.random.default_rng(18)
    X = rng.normal(size=(N_SHARDS * ROWS_PER_SHARD, 8))
    dataset = write_shards(tmp_path / "bench", {"X": X},
                           rows_per_shard=ROWS_PER_SHARD)

    def sequential_pass():
        return np.concatenate([_slow_load(dataset, index)["X"]
                               for index in range(dataset.n_shards)])

    observer = Observer(run_id="t18")

    def prefetch_pass():
        with ShardReader(dataset, workers=WORKERS, prefetch=2,
                         load_fn=_slow_load, observer=observer) as reader:
            return np.concatenate([batch["X"] for batch in reader])

    started = time.perf_counter()
    reference = sequential_pass()
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    streamed = benchmark.pedantic(prefetch_pass, rounds=1, iterations=1)
    prefetch_seconds = time.perf_counter() - started

    assert streamed.tobytes() == reference.tobytes()
    speedup = sequential_seconds / prefetch_seconds

    benchmark.extra_info["sequential_seconds"] = round(sequential_seconds, 4)
    benchmark.extra_info["prefetch_seconds"] = round(prefetch_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    write_result(results_dir, "t18_reading_service", [
        f"shards: {N_SHARDS} x {ROWS_PER_SHARD} rows "
        f"(simulated fetch latency {LATENCY * 1000:.0f}ms/shard)",
        f"single-threaded pass: {sequential_seconds:.3f}s",
        f"prefetch pass ({WORKERS} workers, depth 2): "
        f"{prefetch_seconds:.3f}s",
        f"speedup: {speedup:.2f}x  (floor {SPEEDUP_FLOOR:.1f}x, "
        f"ideal {WORKERS:.1f}x)",
        "streams bit-identical: yes",
    ])

    assert speedup >= SPEEDUP_FLOOR, (
        f"prefetch speedup {speedup:.2f}x under the {SPEEDUP_FLOOR}x floor")
