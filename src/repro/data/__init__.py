"""Out-of-core sharded datasets with a fault-tolerant reading service.

The package gives the debugging loops a data path with the same
robustness contract PR 4–5 gave the compute path:

- :mod:`repro.data.shards` — the on-disk format: checksummed shards
  published atomically (:mod:`repro.runtime.durable`), a versioned manifest
  that only ever references complete shards, resumable writers, and a
  quarantine/mirror-heal story for corruption.
- :mod:`repro.data.reader` — :class:`ShardReader`: one
  :class:`~repro.runtime.ThreadExecutor` ``imap`` per pass, at most
  ``workers * prefetch`` shards read ahead, whose
  :class:`~repro.runtime.FaultPolicy` recovery (retries, timeouts,
  pool-crash resubmission of only the lost shards) is the executor's;
  pause / resume, and snapshot / restore of the read position.
- :mod:`repro.data.inject` — streaming per-shard transforms
  (checkpointable via :class:`~repro.runtime.LoopCheckpointer`) and the
  sharded counterparts of the :mod:`repro.errors` injectors.
- :mod:`repro.data.frame_io` — bitwise-lossless spill/load of
  :class:`~repro.dataframe.DataFrame` tables.

Everything is deterministic by construction: out-of-core runs produce
results hex-identical to the in-memory path on every backend, with or
without injected faults.
"""

from repro.data.frame_io import frame_from_shards, frame_to_shards
from repro.data.inject import (
    inject_label_errors_sharded,
    inject_missing_sharded,
    transform_shards,
)
from repro.data.reader import ShardBatch, ShardReader, read_arrays
from repro.data.shards import (
    MANIFEST_SCHEMA,
    ShardCorruptionError,
    ShardedDataset,
    ShardInfo,
    ShardWriter,
    resolve_dataset,
    write_shards,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "ShardBatch",
    "ShardCorruptionError",
    "ShardInfo",
    "ShardReader",
    "ShardWriter",
    "ShardedDataset",
    "frame_from_shards",
    "frame_to_shards",
    "inject_label_errors_sharded",
    "inject_missing_sharded",
    "read_arrays",
    "resolve_dataset",
    "transform_shards",
    "write_shards",
]
