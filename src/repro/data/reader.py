"""The fault-tolerant prefetching reading service.

:class:`ShardReader` streams a :class:`~repro.data.ShardedDataset` shard
by shard, in manifest order, while the ``workers`` threads of one
:class:`~repro.runtime.ThreadExecutor` read ahead — modeled on the
torchdata ``dataloader2`` reading-service protocol. A pass is one
executor ``imap`` with one shard per chunk: the consumer asks the
stream for each shard in turn, and at most ``workers * prefetch``
shards are submitted and not yet passed on, the consumer's current one
included (backpressure: a slow consumer stalls the reads, it never
balloons memory). Each shard the consumer takes lets one more read
start, so reads never wait for a slower neighbour. The service supports
``pause()`` / ``resume()`` plus ``snapshot()`` / ``restore`` of the
read position.

Fault recovery is the executor's, under the same
:class:`~repro.runtime.FaultPolicy` every ``map`` speaks, so the
stream's content is identical with or without a recovered fault:

- A failed shard read (IO error, checksum mismatch) is retried within
  the shard's ``retries`` budget, with deterministic linear backoff.
- A read **stuck** past the policy's ``timeout`` is abandoned and
  resubmitted; it consumes one of the shard's retries. Threads cannot
  be interrupted, so a new worker takes the stuck thread's place, and
  neither :meth:`ShardReader.close` nor interpreter exit waits for it.
- A **crashed thread pool** (``BrokenThreadPool``) is rebuilt and only
  the submitted shards not loaded yet are resubmitted, at most
  ``max_worker_crashes`` times per iteration pass.
- A shard that stays **corrupt** after retries follows the
  ``on_corrupt`` policy: ``"raise"`` propagates a
  :class:`~repro.data.ShardCorruptionError`; ``"quarantine"`` first
  tries to heal the primary from the dataset's ``mirror/`` replica
  (stream content unchanged — bit-identical), else moves the damaged
  file into ``quarantine/`` and skips that shard, recording it in
  :attr:`ShardReader.quarantined`. Either way a new stream then reads
  the remaining shards that are neither loaded nor quarantined; shards
  already loaded are not read again.

Every incident feeds ``repro.observe``: ``data.*`` counters
(``read_retries`` / ``worker_crashes`` / ``read_timeouts`` /
``quarantined_shards`` / ``shards_healed``) plus per-incident
``reader.fault`` and per-snapshot ``reader.snapshot`` runlog events.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.exceptions import ValidationError
from repro.data.shards import ShardCorruptionError, resolve_dataset
from repro.observe.observer import resolve_observer
from repro.runtime.executor import ThreadExecutor
from repro.runtime.faults import TaskError, resolve_fault_policy

__all__ = ["ShardBatch", "ShardReader", "read_arrays"]

#: Corrupt-shard policies: propagate, or quarantine (heal from mirror
#: when possible, else skip the shard and record it).
CORRUPT_MODES = ("raise", "quarantine")

#: Snapshot payload version (see :meth:`ShardReader.snapshot`).
READER_SNAPSHOT_SCHEMA = 1


@dataclass(frozen=True)
class ShardBatch:
    """One delivered shard: global index, row offset, decoded arrays."""

    index: int
    offset: int
    rows: int
    arrays: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]


class ShardReader:
    """Multi-worker prefetch iterator over a sharded dataset.

    Parameters
    ----------
    dataset:
        :class:`~repro.data.ShardedDataset` or dataset directory path.
    workers:
        Read threads of the reader's
        :class:`~repro.runtime.ThreadExecutor`.
    prefetch:
        Read-ahead depth in units of ``workers`` shards: at most
        ``workers * prefetch`` shards are loaded or loading and not yet
        passed on, the consumer's current one included, whatever the
        dataset size. With ``workers=1, prefetch=1`` reads do not
        overlap the consumer.
    faults:
        :class:`~repro.runtime.FaultPolicy` (or dict / ``None``)
        governing per-shard read retries, backoff, the per-shard
        timeout, and ``max_worker_crashes`` — the bound on thread-pool
        rebuilds per iteration pass. Its ``on_worker_failure`` is
        always ``"retry"``: the reader rebuilds, it never degrades.
    on_corrupt:
        ``"raise"`` (default) or ``"quarantine"`` — see the module
        docstring.
    start:
        First shard index to deliver (the snapshot-restore entry point;
        see :meth:`from_snapshot`).
    observer:
        Optional :class:`repro.observe.Observer`.
    load_fn:
        Read-path override ``load_fn(dataset, index) -> arrays dict``;
        defaults to checksum-verified :meth:`ShardedDataset.load_shard`.
        The fault-injection seam the robustness suite drives.

    Iterating yields :class:`ShardBatch` in manifest order regardless of
    worker count or fault history. The reader is single-pass: iterate
    once, then build a fresh reader (or restore from a snapshot).
    """

    def __init__(self, dataset, *, workers: int = 2, prefetch: int = 2,
                 faults=None, on_corrupt: str = "raise", start: int = 0,
                 observer=None, load_fn=None):
        self.dataset = resolve_dataset(dataset, observer=observer)
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        if prefetch < 1:
            raise ValidationError("prefetch must be >= 1")
        if on_corrupt not in CORRUPT_MODES:
            raise ValidationError(
                f"on_corrupt must be one of {CORRUPT_MODES} — got "
                f"{on_corrupt!r}")
        if not 0 <= start <= self.dataset.n_shards:
            raise ValidationError(
                f"start shard {start} out of range "
                f"[0, {self.dataset.n_shards}]")
        self.workers = workers
        self.prefetch = prefetch
        self.faults = resolve_fault_policy(faults, on_worker_failure="retry")
        self.on_corrupt = on_corrupt
        self.observer = resolve_observer(observer)
        self._load_fn = load_fn
        self._position = start
        self.quarantined: list[int] = []
        self._executor = ThreadExecutor(workers)
        self._closed = False
        self._resumed = threading.Event()
        self._resumed.set()
        self._start_time = time.monotonic()

    # -- snapshot / restore ------------------------------------------------
    def snapshot(self) -> dict:
        """Serializable read position: the next shard to deliver plus the
        quarantine record. Feed the dict into a checkpoint payload and
        rebuild with :meth:`from_snapshot` to resume the stream exactly
        where it stopped."""
        state = {"schema": READER_SNAPSHOT_SCHEMA,
                 "next_index": int(self._position),
                 "quarantined": [int(i) for i in self.quarantined]}
        if self.observer.enabled:
            self.observer.event("reader.snapshot",
                                next_index=state["next_index"],
                                quarantined=len(state["quarantined"]),
                                n_shards=self.dataset.n_shards)
        return state

    @classmethod
    def from_snapshot(cls, dataset, state: dict, **kwargs) -> "ShardReader":
        """Rebuild a reader positioned at a :meth:`snapshot`'s state."""
        if not isinstance(state, dict) \
                or state.get("schema") != READER_SNAPSHOT_SCHEMA:
            raise ValidationError(
                "not a reader snapshot (missing/unknown schema); pass the "
                "dict ShardReader.snapshot() returned")
        reader = cls(dataset, start=int(state["next_index"]), **kwargs)
        reader.quarantined = [int(i) for i in state.get("quarantined", [])]
        return reader

    # -- pause / resume ----------------------------------------------------
    def pause(self) -> None:
        """Suspend the stream (the torchdata reading-service pause verb
        — used around phase boundaries and snapshots).

        The consumer's next request for a shard blocks until
        :meth:`resume`, so no new read is submitted. Reads already
        submitted (at most ``workers * prefetch``) run to completion,
        and no read timeout is checked while paused.
        """
        self._resumed.clear()

    def resume(self) -> None:
        """Undo :meth:`pause`; the consumer's next request proceeds."""
        self._resumed.set()

    @property
    def paused(self) -> bool:
        return not self._resumed.is_set()

    # -- reading -----------------------------------------------------------
    def _load(self, dataset, index: int) -> dict:
        if self._load_fn is not None:
            return self._load_fn(dataset, index)
        return dataset.load_shard(index, observer=self.observer)

    def _record_fault(self, kind: str, index: int, attempt: int,
                      error: str) -> None:
        if not self.observer.enabled:
            return
        counter = {"retry": "data.read_retries",
                   "worker_crash": "data.worker_crashes",
                   "timeout": "data.read_timeouts",
                   "quarantine": "data.quarantined_shards",
                   "corrupt_healed": "data.shards_healed"}[kind]
        self.observer.count(counter)
        self.observer.event("reader.fault", fault=kind, shard=index,
                            attempt=attempt, error=error,
                            elapsed=time.monotonic() - self._start_time)

    def start(self) -> None:
        """Start the pass clock that ``reader.fault`` events report
        (implicit on first iteration)."""
        self._start_time = time.monotonic()

    def __iter__(self):
        self.start()
        n_shards = self.dataset.n_shards
        offset = self.dataset.row_offset(self._position)
        loaded: dict = {}  # shards read and not delivered yet
        healed: set[int] = set()
        crashes = 0  # thread-pool crashes so far in this pass
        first = self._position  # the stream's first shard

        def load(dataset, index):
            # A restarted stream skips what its predecessor dealt with.
            if index not in loaded and index not in self.quarantined:
                loaded[index] = self._load(dataset, index)

        def on_fault(event):
            nonlocal crashes
            crashes += event.kind == "worker_crash"
            self._record_fault(event.kind, first + event.chunk_index,
                               event.attempt, event.error)

        def read(policy):
            return self._executor.imap(
                load, range(first, n_shards),
                inflight=self.workers * self.prefetch, shared=self.dataset,
                chunk_size=1, stage="data.read", faults=policy,
                fault_hook=on_fault)

        stream = read(self.faults)
        try:
            for index in range(self._position, n_shards):
                while True:  # one pull per shard, in order
                    self._resumed.wait()  # paused: no pull, no new read
                    if self._closed:
                        raise ValidationError("reader is closed")
                    try:
                        next(stream)
                        break
                    except TaskError as error:
                        self._recover(first + error.chunk_index, error,
                                      healed)
                    # Restart from this shard. The crash budget is per
                    # pass: the new stream gets what is left of it.
                    first = index
                    stream = read(replace(self.faults, max_worker_crashes=(
                        self.faults.max_worker_crashes - crashes)))
                rows = self.dataset.shards[index].rows
                self._position = index + 1
                if index in loaded:
                    yield ShardBatch(index=index, offset=offset, rows=rows,
                                     arrays=loaded.pop(index))
                offset += rows
        finally:
            stream.close()
            self.close()

    def _recover(self, index: int, error: TaskError, healed: set) -> None:
        """Answer a read of shard ``index`` that failed past its budget:
        re-raise, or under ``"quarantine"`` heal a corrupt shard (once)
        or quarantine it."""
        cause = error.__cause__
        if not isinstance(cause, ShardCorruptionError):
            raise TaskError(stage="data.read", chunk_index=index,
                            backend="reader", attempts=error.attempts,
                            cause=cause) from cause
        if self.on_corrupt == "raise":
            raise cause from None
        if index not in healed and self.dataset.heal_from_mirror(index):
            healed.add(index)
            self._record_fault("corrupt_healed", index, 0, repr(cause))
        else:
            self.dataset.quarantine_shard(index)
            self.quarantined.append(index)
            self._record_fault("quarantine", index, 0, repr(cause))

    def read_all(self) -> dict[str, np.ndarray]:
        """Stream every remaining shard and concatenate per array name.

        The concatenation is bit-identical to the arrays the dataset was
        written from (quarantined shards excepted — under the
        ``"raise"`` policy it is *always* bit-identical or an error).
        """
        parts: dict[str, list] = {name: []
                                  for name in self.dataset.array_names}
        for batch in self:
            for name in parts:
                parts[name].append(batch.arrays[name])
        out: dict[str, np.ndarray] = {}
        for name, chunks in parts.items():
            if not chunks:
                raise ValidationError(
                    "no shards were delivered (all quarantined?)")
            out[name] = np.concatenate(chunks)
        return out

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Stop reading and release the read threads. Idempotent.

        Waits for the reads that are running, but never for a read
        abandoned on timeout: the executor does not join its thread."""
        self._closed = True
        self._resumed.set()  # wake a consumer blocked on pause
        self._executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"ShardReader({str(self.dataset.path)!r}, "
                f"workers={self.workers}, prefetch={self.prefetch}, "
                f"position={self._position}/{self.dataset.n_shards})")


def read_arrays(dataset, *, observer=None, **reader_kwargs
                ) -> dict[str, np.ndarray]:
    """Load a sharded dataset back into memory through the reading
    service; returns ``{array_name: concatenated array}``.

    This is the out-of-core loops' assembly path: faults permitted by
    the reader's policy (worker crashes, retried reads, mirror-healed
    corruption) never change a byte of the result.
    """
    dataset = resolve_dataset(dataset, observer=observer)
    with ShardReader(dataset, observer=observer, **reader_kwargs) as reader:
        return reader.read_all()
