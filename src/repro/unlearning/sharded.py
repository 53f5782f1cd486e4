"""Exact sharded unlearning (SISA-style; HedgeCut's trees in ref [17]
follow the same retrain-a-small-part principle).

Training data is partitioned into disjoint shards, one model per shard;
prediction is the ensemble majority vote. Deleting examples retrains only
the affected shards, so unlearning latency is ~``1/n_shards`` of a full
retrain while remaining *exact*: the post-deletion ensemble is identical
to one trained from scratch on the remaining data (same shard
assignment).

The same partition structure is what makes SISA out-of-core for free:
:meth:`ShardedUnlearner.fit_sharded` maps each shard of a
:class:`repro.data.ShardedDataset` to one SISA shard, streams the
initial pass through the fault-tolerant reading service, and reloads
only the touched shards from disk on ``unlearn`` — with an ensemble
identical to the in-memory ``fit(X, y, assignment=...)`` path.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import NotFittedError, ValidationError
from repro.core.rng import ensure_rng
from repro.core.validation import check_X_y
from repro.ml.base import clone


def _fit_members(model, X, y, members):
    """Train one shard member model (or ``None`` for a degenerate shard)."""
    if len(members) == 0 or len(np.unique(y[members])) < 2:
        return None  # degenerate shard abstains
    fitted = clone(model)
    fitted.fit(X[members], y[members])
    return fitted


def _fit_shard_task(shared, members):
    """In-memory shard training task.

    ``shared`` is ``(model_prototype, X, y)`` — constant across fit and
    every subsequent unlearn call, so a process runtime keeps one warm
    worker pool for the unlearner's whole lifetime.
    """
    model, X, y = shared
    return _fit_members(model, X, y, members)


def _fit_shard_from_disk_task(shared, task):
    """Out-of-core shard training task: load exactly one data shard
    (checksum-verified) and fit on its surviving rows.

    ``shared`` is ``(model_prototype, dataset, features, label)``. The
    open :class:`~repro.data.ShardedDataset` pickles as its manifest
    alone (no arrays, no observer), so the process backend ships no
    training data; each worker holds one shard resident at a time.
    Retrain reads are not counted as ``data.shards_read``: that count
    is the reading service's.
    """
    from repro.observe.observer import NULL_OBSERVER

    model, dataset, features, label = shared
    shard, members_local = task
    arrays = dataset.load_shard(shard, observer=NULL_OBSERVER)
    return _fit_members(model, arrays[features], arrays[label],
                        np.asarray(members_local, dtype=int))


class ShardedUnlearner:
    """Shard-ensemble classifier with exact deletion.

    Parameters
    ----------
    model:
        Unfitted estimator prototype (one clone per shard).
    n_shards:
        Number of disjoint shards; higher = faster deletion, weaker
        individual members.
    seed:
        Seed for the random shard assignment.
    runtime:
        Optional :class:`repro.runtime.Runtime` (or backend name): shard
        trainings — during ``fit`` and when ``unlearn`` touches several
        shards — run in parallel. Shards are disjoint, so the ensemble is
        identical on every backend.
    observer:
        Optional :class:`repro.observe.Observer`: spans ``sharded.fit``
        and ``sharded.unlearn``, counts unlearn requests / deleted rows /
        shard retrains, and logs per-call provenance events.
    checkpoint / resume_from:
        Durable deletion log: a snapshot (deleted row positions +
        retrain counter) is written after ``fit`` and after every
        ``unlearn`` call. A killed session resumed via ``resume_from=``
        re-applies the recorded deletions before the initial shard
        training — exactness of SISA sharding makes the rebuilt
        ensemble identical to the interrupted one — and restores the
        retrain counter. Requires an integer ``seed`` (the shard
        assignment must be regenerable).
    """

    def __init__(self, model, n_shards: int = 5, seed=0, runtime=None,
                 observer=None, checkpoint=None, resume_from=None):
        from repro.importance.base import require_checkpoint_seed
        from repro.observe.observer import resolve_observer
        from repro.runtime.runtime import Runtime, resolve_runtime

        if n_shards < 1:
            raise ValidationError("n_shards must be >= 1")
        self.model = model
        self.n_shards = n_shards
        self.seed = seed
        self.runtime = resolve_runtime(runtime)
        self._owns_runtime = (self.runtime is not None
                              and not isinstance(runtime, Runtime))
        self.observer = resolve_observer(observer)
        self.checkpoint = checkpoint
        self.resume_from = resume_from
        self._ckpt = None
        if checkpoint is not None or resume_from is not None:
            require_checkpoint_seed(seed, "ShardedUnlearner")

    def close(self) -> None:
        """Release the worker pool of a runtime this unlearner built for
        itself (``runtime="thread"`` / ``"process"``); a caller-provided
        :class:`~repro.runtime.Runtime` is left to its owner."""
        if self._owns_runtime and self.runtime is not None:
            self.runtime.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _open_checkpointer(self, *data_identity):
        """Build the deletion-log checkpointer once ``fit`` knows the
        data (the identity fingerprint covers model, sharding params,
        seed, and the training data — the arrays themselves in memory
        mode, the shard checksums + explicit assignment otherwise)."""
        from repro.runtime.cache import fingerprint
        from repro.runtime.checkpoint import LoopCheckpointer

        identity = fingerprint("checkpoint.unlearning.sharded",
                               self.n_shards, int(self.seed), self.model,
                               *data_identity)
        return LoopCheckpointer(self.checkpoint, kind="unlearning.sharded",
                                identity=identity, every=1,
                                observer=self.observer,
                                resume_from=self.resume_from)

    def _snapshot(self) -> None:
        """Persist the deletion log (one record per fit/unlearn call)."""
        if self._ckpt is None or not self._ckpt.active:
            return
        self._unlearn_calls += 1
        self._ckpt.arm(lambda: {
            "completed": self._unlearn_calls,
            "deleted": self._deleted,
            "retrain_counter": int(self.retrain_counter_)})
        self._ckpt.flush()

    def fit(self, X, y, assignment=None) -> "ShardedUnlearner":
        """Train the shard ensemble on in-memory arrays.

        ``assignment`` (optional) fixes each row's shard explicitly
        instead of drawing the assignment from ``seed`` — the bridge to
        :meth:`fit_sharded`, whose contiguous data-shard layout can be
        reproduced in memory for equivalence checks.
        """
        X, y = check_X_y(X, y)
        if len(X) < self.n_shards * 2:
            raise ValidationError(
                f"{len(X)} rows cannot fill {self.n_shards} shards"
            )
        if assignment is None:
            rng = ensure_rng(self.seed)
            self._shard_of = rng.integers(0, self.n_shards, size=len(X))
        else:
            assignment = np.asarray(assignment, dtype=int)
            if assignment.shape != (len(X),):
                raise ValidationError(
                    f"assignment must have one shard id per row "
                    f"({len(X)}); got shape {assignment.shape}")
            if np.any((assignment < 0) | (assignment >= self.n_shards)):
                raise ValidationError(
                    f"assignment shard ids must be in [0, {self.n_shards})")
            self._shard_of = assignment.copy()
        self._X = X.copy()
        self._y = y.copy()
        self._dataset = None
        self._n_rows = len(X)
        self._alive = np.ones(len(X), dtype=bool)
        self.models_ = [None] * self.n_shards
        self.retrain_counter_ = 0
        self._unlearn_calls = 0
        self._deleted: list[int] = []  # the deletion log, in request order
        restored = None
        if self.checkpoint is not None or self.resume_from is not None:
            self._ckpt = self._open_checkpointer(
                X, y, None if assignment is None else self._shard_of)
            restored = self._ckpt.resume()
        if restored is not None:
            # Re-apply the recorded deletions *before* the initial shard
            # training: SISA exactness means training the shards once on
            # the surviving rows reproduces the interrupted ensemble.
            deleted = self._deleted = [int(i) for i in restored["deleted"]]
            self._alive[deleted] = False
            self._ckpt.record_skipped(
                completed=int(restored["completed"]),
                method="unlearning.sharded", n_deleted=len(deleted))
        with self.observer.span("sharded.fit", rows=len(X),
                                shards=self.n_shards):
            self._train_shards(range(self.n_shards))
        if restored is not None:
            self.retrain_counter_ = int(restored["retrain_counter"])
            self._unlearn_calls = int(restored["completed"]) - 1
        if self.observer.enabled:
            self.observer.event("unlearning.fit", n_rows=len(X),
                                n_shards=self.n_shards, seed=self.seed)
        self._snapshot()
        return self

    def fit_sharded(self, dataset, *, features: str = "X",
                    label: str = "y", reader: dict | None = None
                    ) -> "ShardedUnlearner":
        """Train out of core: each data shard *is* one SISA shard.

        ``dataset`` is a :class:`repro.data.ShardedDataset` (or its
        path); ``n_shards`` is adopted from it. The initial pass streams
        through the fault-tolerant reading service (``reader=`` takes
        :class:`~repro.data.ShardReader` kwargs — ``workers``,
        ``faults``, ``on_corrupt`` ...), fitting one member per shard as
        batches arrive; the training arrays are never held whole in
        memory, and later ``unlearn`` calls reload only the touched
        shards from disk. The ensemble is identical to
        ``fit(X, y, assignment=contiguous)`` on the concatenated
        arrays — shard reads are bit-exact, so out-of-core changes
        nothing about the models.
        """
        from repro.data.reader import ShardReader
        from repro.data.shards import resolve_dataset

        dataset = resolve_dataset(dataset, observer=self.observer)
        self.n_shards = dataset.n_shards
        n_rows = dataset.n_rows
        if n_rows < self.n_shards * 2:
            raise ValidationError(
                f"{n_rows} rows cannot fill {self.n_shards} shards")
        rows = [info.rows for info in dataset.shards]
        self._shard_of = np.repeat(np.arange(self.n_shards), rows)
        self._offsets = np.concatenate([[0], np.cumsum(rows)[:-1]])
        self._X = self._y = None
        self._dataset = dataset
        self._features = features
        self._label = label
        self._n_rows = n_rows
        self._alive = np.ones(n_rows, dtype=bool)
        self.models_ = [None] * self.n_shards
        self.retrain_counter_ = 0
        self._unlearn_calls = 0
        self._deleted = []
        restored = None
        if self.checkpoint is not None or self.resume_from is not None:
            self._ckpt = self._open_checkpointer(
                [info.sha256 for info in dataset.shards], features, label)
            restored = self._ckpt.resume()
        if restored is not None:
            deleted = self._deleted = [int(i) for i in restored["deleted"]]
            self._alive[deleted] = False
            self._ckpt.record_skipped(
                completed=int(restored["completed"]),
                method="unlearning.sharded", n_deleted=len(deleted))
        with self.observer.span("sharded.fit", rows=n_rows,
                                shards=self.n_shards):
            with ShardReader(dataset, observer=self.observer,
                             **(reader or {})) as batches:
                for batch in batches:
                    members = np.flatnonzero(
                        self._alive[batch.offset:batch.offset + batch.rows])
                    model = _fit_members(self.model, batch[features],
                                         batch[label], members)
                    self.models_[batch.index] = model
                    if model is not None:
                        self.retrain_counter_ += 1
        if restored is not None:
            self.retrain_counter_ = int(restored["retrain_counter"])
            self._unlearn_calls = int(restored["completed"]) - 1
        if self.observer.enabled:
            self.observer.event("unlearning.fit", n_rows=n_rows,
                                n_shards=self.n_shards, seed=self.seed,
                                dataset=str(dataset.path))
        self._snapshot()
        return self

    def _train_shard(self, shard: int) -> None:
        self._train_shards([shard])

    def _train_shards(self, shards) -> None:
        shards = list(shards)
        if getattr(self, "_dataset", None) is not None:
            self._train_shards_from_disk(shards)
            return
        member_lists = [
            np.flatnonzero((self._shard_of == shard) & self._alive)
            for shard in shards
        ]
        shared = (self.model, self._X, self._y)
        if self.runtime is not None and len(shards) > 1:
            fitted = self.runtime.map(_fit_shard_task, member_lists,
                                      shared=shared, stage="sharded.train")
        else:
            fitted = [_fit_shard_task(shared, members)
                      for members in member_lists]
        for shard, model in zip(shards, fitted):
            self.models_[shard] = model
            if model is not None:
                self.retrain_counter_ += 1

    def _train_shards_from_disk(self, shards) -> None:
        """Out-of-core retrain: each task reloads exactly one
        checksum-verified data shard, so memory stays bounded by
        (workers × one shard) no matter how big the dataset is."""
        tasks = []
        for shard in shards:
            start = int(self._offsets[shard])
            stop = start + self._dataset.shards[shard].rows
            tasks.append((int(shard),
                          np.flatnonzero(self._alive[start:stop])))
        shared = (self.model, self._dataset, self._features, self._label)
        if self.runtime is not None and len(tasks) > 1:
            fitted = self.runtime.map(_fit_shard_from_disk_task, tasks,
                                      shared=shared, stage="sharded.train")
        else:
            fitted = [_fit_shard_from_disk_task(shared, task)
                      for task in tasks]
        for (shard, _), model in zip(tasks, fitted):
            self.models_[shard] = model
            if model is not None:
                self.retrain_counter_ += 1

    # ------------------------------------------------------------------
    def unlearn(self, indices) -> "ShardedUnlearner":
        """Delete training rows (by position) and retrain only their
        shards. Idempotent for already-deleted rows."""
        if not hasattr(self, "models_"):
            raise NotFittedError("fit before unlearning")
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        if np.any((indices < 0) | (indices >= self._n_rows)):
            raise ValidationError("unlearn index out of range")
        touched = set()
        deleted = 0
        for i in indices:
            if self._alive[i]:
                self._alive[i] = False
                self._deleted.append(int(i))
                deleted += 1
                touched.add(int(self._shard_of[i]))
        with self.observer.span("sharded.unlearn", rows=deleted,
                                shards=len(touched)):
            self._train_shards(sorted(touched))
        if self.observer.enabled:
            self.observer.count("unlearning.requests")
            self.observer.count("unlearning.rows_deleted", deleted)
            self.observer.count("unlearning.shard_retrains", len(touched))
            self.observer.event(
                "unlearning.unlearn", n_requested=len(indices),
                n_deleted=deleted, shards_retrained=sorted(touched),
                n_alive=self.n_alive)
        self._snapshot()
        return self

    @property
    def n_alive(self) -> int:
        return int(self._alive.sum())

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        if not hasattr(self, "models_"):
            raise NotFittedError("fit before predicting")
        X = np.asarray(X, dtype=float)
        votes = [m.predict(X) for m in self.models_ if m is not None]
        if not votes:
            raise ValidationError("every shard is degenerate; cannot predict")
        stacked = np.stack(votes)
        out = []
        for column in stacked.T:
            values, counts = np.unique(column, return_counts=True)
            out.append(values[np.argmax(counts)])
        return np.array(out)

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))
