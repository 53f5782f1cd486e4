"""Streaming transforms over sharded datasets — error injection at scale.

:func:`transform_shards` is the out-of-core mapping primitive: stream an
input dataset through the fault-tolerant reading service, apply a pure
per-shard function, and publish the results as a new sharded dataset —
one shard resident at a time, with :class:`~repro.runtime.LoopCheckpointer`
wiring so a SIGKILLed pass resumes where it stopped (the checkpoint
payload carries the :meth:`~repro.data.ShardReader.snapshot` read
position) and produces an identical output dataset.

Determinism is per-shard: randomness comes from per-shard spawned
``SeedSequence`` streams, so the transform of shard ``k`` depends only
on (seed, ``k``, shard ``k``'s content) — never on worker count, read
order, crash history, or where a resume cut the pass.

On top of it, the sharded counterparts of the
:mod:`repro.errors` vector injectors:

- :func:`inject_label_errors_sharded` — flip a fraction of labels per
  shard (the Figure-2 noise model, out of core).
- :func:`inject_missing_sharded` — NaN-out a fraction of feature cells
  per shard.

Both return the output dataset plus ground-truth global row/cell
positions, the same contract their in-memory counterparts have.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.validation import check_fraction
from repro.data.reader import ShardReader
from repro.data.shards import (
    PARTIAL_MANIFEST_NAME,
    ShardWriter,
    resolve_dataset,
)
from repro.observe.observer import resolve_observer
from repro.runtime.checkpoint import LoopCheckpointer

__all__ = [
    "inject_label_errors_sharded",
    "inject_missing_sharded",
    "transform_shards",
]


def transform_shards(dataset, out_path, fn, *, seed=None, params=None,
                     mirror: bool = False, meta: dict | None = None,
                     checkpoint=None, checkpoint_every: int = 1,
                     resume_from=None, observer=None, workers: int = 2,
                     prefetch: int = 2, faults=None,
                     on_corrupt: str = "raise"):
    """Map ``fn`` over every shard of ``dataset`` into a new dataset.

    Parameters
    ----------
    fn:
        ``fn(index, arrays, rng) -> (out_arrays, side)`` — a pure
        function of the shard index, its decoded arrays, and the
        shard's own spawned :class:`numpy.random.Generator` (``None``
        when ``seed`` is). ``side`` is a JSON-serializable per-shard
        record (e.g. which rows were corrupted) collected into the
        returned side list; use ``None`` when there is nothing to report.
    seed:
        Root seed; shard ``k`` transforms under spawned stream ``k``, so
        results are independent of worker count and resume points.
    params:
        Transform parameters folded into the checkpoint identity
        fingerprint (closures all share a qualified name — without
        this, resuming an ``0.1``-fraction pass from a ``0.2`` store
        would go undetected).
    checkpoint / checkpoint_every / resume_from:
        Durable progress via :class:`~repro.runtime.LoopCheckpointer`:
        the payload carries the reader snapshot and per-shard sides. A
        killed pass resumed with ``resume_from=`` (and the same
        ``out_path``) continues after the last *published* output shard
        — the writer's journal is the source of truth, so a crash
        between publish and checkpoint flush never duplicates a shard —
        and finishes with a dataset identical to an uninterrupted run.
    workers / prefetch / faults / on_corrupt:
        Reading-service knobs (see :class:`~repro.data.ShardReader`).

    Returns ``(out_dataset, sides)`` where ``sides[k]`` is shard ``k``'s
    side record.
    """
    dataset = resolve_dataset(dataset, observer=observer)
    observer = resolve_observer(observer)
    out_path = Path(out_path)
    streams = (np.random.SeedSequence(seed).spawn(dataset.n_shards)
               if seed is not None else [None] * dataset.n_shards)

    ckpt = LoopCheckpointer(
        checkpoint, kind="data.transform",
        identity=("checkpoint.data.transform",
                  getattr(fn, "__name__", "custom"), params, seed,
                  [info.sha256 for info in dataset.shards]),
        every=checkpoint_every, observer=observer, resume_from=resume_from)

    # The output writer's journal decides where to continue: every
    # journaled shard was published atomically and checksummed, so
    # "resume after writer.n_shards" can neither tear nor duplicate.
    if (out_path / PARTIAL_MANIFEST_NAME).exists():
        writer = ShardWriter.resume(out_path, mirror=mirror,
                                    observer=observer)
    else:
        writer = ShardWriter(out_path, mirror=mirror, observer=observer)
    completed = writer.n_shards

    def shard_rng(index: int):
        return (np.random.default_rng(streams[index])
                if streams[index] is not None else None)

    payload = ckpt.resume()
    sides = list(payload["sides"])[:completed] if payload is not None else []
    # Shards published before the last checkpoint flush landed (or when
    # no checkpoint is in play at all): rebuild their side records by
    # replaying the deterministic transform, without writing anything.
    for index in range(len(sides), completed):
        _, side = fn(index, dataset.load_shard(index, observer=observer),
                     shard_rng(index))
        sides.append(side)
    if payload is not None:
        ckpt.record_skipped(completed=completed, total=dataset.n_shards,
                            method="data.transform")

    reader = ShardReader(dataset, workers=workers, prefetch=prefetch,
                         faults=faults, on_corrupt=on_corrupt,
                         start=completed, observer=observer)

    def snapshot() -> dict:
        return {"completed": completed, "reader": reader.snapshot(),
                "sides": list(sides)}

    # Rebuilt after each published shard: a signal flush persists the
    # last consistent state.
    state = snapshot()
    with ckpt.armed(lambda: state):
        with reader:
            for batch in reader:
                out_arrays, side = fn(batch.index, batch.arrays,
                                      shard_rng(batch.index))
                writer.append(out_arrays)
                sides.append(side)
                completed = batch.index + 1
                state = snapshot()
                ckpt.maybe_flush(completed)
        out_meta = dict(meta or {})
        out_meta.setdefault("transform", getattr(fn, "__name__", "custom"))
        out_dataset = writer.finalize(out_meta)
        ckpt.flush()  # the final record, before the guard drops the state
    return out_dataset, sides


def _collect_classes(dataset, label: str) -> np.ndarray:
    """One streaming pass over the label array to learn the class set
    (flip targets must be drawn from the *global* classes, which no
    single shard is guaranteed to contain)."""
    classes: set = set()
    for index in range(dataset.n_shards):
        arrays = dataset.load_shard(index)
        if label not in arrays:
            raise ValidationError(
                f"dataset has no array named {label!r}; "
                f"have {dataset.array_names}")
        classes.update(np.unique(arrays[label]).tolist())
    if len(classes) < 2:
        raise ValidationError("need at least two classes to flip labels")
    return np.array(sorted(classes))


def inject_label_errors_sharded(dataset, out_path, *, label: str = "y",
                                fraction: float = 0.1, seed=0,
                                classes=None, **transform_kwargs):
    """Flip a per-shard fraction of labels, out of core.

    Each shard ``k`` flips ``round(fraction * rows_k)`` uniformly chosen
    rows to a different class under its own spawned RNG stream — the
    per-shard analogue of
    :func:`repro.errors.inject_label_errors_array`, deterministic for a
    given ``(seed, dataset)`` no matter how the stream is read or
    resumed. ``classes`` (the global flip-target pool) is collected in a
    streaming pre-pass when not supplied.

    Returns ``(out_dataset, flipped)`` with ``flipped`` the sorted
    global row positions that were corrupted.
    """
    check_fraction(fraction, name="fraction")
    dataset = resolve_dataset(dataset)
    classes = _collect_classes(dataset, label) if classes is None \
        else np.asarray(classes)

    def flip_labels(index, arrays, rng):
        y = np.asarray(arrays[label]).copy()
        n_flip = int(round(fraction * len(y)))
        positions = np.sort(rng.choice(len(y), size=n_flip, replace=False))
        for p in positions:
            alternatives = classes[classes != y[p]]
            y[p] = alternatives[int(rng.integers(0, len(alternatives)))]
        out = dict(arrays)
        out[label] = y
        return out, [int(p) for p in positions]

    out_dataset, sides = transform_shards(
        dataset, out_path, flip_labels, seed=seed,
        params={"inject": "label_errors", "label": label,
                "fraction": float(fraction),
                "classes": [str(c) for c in classes.tolist()]},
        meta={"inject": "label_errors", "fraction": float(fraction)},
        **transform_kwargs)
    flipped = [out_dataset.row_offset(k) + p
               for k, side in enumerate(sides) for p in side]
    return out_dataset, np.array(sorted(flipped), dtype=int)


def inject_missing_sharded(dataset, out_path, *, features: str = "X",
                           fraction: float = 0.1, seed=0,
                           **transform_kwargs):
    """NaN-out a per-shard fraction of feature cells, out of core.

    The per-shard analogue of
    :func:`repro.errors.inject_missing_array` (MCAR): each shard holes
    ``round(fraction * rows_k)`` cells per feature column under its own
    spawned stream. Returns ``(out_dataset, cells)`` where ``cells`` is
    an ``(n, 2)`` array of global ``(row, column)`` positions.
    """
    check_fraction(fraction, name="fraction")
    dataset = resolve_dataset(dataset)

    def hole_cells(index, arrays, rng):
        X = np.asarray(arrays[features], dtype=float).copy()
        if X.ndim != 2:
            raise ValidationError(f"array {features!r} must be 2-dimensional")
        holes: list[list[int]] = []
        for j in range(X.shape[1]):
            candidates = np.flatnonzero(~np.isnan(X[:, j]))
            n_missing = min(int(round(fraction * X.shape[0])),
                            len(candidates))
            if n_missing == 0:
                continue
            chosen = rng.choice(candidates, size=n_missing, replace=False)
            X[chosen, j] = np.nan
            holes.extend([int(r), int(j)] for r in np.sort(chosen))
        out = dict(arrays)
        out[features] = X
        return out, holes

    out_dataset, sides = transform_shards(
        dataset, out_path, hole_cells, seed=seed,
        params={"inject": "missing", "features": features,
                "fraction": float(fraction)},
        meta={"inject": "missing", "fraction": float(fraction)},
        **transform_kwargs)
    cells = [(out_dataset.row_offset(k) + row, col)
             for k, side in enumerate(sides) for row, col in side]
    cells.sort()
    return out_dataset, np.array(cells, dtype=int).reshape(-1, 2)
