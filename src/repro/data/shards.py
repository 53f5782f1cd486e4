"""The on-disk sharded dataset format: atomic, checksummed, resumable.

A sharded dataset is a directory of fixed-layout shard files plus a
versioned ``manifest.json``. The format's headline contract is
*robustness*: a SIGKILL at any byte boundary never leaves a torn shard
visible, and the manifest only ever references complete,
checksum-verified shards.

- **Shard files** hold one batch of named numpy arrays in a simple
  length-prefixed container (``.npy`` blobs behind a JSON header).
  Every shard is published atomically with
  :func:`repro.runtime.durable.publish` and its SHA-256 is recorded at
  write time.
- **The manifest** is the schema-versioned SHA-256 envelope of
  :mod:`repro.runtime.durable` (the shape of checkpoint records),
  published the same way. While a
  :class:`ShardWriter` is still appending, a *partial* manifest journal
  is re-published after every shard, so a killed writer can be resumed
  with :meth:`ShardWriter.resume` and the finished dataset is identical
  to one written in a single uninterrupted session.
- **Verification** happens on read: :meth:`ShardedDataset.load_shard`
  re-hashes the file and raises :class:`ShardCorruptionError` on any
  mismatch, which the reading service (:mod:`repro.data.reader`) turns
  into retry / quarantine / mirror-heal policy.

Layout of a dataset directory::

    dataset/
      manifest.json            # final manifest (absent while writing)
      manifest.partial.json    # writer journal (absent once finalized)
      shard-00000.shard
      shard-00001.shard
      mirror/                  # optional replica tier (mirror=True)
      quarantine/              # corrupt shards moved aside by the reader
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.exceptions import DataError, ValidationError
from repro.observe.observer import resolve_observer
from repro.runtime.durable import (  # noqa: F401  (re-exports the seam)
    _SLOW_PUBLISH_ENV,
    IntegrityError,
    encode_envelope,
    publish,
    read_envelope,
    read_verified,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "ShardCorruptionError",
    "ShardInfo",
    "ShardWriter",
    "ShardedDataset",
    "write_shards",
]

#: Manifest schema version; bumped on incompatible layout changes. An
#: unknown version is treated as corruption (explicit error, no guess).
MANIFEST_SCHEMA = 1

MANIFEST_NAME = "manifest.json"
PARTIAL_MANIFEST_NAME = "manifest.partial.json"
MIRROR_DIR = "mirror"
QUARANTINE_DIR = "quarantine"

_SHARD_PREFIX = "shard-"
_SHARD_SUFFIX = ".shard"
_MAGIC = b"RSHARD1\n"


class ShardCorruptionError(DataError):
    """A shard file failed checksum or container verification.

    Carries the shard ``index`` and ``path`` so the reading service can
    apply its quarantine policy to exactly the damaged file.
    """

    def __init__(self, message: str, *, index: int | None = None,
                 path: os.PathLike | str | None = None):
        super().__init__(message)
        self.index = index
        self.path = Path(path) if path is not None else None


@dataclass(frozen=True)
class ShardInfo:
    """One manifest entry: a complete, checksummed shard."""

    index: int
    name: str
    rows: int
    sha256: str
    nbytes: int

    def as_dict(self) -> dict:
        return {"index": self.index, "name": self.name, "rows": self.rows,
                "sha256": self.sha256, "nbytes": self.nbytes}

    @classmethod
    def from_dict(cls, entry: dict) -> "ShardInfo":
        return cls(index=int(entry["index"]), name=str(entry["name"]),
                   rows=int(entry["rows"]), sha256=str(entry["sha256"]),
                   nbytes=int(entry["nbytes"]))


# --- shard container (de)serialization --------------------------------------

def _pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays into the shard container format.

    Each array is an ``.npy`` blob (deterministic bytes for non-object
    dtypes); the header records name, offset, and length so arrays can
    be unpacked without trusting anything beyond the magic + header.
    """
    blobs: list[bytes] = []
    entries: list[dict] = []
    offset = 0
    for name, array in arrays.items():
        buffer = io.BytesIO()
        np.save(buffer, array, allow_pickle=True)
        blob = buffer.getvalue()
        entries.append({"name": str(name), "offset": offset,
                        "length": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"arrays": entries}, sort_keys=True).encode()
    return b"".join([_MAGIC, len(header).to_bytes(4, "little"), header,
                     *blobs])


def _unpack_arrays(data: bytes, *, index: int | None = None,
                   path=None) -> dict[str, np.ndarray]:
    """Decode a shard container; raises :class:`ShardCorruptionError`."""
    def corrupt(reason: str) -> ShardCorruptionError:
        where = f" ({path})" if path is not None else ""
        return ShardCorruptionError(
            f"shard {index if index is not None else '?'} is not a valid "
            f"shard container{where}: {reason}", index=index, path=path)

    if not data.startswith(_MAGIC):
        raise corrupt("bad magic")
    cursor = len(_MAGIC)
    if len(data) < cursor + 4:
        raise corrupt("truncated header length")
    header_len = int.from_bytes(data[cursor:cursor + 4], "little")
    cursor += 4
    try:
        header = json.loads(data[cursor:cursor + header_len])
    except ValueError as error:
        raise corrupt(f"garbled header: {error}") from error
    cursor += header_len
    arrays: dict[str, np.ndarray] = {}
    for entry in header.get("arrays", []):
        start = cursor + int(entry["offset"])
        end = start + int(entry["length"])
        if end > len(data):
            raise corrupt(f"array {entry['name']!r} extends past the file")
        try:
            arrays[entry["name"]] = np.load(io.BytesIO(data[start:end]),
                                            allow_pickle=True)
        except (ValueError, OSError) as error:
            raise corrupt(f"array {entry['name']!r} failed to decode: "
                          f"{error}") from error
    return arrays


# --- verified reads ---------------------------------------------------------

def _read_manifest(path: Path) -> dict | None:
    """Decode + verify one manifest file; ``None`` when absent, a
    :class:`ShardCorruptionError` when present but torn/garbled."""
    try:
        return read_envelope(path, MANIFEST_SCHEMA)[1]
    except FileNotFoundError:
        return None
    except OSError as error:
        raise ShardCorruptionError(
            f"manifest {path} is unreadable: {error}", path=path) from error
    except IntegrityError as error:
        raise ShardCorruptionError(
            f"manifest {path} failed verification: {error.reason}",
            path=path) from error


def _read_shard(path: Path, info: "ShardInfo", sha256: str | None) -> bytes:
    """Shard ``info``'s bytes at ``path``, checked against ``sha256``
    unless it is ``None``; :class:`ShardCorruptionError` otherwise."""
    index = info.index
    try:
        return read_verified(path, sha256)
    except IntegrityError as error:
        raise ShardCorruptionError(
            f"shard {index} fails its checksum ({path}): the file was "
            "modified or torn after publication", index=index,
            path=path) from error
    except FileNotFoundError as error:
        quarantined = path.parent / QUARANTINE_DIR / info.name
        hint = " (it sits in quarantine/)" if quarantined.exists() else ""
        raise ShardCorruptionError(f"shard {index} is missing{hint}: {path}",
                                   index=index, path=path) from error
    except OSError as error:
        raise ShardCorruptionError(
            f"shard {index} is unreadable ({path}): {error}",
            index=index, path=path) from error


def _shard_name(index: int) -> str:
    return f"{_SHARD_PREFIX}{index:05d}{_SHARD_SUFFIX}"


# --- the writer -------------------------------------------------------------

class ShardWriter:
    """Append-only sharded dataset writer with crash-safe publication.

    Parameters
    ----------
    path:
        Dataset directory (created on demand). Refuses a directory that
        already holds a *finalized* dataset; a directory with a partial
        manifest (a killed writer) must be reopened via :meth:`resume`.
    mirror:
        Also publish a verified replica of every shard under
        ``mirror/`` — the tier the reading service heals corrupted
        primaries from under its quarantine policy.
    observer:
        Optional :class:`repro.observe.Observer`; feeds the
        ``data.shards_written`` / ``data.bytes_written`` counters.

    Every :meth:`append` publishes the shard file atomically and then
    re-publishes the *partial manifest* journal (same atomic sequence),
    so at every instant the journal references only complete,
    checksummed shards. :meth:`finalize` publishes the final manifest
    and removes the journal; a writer killed at any point resumes with
    ``ShardWriter.resume(path)`` and loses at most the shard whose
    rename had not yet landed.
    """

    def __init__(self, path: str | os.PathLike, *, mirror: bool = False,
                 observer=None, _resumed_shards: list[ShardInfo] | None = None,
                 _meta: dict | None = None):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / MANIFEST_NAME).exists():
            raise ValidationError(
                f"{self.path} already holds a finalized dataset; write to a "
                "fresh directory (or delete the old dataset first)")
        if _resumed_shards is None \
                and (self.path / PARTIAL_MANIFEST_NAME).exists():
            raise ValidationError(
                f"{self.path} holds a partial dataset from a killed writer; "
                "reopen it with ShardWriter.resume(path) to continue, or "
                "clear the directory to start over")
        self.mirror = bool(mirror)
        if self.mirror:
            (self.path / MIRROR_DIR).mkdir(exist_ok=True)
        self.observer = resolve_observer(observer)
        self.shards: list[ShardInfo] = list(_resumed_shards or [])
        self.array_names: list[str] | None = None
        self.meta: dict = dict(_meta or {})
        self._finalized = False
        if _resumed_shards is None:
            self._sweep_temp_files()
        self._publish_partial()

    # -- resume ------------------------------------------------------------
    @classmethod
    def resume(cls, path: str | os.PathLike, *, mirror: bool | None = None,
               observer=None) -> "ShardWriter":
        """Reopen a killed writer's directory and continue appending.

        The partial-manifest journal is verified (envelope hash) and
        every journaled shard is re-checksummed; the writer continues
        after the last complete shard. Stray temp files from the killed
        publish are swept. A journal that never landed (killed before
        the first append) resumes as an empty writer.
        """
        path = Path(path)
        if (path / MANIFEST_NAME).exists():
            raise ValidationError(
                f"{path} is already finalized; nothing to resume")
        payload = _read_manifest(path / PARTIAL_MANIFEST_NAME)
        shards: list[ShardInfo] = []
        meta: dict = {}
        journal_mirror = False
        if payload is not None:
            shards = [ShardInfo.from_dict(e) for e in payload["shards"]]
            meta = dict(payload.get("meta", {}))
            journal_mirror = bool(payload.get("mirror", False))
        writer = cls(path, mirror=journal_mirror if mirror is None else mirror,
                     observer=observer, _resumed_shards=shards, _meta=meta)
        writer.array_names = payload.get("arrays") if payload else None
        writer._sweep_temp_files()
        for info in shards:
            _read_shard(path / info.name, info, info.sha256)
        return writer

    def _sweep_temp_files(self) -> None:
        """Remove temp files a killed publish left behind (never visible
        to readers, but they waste space and confuse humans)."""
        for directory in (self.path, self.path / MIRROR_DIR):
            for stray in directory.glob("*.tmp"):
                with contextlib.suppress(OSError):
                    stray.unlink()

    # -- append ------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_rows(self) -> int:
        return sum(info.rows for info in self.shards)

    def append(self, arrays: dict[str, np.ndarray]) -> ShardInfo:
        """Publish one shard atomically and journal it.

        ``arrays`` maps array name to a numpy array; every array must
        have the same leading length (the shard's row count), and every
        shard in a dataset must carry the same array names.
        """
        if self._finalized:
            raise ValidationError("writer is finalized; no more appends")
        if not arrays:
            raise ValidationError("a shard needs at least one array")
        arrays = {str(name): np.asarray(values)
                  for name, values in arrays.items()}
        names = list(arrays)
        lengths = {name: len(array) for name, array in arrays.items()}
        rows = lengths[names[0]]
        if any(length != rows for length in lengths.values()):
            raise ValidationError(
                f"shard arrays must share one length — got {lengths}")
        if self.array_names is None:
            self.array_names = names
        elif names != self.array_names:
            raise ValidationError(
                f"shard arrays {names} do not match the dataset's "
                f"{self.array_names}")
        index = len(self.shards)
        data = _pack_arrays(arrays)
        digest = hashlib.sha256(data).hexdigest()
        name = _shard_name(index)
        publish(self.path / name, data)
        if self.mirror:
            publish(self.path / MIRROR_DIR / name, data)
        info = ShardInfo(index=index, name=name, rows=rows, sha256=digest,
                         nbytes=len(data))
        self.shards.append(info)
        self._publish_partial()
        if self.observer.enabled:
            self.observer.count("data.shards_written")
            self.observer.count("data.bytes_written", len(data))
        return info

    def _manifest_payload(self, *, partial: bool) -> dict:
        return {
            "partial": partial,
            "arrays": self.array_names,
            "n_rows": self.n_rows,
            "n_shards": self.n_shards,
            "mirror": self.mirror,
            "meta": self.meta,
            "shards": [info.as_dict() for info in self.shards],
        }

    def _publish_partial(self) -> None:
        publish(self.path / PARTIAL_MANIFEST_NAME,
                encode_envelope(MANIFEST_SCHEMA,
                                self._manifest_payload(partial=True)))

    # -- finalize ----------------------------------------------------------
    def finalize(self, meta: dict | None = None) -> "ShardedDataset":
        """Publish the final manifest; the dataset becomes readable.

        The journal is removed after the manifest lands, so a kill
        inside ``finalize`` leaves either a resumable partial dataset
        (manifest rename never happened) or a complete one — never an
        ambiguous mixture: the final manifest, once visible, wins.
        """
        if self._finalized:
            raise ValidationError("writer is already finalized")
        if not self.shards:
            raise ValidationError("cannot finalize an empty dataset")
        if meta:
            self.meta.update(meta)
        publish(self.path / MANIFEST_NAME,
                encode_envelope(MANIFEST_SCHEMA,
                                self._manifest_payload(partial=False)))
        with contextlib.suppress(OSError):
            (self.path / PARTIAL_MANIFEST_NAME).unlink()
        self._finalized = True
        return ShardedDataset(self.path, observer=self.observer)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None and not self._finalized and self.shards:
            self.finalize()
        return False

    def __repr__(self) -> str:
        return (f"ShardWriter({str(self.path)!r}, shards={self.n_shards}, "
                f"rows={self.n_rows})")


def write_shards(path, arrays: dict, *, rows_per_shard: int,
                 mirror: bool = False, meta: dict | None = None,
                 observer=None) -> "ShardedDataset":
    """Split in-memory arrays into a sharded dataset (the spill path).

    Rows are split in order into ``ceil(n / rows_per_shard)`` shards, so
    concatenating the shards back (what :func:`repro.data.read_arrays`
    does) reproduces the input arrays bit-identically.
    """
    if rows_per_shard < 1:
        raise ValidationError("rows_per_shard must be >= 1")
    arrays = {str(name): np.asarray(values)
              for name, values in arrays.items()}
    if not arrays:
        raise ValidationError("need at least one array")
    lengths = {len(a) for a in arrays.values()}
    if len(lengths) != 1:
        raise ValidationError("arrays must share one length")
    (n_rows,) = lengths
    if n_rows == 0:
        raise ValidationError("cannot shard zero rows")
    with ShardWriter(path, mirror=mirror, observer=observer) as writer:
        for start in range(0, n_rows, rows_per_shard):
            writer.append({name: array[start:start + rows_per_shard]
                           for name, array in arrays.items()})
        return writer.finalize(meta)


# --- the dataset ------------------------------------------------------------

class ShardedDataset:
    """A finalized sharded dataset directory, verified on open.

    Parameters
    ----------
    path:
        Directory holding ``manifest.json`` and the shard files.
    observer:
        Optional :class:`repro.observe.Observer`; :meth:`load_shard`
        feeds ``data.shards_read`` / ``data.bytes_read``.

    Opening verifies the manifest envelope (schema + content hash).
    Shard payloads are verified lazily on :meth:`load_shard` — the
    expensive re-hash happens on the reading service's prefetch
    workers, not on open.
    """

    def __init__(self, path: str | os.PathLike, *, observer=None):
        self.path = Path(path)
        self.observer = resolve_observer(observer)
        payload = _read_manifest(self.path / MANIFEST_NAME)
        if payload is None:
            if (self.path / PARTIAL_MANIFEST_NAME).exists():
                raise ValidationError(
                    f"{self.path} holds a partial dataset (the writer was "
                    "killed before finalize); reopen it with "
                    "ShardWriter.resume(path) and finalize, or clear it")
            raise ValidationError(
                f"{self.path} is not a sharded dataset (no {MANIFEST_NAME})")
        self.shards = [ShardInfo.from_dict(e) for e in payload["shards"]]
        self.array_names: list[str] = list(payload["arrays"] or [])
        self.meta: dict = dict(payload.get("meta", {}))
        self.mirror: bool = bool(payload.get("mirror", False))
        self.n_rows: int = int(payload["n_rows"])

    def __getstate__(self) -> dict:
        # A pickled handle (a process-pool task's shared payload) is its
        # manifest alone: observers hold locks and a runlog.
        state = self.__dict__.copy()
        del state["observer"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.observer = resolve_observer(None)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __len__(self) -> int:
        return self.n_rows

    def shard_path(self, index: int) -> Path:
        return self.path / self.shards[index].name

    def row_offset(self, index: int) -> int:
        """Global row position of shard ``index``'s first row."""
        return sum(info.rows for info in self.shards[:index])

    # -- reading -----------------------------------------------------------
    def read_shard_bytes(self, index: int) -> bytes:
        """Shard ``index``'s raw file bytes, unverified."""
        return _read_shard(self.shard_path(index), self.shards[index], None)

    def load_shard(self, index: int, *, verify: bool = True,
                   observer=None) -> dict[str, np.ndarray]:
        """Read, (optionally) checksum-verify, and decode one shard."""
        if not 0 <= index < self.n_shards:
            raise ValidationError(
                f"shard index {index} out of range [0, {self.n_shards})")
        info = self.shards[index]
        data = _read_shard(self.shard_path(index), info,
                           info.sha256 if verify else None)
        arrays = _unpack_arrays(data, index=index, path=self.shard_path(index))
        observer = self.observer if observer is None \
            else resolve_observer(observer)
        if observer.enabled:
            observer.count("data.shards_read")
            observer.count("data.bytes_read", len(data))
        return arrays

    def iter_shards(self, *, verify: bool = True):
        """Single-threaded in-order shard iteration (the baseline the
        reading service is benchmarked against)."""
        for index in range(self.n_shards):
            yield index, self.load_shard(index, verify=verify)

    # -- corruption handling ----------------------------------------------
    def quarantine_shard(self, index: int) -> Path | None:
        """Move a damaged shard file into ``quarantine/``; returns the
        new location (``None`` when the file is already gone)."""
        source = self.shard_path(index)
        target_dir = self.path / QUARANTINE_DIR
        target_dir.mkdir(exist_ok=True)
        target = target_dir / self.shards[index].name
        try:
            os.replace(source, target)
        except FileNotFoundError:
            return None
        return target

    def heal_from_mirror(self, index: int) -> bool:
        """Re-publish shard ``index`` from its ``mirror/`` replica.

        Returns ``True`` when a verified replica was promoted into the
        primary slot (atomically), ``False`` when no replica exists or
        the replica itself fails its checksum.
        """
        info = self.shards[index]
        try:
            data = read_verified(self.path / MIRROR_DIR / info.name,
                                 info.sha256)
        except (OSError, IntegrityError):
            return False
        publish(self.shard_path(index), data)
        return True

    def verify_all(self) -> list[int]:
        """Checksum every shard; returns the indices that fail (an
        offline ``fsck`` for operators, not a hot-path call)."""
        damaged: list[int] = []
        for index, info in enumerate(self.shards):
            try:
                _read_shard(self.shard_path(index), info, info.sha256)
            except ShardCorruptionError:
                damaged.append(index)
        return damaged

    def delete(self) -> None:
        """Remove the whole dataset directory (shards, mirror, manifest)."""
        shutil.rmtree(self.path, ignore_errors=True)

    def __repr__(self) -> str:
        return (f"ShardedDataset({str(self.path)!r}, "
                f"shards={self.n_shards}, rows={self.n_rows}, "
                f"arrays={self.array_names})")


def resolve_dataset(dataset, *, observer=None) -> ShardedDataset:
    """Normalize the ``dataset`` argument the data APIs accept:
    a :class:`ShardedDataset` passes through, a path opens one."""
    if isinstance(dataset, ShardedDataset):
        return dataset
    if isinstance(dataset, (str, os.PathLike)):
        return ShardedDataset(dataset, observer=observer)
    raise ValidationError(
        "expected a ShardedDataset or a dataset directory path — got "
        f"{type(dataset).__name__}")
