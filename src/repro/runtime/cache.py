"""Fingerprint-keyed memoization of utility evaluations.

A coalition value ``u(S)`` is fully determined by (model configuration,
coalition indices, training/validation data, metric). Hashing those into
a stable hexadecimal *fingerprint* lets every estimator — and every
repeat run — share one memo table instead of the per-``Utility`` dict
cache each estimator used to rebuild from scratch.

Two tiers:

- **memory** — an LRU :class:`collections.OrderedDict`, bounded by
  ``max_items``.
- **disk** (optional) — one tiny file per entry under ``disk_dir``;
  values are stored as ``float.hex()`` so a hit is *bitwise* identical
  to the original computation, and the tier survives process restarts.

All traffic is counted (:class:`CacheStats`) so hit-rates can be
surfaced in evaluation reports and benchmark output.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.exceptions import ValidationError

_MISSING = object()
_CORRUPT = object()


# --- stable fingerprinting -------------------------------------------------

def _update_hash(h, part) -> None:
    """Feed one object into the hash with explicit type tags so that e.g.
    the int 1, the float 1.0 and the string "1" never collide."""
    if part is None:
        h.update(b"\x00N")
    elif isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part)
        h.update(b"\x00A")
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(part, (bool, np.bool_)):
        h.update(b"\x00B" + (b"1" if part else b"0"))
    elif isinstance(part, (int, np.integer)):
        h.update(b"\x00I" + str(int(part)).encode())
    elif isinstance(part, (float, np.floating)):
        h.update(b"\x00F" + float(part).hex().encode())
    elif isinstance(part, str):
        h.update(b"\x00S" + part.encode())
    elif isinstance(part, bytes):
        h.update(b"\x00Y" + part)
    elif isinstance(part, (list, tuple)):
        h.update(b"\x00L" + str(len(part)).encode())
        for item in part:
            _update_hash(h, item)
    elif isinstance(part, (dict,)):
        h.update(b"\x00D")
        for key in sorted(part, key=repr):
            _update_hash(h, key)
            _update_hash(h, part[key])
    elif isinstance(part, (set, frozenset)):
        h.update(b"\x00T")
        for item in sorted(part, key=repr):
            _update_hash(h, item)
    elif callable(part):
        h.update(b"\x00C" + f"{getattr(part, '__module__', '?')}."
                            f"{getattr(part, '__qualname__', repr(part))}".encode())
    elif hasattr(part, "get_params"):  # estimator prototype
        h.update(b"\x00E" + type(part).__name__.encode())
        _update_hash(h, part.get_params())
    else:
        h.update(b"\x00R" + repr(part).encode())


def fingerprint(*parts) -> str:
    """Stable SHA-256 hex digest of a heterogeneous tuple of parts.

    Supports numpy arrays (dtype + shape + bytes), scalars, strings,
    containers, callables (by qualified name) and estimators (by class +
    hyperparameters). Deterministic across processes and sessions.
    """
    h = hashlib.sha256()
    for part in parts:
        _update_hash(h, part)
    return h.hexdigest()


def data_fingerprint(*arrays) -> str:
    """Fingerprint of a dataset (convenience alias used by ``Utility``)."""
    return fingerprint(*arrays)


# --- the cache -------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`FingerprintCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_corrupt: int = 0
    disk_put_errors: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {"memory_hits": self.memory_hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "puts": self.puts,
                "evictions": self.evictions,
                "disk_corrupt": self.disk_corrupt,
                "disk_put_errors": self.disk_put_errors,
                "hit_rate": self.hit_rate}


class FingerprintCache:
    """Two-tier (memory LRU + optional disk) memo table for floats.

    Parameters
    ----------
    max_items:
        Capacity of the in-memory LRU tier.
    disk_dir:
        Directory for the persistent tier; created on demand. ``None``
        disables the disk tier.

    The disk tier is strictly best-effort: a put that fails with any
    ``OSError`` (disk full, permissions, vanished mount) is counted in
    ``stats.disk_put_errors`` and the value stays memory-cached; after
    several consecutive failures the tier is switched off for the rest
    of the process (:attr:`disk_degraded`) instead of hammering a full
    disk from inside the hot loop. Reads keep working either way.
    """

    def __init__(self, max_items: int = 100_000,
                 disk_dir: str | os.PathLike | None = None):
        if max_items < 1:
            raise ValidationError("max_items must be >= 1")
        self.max_items = max_items
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._memory: OrderedDict[str, float] = OrderedDict()
        self._lock = threading.Lock()
        self._journals: list[list] = []
        self._disk_put_failures = 0
        self._disk_degraded = False
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def keys(self) -> list[str]:
        """Keys currently resident in the memory tier (LRU order)."""
        with self._lock:
            return list(self._memory.keys())

    @property
    def disk_degraded(self) -> bool:
        """True once repeated put failures switched the disk tier off
        (the cache keeps running memory-only)."""
        return self._disk_degraded

    # -- put journals ------------------------------------------------------
    def start_journal(self) -> list:
        """Begin recording every :meth:`put` as a ``(key, value)`` pair.

        Checkpointed loops journal the cache during a run so a resumed
        session can replay the exact entries the interrupted one
        produced — making the resumed cache contents (keys *and* bitwise
        values) identical to an uninterrupted run's. Returns the journal
        list; pass it to :meth:`stop_journal` when done.
        """
        journal: list = []
        with self._lock:
            self._journals.append(journal)
        return journal

    def stop_journal(self, journal: list) -> list:
        """Stop recording into ``journal`` (returns it for convenience)."""
        with self._lock:
            try:
                self._journals.remove(journal)
            except ValueError:
                pass
        return journal

    # -- disk tier ---------------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        # Two-level fan-out keeps directories small at millions of entries.
        return self.disk_dir / key[:2] / f"{key}.fpv"

    def _disk_read(self, key: str):
        if self.disk_dir is None:
            return _MISSING
        path = self._disk_path(key)
        try:
            text = path.read_text(encoding="ascii").strip()
        except FileNotFoundError:
            return _MISSING
        except (OSError, ValueError):
            # Unreadable or non-ASCII garbage (a torn write, bit rot):
            # drop the entry so the next put can heal it.
            return self._discard_corrupt(path)
        if not text:
            return self._discard_corrupt(path)  # truncated to empty
        try:
            return float.fromhex(text)
        except ValueError:
            return self._discard_corrupt(path)  # truncated/garbled hex

    @staticmethod
    def _discard_corrupt(path: Path):
        try:
            path.unlink()
        except OSError:
            pass
        return _CORRUPT

    # Consecutive put failures before the disk tier is switched off for
    # the rest of the process (a full or read-only disk won't recover by
    # itself, and each further attempt costs a syscall round trip).
    _DISK_DEGRADE_AFTER = 3

    def _disk_write(self, key: str, value: float) -> None:
        if self.disk_dir is None or self._disk_degraded:
            return
        # Best-effort tier: an ENOSPC/EACCES/... anywhere in the publish
        # sequence (mkdir included) must degrade the cache to
        # memory-only, never crash the run mid-loop.
        tmp = None
        try:
            path = self._disk_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: readers never observe a half-written entry.
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(float(value).hex())
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            with self._lock:
                self.stats.disk_put_errors += 1
                self._disk_put_failures += 1
                if self._disk_put_failures >= self._DISK_DEGRADE_AFTER:
                    self._disk_degraded = True
        else:
            with self._lock:
                self._disk_put_failures = 0

    # -- public API --------------------------------------------------------
    def get(self, key: str):
        """Return the cached float for ``key`` or ``None`` on a miss."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return self._memory[key]
        value = self._disk_read(key)
        with self._lock:
            if value is _CORRUPT:
                # A corrupt disk entry is a miss: it was deleted above so
                # the caller's recomputed value re-populates it cleanly.
                self.stats.disk_corrupt += 1
                self.stats.misses += 1
                return None
            if value is not _MISSING:
                self.stats.disk_hits += 1
                self._store_memory(key, value)
                return value
            self.stats.misses += 1
            return None

    def put(self, key: str, value: float) -> None:
        value = float(value)
        with self._lock:
            self.stats.puts += 1
            self._store_memory(key, value)
            for journal in self._journals:
                journal.append((key, value))
        self._disk_write(key, value)

    def _store_memory(self, key: str, value: float) -> None:
        # caller holds the lock
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_items:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier, if any, is untouched)."""
        with self._lock:
            self._memory.clear()
