"""Durable checkpoint/resume for long-running debugging sessions.

A Shapley importance sweep, an iterative-cleaning session, or a CPClean
greedy selection is hours of pure, deterministic work — exactly the kind
of job that dies to an OOM kill, preemption, or an impatient Ctrl-C.
:mod:`repro.runtime.faults` (PR 4) made those jobs survive *worker*
death; this module makes them survive *driver* death: the loop snapshots
its completed units (permutations, coalitions, rounds) into a
:class:`CheckpointStore`, and a fresh process pointed at the store with
``resume_from=`` replays the snapshot and continues — producing
hex-identical scores, call counts, and fingerprint-cache keys to an
uninterrupted run, on any backend.

Two layers:

- :class:`CheckpointStore` — a crash-safe, append-only record store.
  Every record is one self-verifying line (the schema-versioned SHA-256
  envelope of :mod:`repro.runtime.durable`) of one journal file per
  store, appended under a file lock and made durable with one
  ``fdatasync``. A truncated or garbled record is *detected*, surfaced
  as an ``executor.checkpoint_corrupt`` runlog event, and skipped in
  favour of the last good record — never a crash.
- :class:`LoopCheckpointer` — the one resume protocol, which every
  resumable loop (``shapley_mc``, ``banzhaf``, ``beta_shapley``,
  ``loo``, ``IterativeCleaner``, ``cpclean_greedy``,
  ``ShardedUnlearner``, ``transform_shards``) builds unconditionally:
  cadence control (``checkpoint_every``), identity verification on
  resume (the record must describe the *same* job — params, seed, data
  fingerprint), a SIGTERM/SIGINT guard so an interrupted session
  persists its final state before exiting, and the
  ``checkpoint.writes`` / ``checkpoint.bytes`` / ``checkpoint.restores``
  observer accounting. Without a store it is inert, so a loop drives
  it with no "is checkpointing on?" branches.

Floats are serialized as ``float.hex()`` throughout, so a resumed run's
restored marginals/scores are *bitwise* identical to the originals.
"""

from __future__ import annotations

import contextlib
import fcntl
import itertools
import json
import os
import re
import signal
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.exceptions import ValidationError
from repro.observe.metrics import global_registry
from repro.observe.observer import resolve_observer
from repro.observe.runlog import jsonable
from repro.runtime.cache import fingerprint
from repro.runtime.durable import (
    IntegrityError,
    append,
    decode_envelope,
    encode_envelope,
    publish,
    read_envelope,
    sync_dir,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointRecord",
    "CheckpointStore",
    "LoopCheckpointer",
    "ShutdownRequested",
    "flush_all",
    "flush_on_shutdown",
    "register_shutdown_flush",
    "resolve_checkpoint_store",
    "unregister_shutdown_flush",
]

#: Schema version stamped on every record; bumped when a payload layout
#: changes incompatibly. The loader treats an unknown version exactly
#: like a corrupt record: skip it, fall back to the last good one.
CHECKPOINT_SCHEMA = 1

#: The store's journal: one record per line.
_JOURNAL_NAME = "records.jsonl"

#: Records a journal may hold beyond ``keep`` before a write compacts it.
_COMPACT_SLACK = 64

#: A record file of the one-file-per-record layout earlier releases
#: wrote (zero-padded seq); read on resume, never written. Other files
#: in the store directory (a stray ``ckpt-backup.json``) are not records.
_LEGACY_RECORD = re.compile(r"ckpt-(\d{8,})\.json")

# Journal descriptors this process holds open. A flock belongs to the
# open file, which a fork shares with the child: a process-pool worker
# forked while a write holds the lock would keep it for its whole life
# and block every later writer. So opening or closing a journal is
# atomic with respect to fork, and a forked child closes its copies.
_JOURNAL_FDS: set[int] = set()
_JOURNAL_FDS_LOCK = threading.Lock()


def _open_journal(path: Path, flags: int) -> int:
    with _JOURNAL_FDS_LOCK:
        fd = os.open(path, flags, 0o644)
        _JOURNAL_FDS.add(fd)
    return fd


def _close_journal(fd: int) -> None:
    with _JOURNAL_FDS_LOCK:
        _JOURNAL_FDS.discard(fd)
        os.close(fd)


def _close_journals_in_child() -> None:
    for fd in _JOURNAL_FDS:
        with contextlib.suppress(OSError):
            os.close(fd)
    _JOURNAL_FDS.clear()
    _JOURNAL_FDS_LOCK.release()  # taken by the forking thread


os.register_at_fork(before=_JOURNAL_FDS_LOCK.acquire,
                    after_in_parent=_JOURNAL_FDS_LOCK.release,
                    after_in_child=_close_journals_in_child)


@dataclass(frozen=True)
class CheckpointRecord:
    """One verified checkpoint: sequence number, kind, decoded payload."""

    seq: int
    kind: str
    payload: dict
    path: Path


class CheckpointStore:
    """Durable, crash-safe record store backing ``checkpoint=``.

    Parameters
    ----------
    path:
        Directory the records live in; created on demand. One store ==
        one resumable job (records carry a ``kind`` so a mismatched
        store is detected, not silently resumed).
    keep:
        Newest records a compaction retains. The journal holds at most
        ``keep`` + 64 records; the write that crosses that bound
        rewrites it to its newest ``keep``. ``keep >= 2`` means a record
        corrupted *after* landing on disk still leaves a good
        predecessor to fall back to.
    observer:
        Default :class:`repro.observe.Observer` for write/restore
        accounting; individual calls may override it.

    Records are lines of one journal file, ``records.jsonl``, each one
    :func:`~repro.runtime.durable.encode_envelope` document (schema
    version + SHA-256 of the payload). A write appends one line under an
    exclusive ``flock`` and ``fdatasync``s it: no temp file, rename,
    directory listing or unlink. Sequence numbers increase strictly
    across every handle and process sharing the directory, so the last
    line is the last write. :meth:`load_latest` verifies each line and
    falls back past corrupt ones instead of crashing; a line torn by a
    killed writer is cut off by the next write. A directory written
    before the journal existed holds one ``ckpt-<seq>.json`` file per
    record: those still load, and the journal continues their sequence,
    but nothing writes them any more.
    """

    def __init__(self, path: str | os.PathLike, *, keep: int = 3,
                 observer=None):
        if keep < 1:
            raise ValidationError("keep must be >= 1")
        self.path = Path(path)
        # Legacy record files, listed at most once per handle: nothing
        # writes that layout any more, so the listing only shrinks (by a
        # clear) and a directory this handle creates holds none.
        self._legacy: list[Path] | None = None
        try:
            self.path.mkdir(parents=True)
            self._legacy = []
        except FileExistsError:
            if not self.path.is_dir():
                raise
        self.journal = self.path / _JOURNAL_NAME
        self.keep = keep
        self.observer = resolve_observer(observer)
        self._lock = threading.Lock()
        # (journal stat key, seq, lines) right after this handle's last
        # append: while the journal still matches the key, no other
        # writer touched it, so the next seq needs no read.
        self._tail: tuple[tuple, int, int] | None = None

    def __len__(self) -> int:
        """Records on disk: complete journal lines plus legacy files."""
        return self._read_journal().count(b"\n") + len(self._legacy_paths())

    # -- write -------------------------------------------------------------
    def write(self, kind: str, payload: dict, *,
              observer=None) -> CheckpointRecord:
        """Durably append one record; compacts past ``keep`` + 64.

        The payload is JSON-serialized (numpy scalars/arrays coerced via
        :func:`repro.observe.jsonable`), content-hashed, and wrapped in
        a schema-versioned envelope, one line of the journal. A crash
        mid-append leaves every earlier record intact; the torn line is
        skipped on load and cut off by the next write.
        """
        observer = self.observer if observer is None \
            else resolve_observer(observer)
        payload = jsonable(payload)
        if not observer.enabled:
            return self._append(kind, payload, observer)[0]
        with observer.span("checkpoint.write"):
            record, size = self._append(kind, payload, observer)
        observer.count("checkpoint.writes")
        observer.count("checkpoint.bytes", size)
        return record

    def _append(self, kind: str, payload: dict,
                observer) -> tuple[CheckpointRecord, int]:
        with self._lock:
            fd, stat, created = self._open_locked()
            try:
                tail = self._tail
                if tail is not None and tail[0] == _stat_key(stat):
                    seq, lines = tail[1] + 1, tail[2]
                else:
                    data = os.pread(fd, stat.st_size, 0)
                    end = data.rfind(b"\n") + 1
                    if end < len(data):  # a writer was killed mid-append
                        os.ftruncate(fd, end)
                        data = data[:end]
                    seq, lines = self._last_seq(data) + 1, data.count(b"\n")
                envelope = encode_envelope(CHECKPOINT_SCHEMA, payload,
                                           seq=seq, kind=kind)
                append(fd, envelope + b"\n")
                if created:
                    sync_dir(self.path)
                if lines + 1 > self.keep + _COMPACT_SLACK:
                    self._compact(fd, observer)
                else:
                    self._tail = (_stat_key(os.fstat(fd)), seq, lines + 1)
            finally:
                _close_journal(fd)  # releases the flock
        return (CheckpointRecord(seq=seq, kind=kind, payload=payload,
                                 path=self.journal), len(envelope))

    def _open_locked(self) -> tuple[int, os.stat_result, bool]:
        """Open the journal for appending under an exclusive ``flock``:
        ``(fd, stat, created)``. Reopens when a compaction (or
        :meth:`clear`) replaced the file while this call waited."""
        while True:
            created = False
            try:
                fd = _open_journal(self.journal, os.O_RDWR | os.O_APPEND)
            except FileNotFoundError:
                fd = _open_journal(self.journal,
                                   os.O_RDWR | os.O_APPEND | os.O_CREAT)
                created = True
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                stat = os.fstat(fd)
                if os.path.samestat(stat, os.stat(self.journal)):
                    return fd, stat, created
            except FileNotFoundError:
                pass  # cleared while we waited: create it afresh
            except BaseException:
                _close_journal(fd)
                raise
            _close_journal(fd)

    def _last_seq(self, data: bytes) -> int:
        """The newest seq in ``data`` (journal bytes), else the newest
        legacy record file's, else -1."""
        for line in reversed(data.splitlines()):
            with contextlib.suppress(ValueError):
                envelope = json.loads(line)
                if isinstance(envelope, dict) \
                        and isinstance(envelope.get("seq"), int):
                    return envelope["seq"]
        paths = self._legacy_paths()
        return _legacy_seq(paths[-1]) if paths else -1

    def _compact(self, fd: int, observer) -> None:
        """Rewrite the journal (locked on ``fd``) to its newest ``keep``
        lines through :func:`~repro.runtime.durable.publish`."""
        with observer.span("checkpoint.compact"):
            lines = os.pread(fd, os.fstat(fd).st_size, 0).splitlines(True)
            publish(self.journal, b"".join(lines[-self.keep:]))
        # A writer may append to the new file as soon as it is in
        # place, so this handle's next write reads the tail again.
        self._tail = None
        if observer.enabled:
            observer.count("checkpoint.compactions")

    # -- read --------------------------------------------------------------
    def _read_journal(self) -> bytes:
        """The journal's bytes under a shared ``flock`` (no append is
        ever half-visible); empty when there is no journal."""
        try:
            fd = _open_journal(self.journal, os.O_RDONLY)
        except FileNotFoundError:
            return b""
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
            return os.pread(fd, os.fstat(fd).st_size, 0)
        finally:
            _close_journal(fd)

    def _legacy_paths(self) -> list[Path]:
        """Record files of the one-file-per-record layout, oldest first;
        files with any other name are ignored. Listed on first use."""
        if self._legacy is None:
            paths = [path for path in self.path.glob("ckpt-*.json")
                     if _LEGACY_RECORD.fullmatch(path.name)]
            self._legacy = sorted(paths, key=_legacy_seq)
        return self._legacy

    def load_latest(self, kind: str | None = None, *,
                    observer=None) -> CheckpointRecord | None:
        """Newest verified record (optionally of one ``kind``).

        Walks the journal newest line first. Records failing
        verification — unreadable, truncated, hash mismatch, unknown
        schema — are each surfaced as an ``executor.checkpoint_corrupt``
        runlog event (naming the journal and the line's byte offset)
        plus a ``checkpoint.corrupt_records`` counter bump, then
        skipped: the newest *good* record wins. With no good record of
        ``kind`` in the journal, the newest verifying legacy
        ``ckpt-<seq>.json`` file is used. Returns ``None`` when no good
        record exists.
        """
        observer = self.observer if observer is None \
            else resolve_observer(observer)
        try:
            data = self._read_journal()
        except OSError:
            _count_corrupt(observer, self, self.journal, offset=None)
            data = b""
        lines = data.split(b"\n")
        offsets = list(itertools.accumulate(
            (len(line) + 1 for line in lines), initial=0))
        for offset, line in zip(reversed(offsets[:-1]), reversed(lines)):
            if offset == len(data):
                continue  # the empty split after the final newline
            try:
                envelope, payload = decode_envelope(line, CHECKPOINT_SCHEMA)
            except IntegrityError:
                _count_corrupt(observer, self, self.journal, offset=offset)
                continue
            if kind is None or envelope.get("kind") == kind:
                return _record(envelope, payload, self.journal)
        for path in reversed(self._legacy_paths()):
            try:
                envelope, payload = read_envelope(path, CHECKPOINT_SCHEMA)
            except FileNotFoundError:
                continue  # removed since listing (a concurrent clear)
            except (OSError, IntegrityError):
                _count_corrupt(observer, self, path)
                continue
            if kind is None or envelope.get("kind") == kind:
                return _record(envelope, payload, path)
        return None

    def clear(self) -> None:
        """Delete every record (a finished job's store can be reused)."""
        for path in (self.journal, *self._legacy_paths()):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
        self._legacy = []
        self._tail = None

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.path)!r}, records={len(self)})"


def _stat_key(stat: os.stat_result) -> tuple:
    """What changes whenever anyone appends to, truncates or replaces
    the journal."""
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _legacy_seq(path: Path) -> int:
    return int(_LEGACY_RECORD.fullmatch(path.name)[1])


def _record(envelope: dict, payload, path: Path) -> CheckpointRecord:
    return CheckpointRecord(seq=int(envelope.get("seq", 0)),
                            kind=str(envelope.get("kind", "")),
                            payload=payload, path=path)


def _count_corrupt(observer, store: CheckpointStore, path: Path,
                   **where) -> None:
    if observer.enabled:
        observer.count("checkpoint.corrupt_records")
        observer.event("executor.checkpoint_corrupt",
                       fault="checkpoint_corrupt", path=str(path),
                       store=str(store.path), **where)


def resolve_checkpoint_store(store, *, observer=None) -> CheckpointStore | None:
    """Normalize the ``checkpoint=`` / ``resume_from=`` argument.

    ``None``/``False`` disable checkpointing; a path builds a store at
    that directory; a :class:`CheckpointStore` passes through.
    """
    if store is None or store is False:
        return None
    if isinstance(store, CheckpointStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return CheckpointStore(store, observer=observer)
    raise ValidationError(
        "checkpoint/resume_from must be None, a directory path, or a "
        f"CheckpointStore — got {type(store).__name__}")


# --- graceful-shutdown flush hooks -----------------------------------------
#
# A loop with an active checkpoint registers a zero-argument flush
# callable here for the duration of its run. The first registration (in
# the main thread) installs SIGTERM/SIGINT handlers. On a signal, every
# registered flush runs *first* (persisting final checkpoints), then the
# live runtimes' worker pools are torn down, and finally the previous
# handler semantics apply (KeyboardInterrupt for SIGINT, termination for
# SIGTERM) — so a flushed checkpoint never races pool teardown.
#
# Where the flush runs depends on what the main thread is doing. While a
# main-thread guard (:class:`flush_on_shutdown`) is open, the handler
# does no lock and no I/O: it runs between two bytecodes of the guarded
# loop, possibly while that loop holds a non-reentrant lock (the
# checkpoint store's, the metrics registry's) that a flush would need.
# It only raises :class:`ShutdownRequested`, so every ``with lock:`` on
# the way out releases its lock, and the guard flushes on exit. With no
# main-thread guard open (hooks registered directly, or only by loops on
# worker threads), the handler flushes itself, as nothing on the main
# thread would catch the exception; the main thread may still hold a
# lock a hook needs, so each hook runs on a helper thread, skipped after
# ``_INLINE_FLUSH_TIMEOUT`` seconds (``checkpoint.flush_skipped``). Pool
# teardown is bounded the same way.

_FLUSH_LOCK = threading.Lock()
_FLUSH_HOOKS: dict[int, object] = {}
_FLUSH_COUNTER = 0
_PREVIOUS_HANDLERS: dict[int, object] = {}
_SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)
_SHUTTING_DOWN = False
_GUARD_DEPTH = 0  # main-thread flush_on_shutdown guards currently open
_INLINE_FLUSH_TIMEOUT = 5.0  # seconds per hook flushed by the handler


class ShutdownRequested(BaseException):
    """SIGTERM/SIGINT arrived while a checkpointed loop was armed.

    Raised by the signal handler on the main thread while a
    main-thread :class:`flush_on_shutdown` guard is open; a
    :class:`BaseException` so ordinary ``except Exception`` recovery
    code lets it through. The innermost guard
    (``LoopCheckpointer.armed``) catches it, flushes every registered
    checkpoint, and re-delivers ``signum``.
    """

    def __init__(self, signum: int, frame=None):
        super().__init__(f"shutdown requested by signal {signum}")
        self.signum = signum
        self.frame = frame


def _run_hook(hook, timeout: float | None) -> bool:
    """Run one hook; with ``timeout``, on a daemon helper thread that is
    abandoned after ``timeout`` seconds. Returns whether it finished."""
    def call():
        try:
            hook()
        except Exception:
            # A failing flush must not mask the shutdown (or prevent the
            # remaining hooks from flushing their own checkpoints).
            pass

    if timeout is None:
        call()
        return True
    helper = threading.Thread(target=call, daemon=True)
    helper.start()
    helper.join(timeout)
    return not helper.is_alive()


def _run_flush_hooks(timeout: float | None = None) -> None:
    skipped = sum(not _run_hook(hook, timeout)
                  for hook in list(_FLUSH_HOOKS.values()))
    if skipped:  # the main thread may hold the registry's lock too
        _run_hook(lambda: global_registry().inc("checkpoint.flush_skipped",
                                                skipped), timeout)


def _shutdown_handler(signum, frame) -> None:
    """Unwind a guarded main-thread loop to its guard, which flushes;
    with no guard open, flush here."""
    if _SHUTTING_DOWN \
            or _PREVIOUS_HANDLERS.get(signum) == signal.SIG_IGN:
        return
    if _GUARD_DEPTH:
        raise ShutdownRequested(signum, frame)
    _shut_down(signum, frame, flush_timeout=_INLINE_FLUSH_TIMEOUT)


def _shut_down(signum: int, frame, *,
               flush_timeout: float | None = None) -> None:
    """Flush checkpoints, release pools, then honour the signal."""
    global _SHUTTING_DOWN
    from repro.runtime.runtime import close_all_runtimes

    _SHUTTING_DOWN = True  # a repeated signal must not interrupt the flush
    try:
        _run_flush_hooks(flush_timeout)
        # Pools after checkpoints: the flush above must never race
        # teardown. Bounded like a hook: the interrupted main thread may
        # hold a pool's own lock (``pool.submit`` does while it runs).
        _run_hook(lambda: close_all_runtimes(wait=False), flush_timeout)
        previous = _PREVIOUS_HANDLERS.get(signum, signal.SIG_DFL)
        _uninstall_handlers()
    finally:
        _SHUTTING_DOWN = False
    if callable(previous):
        previous(signum, frame)
    else:
        # Default disposition: re-deliver so the exit status is the
        # conventional "killed by signal" one.
        os.kill(os.getpid(), signum)


_HANDLERS_INSTALLED = False


def _install_handlers() -> None:
    # signal.signal only works from the main thread; a loop running on a
    # worker thread simply skips the hook (its checkpoints still flush
    # at every cadence boundary — and :func:`flush_all` covers embedded
    # drains). Installation is retried on every registration until it
    # succeeds, so a worker-thread registration arriving *first* (the
    # server case: jobs run on worker threads before the main thread
    # ever registers) does not permanently block a later main-thread
    # registration from installing the handlers.
    global _HANDLERS_INSTALLED
    if _HANDLERS_INSTALLED:
        return
    for signum in _SHUTDOWN_SIGNALS:
        try:
            _PREVIOUS_HANDLERS[signum] = signal.signal(signum,
                                                       _shutdown_handler)
        except ValueError:
            _PREVIOUS_HANDLERS.clear()
            return
    _HANDLERS_INSTALLED = True


def _uninstall_handlers() -> None:
    global _HANDLERS_INSTALLED
    for signum, previous in list(_PREVIOUS_HANDLERS.items()):
        try:
            if signal.getsignal(signum) is _shutdown_handler:
                signal.signal(signum, previous)
        except ValueError:
            pass
    _PREVIOUS_HANDLERS.clear()
    _HANDLERS_INSTALLED = False


def _reset_in_forked_child() -> None:
    # A forked child (a process-pool worker) inherits the parent's
    # hooks, guard depth and handlers, none of which are its own: drop
    # them so a signal acts on the child as if nothing was registered.
    global _FLUSH_LOCK, _GUARD_DEPTH
    _FLUSH_LOCK = threading.Lock()  # another thread may have held it
    _FLUSH_HOOKS.clear()
    _GUARD_DEPTH = 0
    _uninstall_handlers()


os.register_at_fork(after_in_child=_reset_in_forked_child)


def register_shutdown_flush(flush) -> int:
    """Register a zero-arg flush callable to run on SIGTERM/SIGINT.

    Returns a handle for :func:`unregister_shutdown_flush`. Handler
    installation is attempted on every registration until one succeeds
    (only the main thread can install; worker-thread registrations
    still record their hooks for :func:`flush_all` and for a handler a
    later main-thread registration installs). The last removal restores
    the previous handlers.
    """
    global _FLUSH_COUNTER
    with _FLUSH_LOCK:
        handle = _FLUSH_COUNTER
        _FLUSH_COUNTER += 1
        _install_handlers()
        _FLUSH_HOOKS[handle] = flush
    return handle


def flush_all() -> None:
    """Run every registered shutdown-flush hook now (signal-free).

    The embedded-server drain path: :meth:`repro.serve.Server.drain`
    calls this *before* tearing down worker pools, so every armed
    :class:`LoopCheckpointer` — including ones running on worker
    threads, where signal handlers cannot be installed — persists its
    final snapshot without double-registering or re-entering the signal
    machinery. Safe to call at any time; hooks that fail are skipped.
    """
    _run_flush_hooks()


def unregister_shutdown_flush(handle: int) -> None:
    """Remove a flush hook; restores signal handlers when none remain."""
    with _FLUSH_LOCK:
        _FLUSH_HOOKS.pop(handle, None)
        if not _FLUSH_HOOKS:
            _uninstall_handlers()


class flush_on_shutdown:
    """Context manager form of :func:`register_shutdown_flush`.

    On the main thread, also the place a SIGTERM/SIGINT is honoured:
    the body is unwound by :class:`ShutdownRequested`, and the exit runs
    :func:`flush_all`, then ``close_all_runtimes(wait=False)``, then
    re-delivers the signal under its previous disposition (the process
    terminates, or SIGINT's ``KeyboardInterrupt`` propagates).
    """

    def __init__(self, flush):
        self._flush = flush
        self._handle: int | None = None
        self._guarding = False

    def __enter__(self):
        global _GUARD_DEPTH
        self._handle = register_shutdown_flush(self._flush)
        # Last: a signal before this point is flushed by the handler
        # itself, one after it unwinds the body to __exit__.
        if threading.current_thread() is threading.main_thread():
            self._guarding = True
            _GUARD_DEPTH += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GUARD_DEPTH
        if self._guarding:
            _GUARD_DEPTH -= 1  # from here, a signal flushes inline
            self._guarding = False
        try:
            if isinstance(exc, ShutdownRequested):
                _shut_down(exc.signum, exc.frame)
        finally:
            if self._handle is not None:
                unregister_shutdown_flush(self._handle)
                self._handle = None
        return False


# --- the loop driver --------------------------------------------------------

class LoopCheckpointer:
    """Checkpoint cadence + resume + signal flush for one resumable loop.

    Parameters
    ----------
    checkpoint:
        Store (or directory path) new snapshots are written to; ``None``
        disables writing.
    kind:
        Record kind — the payload schema the loop writes (e.g.
        ``"importance.shapley_mc"``).
    identity:
        The :func:`~repro.runtime.fingerprint` parts (a tuple) of
        everything that determines the loop's results (method, params,
        seed, data), or a zero-argument callable returning them when a
        part costs work to compute. They are hashed once, here, and only
        when a store is given. The fingerprint is stamped into every
        payload and verified on resume: a record describing a *different* job raises
        :class:`~repro.core.exceptions.ValidationError` instead of
        silently producing wrong numbers. Execution policy (backend,
        workers, :class:`~repro.runtime.FaultPolicy`) is deliberately
        *not* part of the identity — a job may be resumed on any backend
        under any policy.
    every:
        Cadence in completed work units (permutations / coalitions /
        rounds) between snapshots. The final signal-flush ignores the
        cadence.
    observer:
        Observer fed the ``checkpoint.*`` counters and the
        ``checkpoint.resume`` runlog event.
    resume_from:
        Store (or path) to resume out of; commonly the same directory as
        ``checkpoint``. ``None`` starts fresh.

    With neither ``checkpoint`` nor ``resume_from`` the checkpointer is
    inert: the identity is never computed (``self.identity`` is
    ``None``), :meth:`resume` returns ``None``, flushes write nothing,
    and :meth:`armed` registers no shutdown hook. A loop therefore
    builds one unconditionally and drives it without branches.

    Use :meth:`armed` around the loop body so an interrupting
    SIGTERM/SIGINT flushes the current state before the process exits.
    """

    def __init__(self, checkpoint, *, kind: str, identity,
                 every: int = 1, observer=None, resume_from=None):
        if every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        self.store = resolve_checkpoint_store(checkpoint, observer=observer)
        if self.store is not None \
                and isinstance(resume_from, (str, os.PathLike)) \
                and Path(resume_from) == self.store.path:
            self.resume_store = self.store  # one handle for one directory
        else:
            self.resume_store = resolve_checkpoint_store(resume_from,
                                                         observer=observer)
        self.kind = kind
        self.identity = None
        if self.store is not None or self.resume_store is not None:
            self.identity = fingerprint(
                *(identity() if callable(identity) else identity))
        self.every = every
        self.observer = resolve_observer(observer)
        self._last_flushed: int | None = None
        self._state_fn = None

    # -- resume ------------------------------------------------------------
    def resume(self) -> dict | None:
        """Load, verify, and account the newest matching snapshot.

        Returns the payload dict (or ``None`` when the resume store is
        absent/empty). Bumps ``checkpoint.restores`` and emits the
        ``checkpoint.resume`` runlog event; the caller adds its
        skipped-work figures via :meth:`record_skipped`.
        """
        if self.resume_store is None:
            return None
        record = self.resume_store.load_latest(self.kind,
                                               observer=self.observer)
        if record is None:
            return None
        payload = record.payload
        if payload.get("identity") != self.identity:
            raise ValidationError(
                f"checkpoint {record.path} was written by a different job "
                f"(kind {self.kind!r}): its identity fingerprint does not "
                "match this loop's parameters/seed/data. Point resume_from= "
                "at the matching store, or clear it to start fresh.")
        self._last_flushed = int(payload.get("completed", 0))
        if self.observer.enabled:
            self.observer.count("checkpoint.restores")
        return payload

    def record_skipped(self, *, completed: int, total: int | None = None,
                       **extra) -> None:
        """Emit the ``checkpoint.resume`` provenance event."""
        if self.observer.enabled:
            self.observer.event("checkpoint.resume",
                                checkpoint_kind=self.kind,
                                completed=completed, total=total,
                                store=str(self.resume_store.path)
                                if self.resume_store else None, **extra)

    # -- write -------------------------------------------------------------
    def arm(self, state_fn) -> None:
        """Set the snapshot provider used by cadence and signal flushes.

        ``state_fn()`` must return the payload dict including a
        ``completed`` count; it is called on the loop's own thread on
        cadence flushes and from the armed guard on shutdown, so it
        must only *read* loop state. Without a store nothing flushes, so
        nothing is kept: a provider that refers back to this
        checkpointer would otherwise make a reference cycle that holds
        the loop's state until the cyclic collector runs.
        """
        if self.store is not None:
            self._state_fn = state_fn

    def flush(self) -> None:
        """Write one snapshot now (no cadence check)."""
        if self.store is None or self._state_fn is None:
            return
        payload = dict(self._state_fn())
        payload["identity"] = self.identity
        completed = int(payload.get("completed", 0))
        if self._last_flushed is not None \
                and completed == self._last_flushed \
                and len(self.store):
            return  # nothing new since the last snapshot
        self.store.write(self.kind, payload, observer=self.observer)
        self._last_flushed = completed

    def maybe_flush(self, completed: int) -> None:
        """Cadence flush: write when ``every`` new units completed."""
        if self.store is None:
            return
        if self._last_flushed is None \
                or completed - self._last_flushed >= self.every:
            self.flush()

    def armed(self, state_fn):
        """Arm the snapshot provider and return the signal-flush guard.

        Intended as ``with ckpt.armed(state): ...`` around the loop
        body — a SIGTERM/SIGINT unwinds the body (see
        :class:`ShutdownRequested`) and the final state is flushed
        before the process exits; on normal exit the hook is removed
        before the loop's runtime/pool teardown, so a flush never races
        it. An inert checkpointer returns a ``nullcontext``: no hook,
        no signal handler.
        """
        self.arm(state_fn)
        if self.identity is None:
            return contextlib.nullcontext()
        return flush_on_shutdown(self.flush)
