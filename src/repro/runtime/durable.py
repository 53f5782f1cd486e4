"""Durable files: one atomic publish, one durable append, one verified
envelope, one checksum read.

Shard files, their ``mirror/`` replicas, the dataset manifests and a
compacted checkpoint journal are written whole with :func:`publish`;
checkpoint records are added to their journal with :func:`append`. They
are read back through :func:`read_envelope`, :func:`decode_envelope` or
:func:`read_verified`, so the on-disk format lives here alone. A file or
record failing verification raises :class:`IntegrityError` naming the
reason; each caller maps it to its own policy. The fingerprint cache's
disk tier is atomic but deliberately not durable (no fsync: a lost
entry costs one recomputation).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

from repro.core.exceptions import ReproError

__all__ = ["IntegrityError", "append", "decode_envelope", "encode_envelope",
           "publish", "read_envelope", "read_verified", "sync_dir"]

#: Test seam: seconds to sleep between fsyncing the temp file and renaming
#: it into place, and between the two halves of an :func:`append`, so
#: torn-write tests can SIGKILL deterministically inside the write
#: window. Never set outside the test suite.
_SLOW_PUBLISH_ENV = "REPRO_DATA_SLOW_PUBLISH"


class IntegrityError(ReproError):
    """A durable file failed verification; ``reason`` says how."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def publish(path: str | os.PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data`` so a crash never exposes a torn file:
    temp file in the same (existing) directory, flush + fsync,
    ``os.replace``, then a best-effort directory fsync for the rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        delay = os.environ.get(_SLOW_PUBLISH_ENV)
        if delay:  # torn-write test seam: widen the kill window
            time.sleep(float(delay))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    sync_dir(path.parent)


def sync_dir(path: str | os.PathLike) -> None:
    """fsync a directory so a new or renamed entry in it is durable
    (best effort: not every platform opens directories)."""
    with contextlib.suppress(OSError):
        dir_fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def append(fd: int, data: bytes) -> None:
    """Append ``data`` to the file open on ``fd`` (``O_APPEND``), then
    ``fdatasync`` it. A write that fails part-way cuts the file back to
    its length before the call, so it leaves no torn tail; a process
    killed part-way does leave one, which the reader must tolerate."""
    start = os.fstat(fd).st_size
    view = memoryview(data)
    try:
        delay = os.environ.get(_SLOW_PUBLISH_ENV)
        if delay:  # torn-write test seam: stall with half the data written
            half = len(view) // 2
            _write_all(fd, view[:half])
            time.sleep(float(delay))
            view = view[half:]
        _write_all(fd, view)
    except BaseException:
        with contextlib.suppress(OSError):
            os.ftruncate(fd, start)
        raise
    os.fdatasync(fd)


def _write_all(fd: int, view: memoryview) -> None:
    while view:  # a regular file may take a short write (e.g. near ENOSPC)
        view = view[os.write(fd, view):]


def encode_envelope(schema: int, payload, **header) -> bytes:
    """The JSON object ``{"schema", **header, "sha256", "payload"}``,
    where ``payload`` is the payload's sorted-key JSON text and
    ``sha256`` its hex digest."""
    payload_json = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(payload_json.encode()).hexdigest()
    return json.dumps({"schema": schema, **header, "sha256": digest,
                       "payload": payload_json}).encode()


def read_envelope(path: str | os.PathLike, schema: int) -> tuple[dict, object]:
    """Read and verify an envelope file: ``(envelope, decoded payload)``.

    Raises :class:`IntegrityError` unless the file is an intact envelope
    of ``schema``; ``OSError`` from reading propagates.
    """
    return decode_envelope(Path(path).read_bytes(), schema)


def decode_envelope(data: bytes, schema: int) -> tuple[dict, object]:
    """Verify envelope bytes: ``(envelope, decoded payload)``; raises
    :class:`IntegrityError` unless ``data`` is an intact envelope of
    ``schema``."""
    try:
        envelope = json.loads(data)
    except ValueError as error:
        raise IntegrityError(f"garbled JSON: {error}") from error
    if not isinstance(envelope, dict):
        raise IntegrityError("not an object")
    if envelope.get("schema") != schema:
        raise IntegrityError(f"unknown schema {envelope.get('schema')!r}")
    payload_json = envelope.get("payload")
    if not isinstance(payload_json, str):
        raise IntegrityError("missing payload")
    if hashlib.sha256(payload_json.encode()).hexdigest() \
            != envelope.get("sha256"):
        raise IntegrityError("content hash mismatch")
    try:
        return envelope, json.loads(payload_json)
    except ValueError as error:
        raise IntegrityError(f"garbled payload: {error}") from error


def read_verified(path: str | os.PathLike, sha256: str | None) -> bytes:
    """``path``'s bytes, checked against ``sha256`` unless it is ``None``
    (:class:`IntegrityError` on a mismatch; ``OSError`` propagates)."""
    data = Path(path).read_bytes()
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise IntegrityError("checksum mismatch")
    return data
