"""Durable files: one atomic publish, one verified envelope, one checksum read.

Checkpoint records, shard files, their ``mirror/`` replicas and the
dataset manifests are written with :func:`publish` and read back through
:func:`read_envelope` or :func:`read_verified`, so the on-disk format
lives here alone. A file failing verification raises
:class:`IntegrityError` naming the reason; each caller maps it to its
own policy. The fingerprint cache's disk tier is atomic but deliberately
not durable (no fsync: a lost entry costs one recomputation).
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

__all__ = ["IntegrityError", "encode_envelope", "publish", "read_envelope",
           "read_verified"]

#: Test seam: seconds to sleep between fsyncing the temp file and renaming
#: it into place, so torn-write tests can SIGKILL deterministically inside
#: the publish window. Never set outside the test suite.
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
    with contextlib.suppress(OSError):  # not every platform opens dirs
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


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
    try:
        envelope = json.loads(Path(path).read_bytes())
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
