"""Checkpoint-backed job leases: crash-safe ownership with adoption.

A job must run on exactly one worker at a time, yet any worker must be
able to pick it up after its owner dies — without a coordinator. The
lease is the standard answer: a durable record saying "``owner`` holds
``job_id``", renewed by heartbeat, adoptable once it stops being
renewed for a full ``ttl``. It is persisted through the same crash-safe
:class:`~repro.runtime.CheckpointStore` machinery the job checkpoints
use (durable journal append + content hash + fall-back-past-corrupt),
one store per job, so a SIGKILLed worker leaves behind exactly two
artifacts — a stale lease and a valid checkpoint — and adoption is:
wait out the lease, re-acquire it at a higher epoch, resume the
checkpoint.

Epochs fence stale owners: every acquisition increments ``epoch``, and
every heartbeat verifies the stored record still carries the caller's
``(owner, epoch)`` — a worker that lost its lease to an adopter gets
:class:`LeaseLost` at its next heartbeat instead of silently double
-running the job. (The resumed job is hex-identical either way — the
fence exists to stop wasted work and double accounting, not to protect
correctness of the scores.)

Liveness arithmetic is **monotonic-clock only**. Hosts do not share a
clock, and even one host's wall clock steps under NTP — a forward jump
must not expire a live lease out from under its owner, and a backward
jump must not let a renewal be skipped forever. So:

- the *owner* tracks its renewal deadline on its own
  :func:`time.monotonic` clock (:attr:`Lease.deadline_mono`);
- an *adopter* never trusts the record's wall-clock ``expires_at``.
  It treats a foreign running lease as dead only after observing the
  **same record generation** (``owner``/``epoch``/``renewals``) go
  unrenewed for the record's full ``ttl`` on the adopter's own
  monotonic clock — the coordinator-free equivalent of "the owner
  missed every heartbeat for a whole ttl";
- wall-clock timestamps (``expires_at``, ``acquired_at``) remain in
  the record purely for display and provenance.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.core.exceptions import ReproError, ValidationError
from repro.observe.observer import resolve_observer
from repro.runtime.checkpoint import CheckpointStore

__all__ = ["Lease", "LeaseLost", "LeaseManager"]

#: Record kind stamped on lease records in their CheckpointStore.
LEASE_KIND = "serve.lease"


class LeaseLost(ReproError, RuntimeError):
    """The caller's lease was superseded (adopted) or released."""


@dataclass
class Lease:
    """One held lease; mutable because heartbeats extend the deadline.

    ``deadline_mono`` (the renewal deadline on the owner's monotonic
    clock) is what liveness decisions read; ``expires_at`` is the
    wall-clock mirror kept for display and provenance.
    """

    job_id: str
    owner: str
    epoch: int
    expires_at: float
    deadline_mono: float = 0.0
    renewals: int = 0
    adopted: bool = False  # acquired over another owner's expired lease

    def remaining(self, now: float | None = None) -> float:
        """Seconds of ttl left, measured on the owner's monotonic clock
        (``now`` is a :func:`time.monotonic` value when given)."""
        return self.deadline_mono - (time.monotonic() if now is None else now)


def default_owner() -> str:
    """A process-unique owner id (host + pid + random suffix)."""
    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:8]}")


class LeaseManager:
    """Acquire / heartbeat / release leases under one directory.

    Parameters
    ----------
    root:
        Directory holding one :class:`~repro.runtime.CheckpointStore`
        per job (``root/<job_id>/``).
    owner:
        This process's owner id; auto-generated when omitted. All
        workers of one server share the server's owner id.
    ttl:
        Lease lifetime in seconds; a lease whose record goes unrenewed
        for ``ttl`` (as observed on the adopter's monotonic clock) is
        adoptable by anyone.
    observer:
        Optional observer fed ``serve.lease.*`` counters
        (``acquired`` / ``adopted`` / ``renewed`` / ``lost`` /
        ``released`` / ``held``).
    """

    def __init__(self, root: str | os.PathLike, *, owner: str | None = None,
                 ttl: float = 30.0, observer=None):
        if ttl <= 0:
            raise ValidationError("lease ttl must be > 0")
        self.root = Path(root)
        self.owner = owner or default_owner()
        self.ttl = float(ttl)
        self.observer = resolve_observer(observer)
        # First-observation monotonic timestamps per job, keyed by the
        # record generation ``(owner, epoch, renewals)``. A generation
        # observed unchanged for >= its ttl marks a dead owner.
        self._observed: dict[str, tuple[tuple, float]] = {}

    def _store(self, job_id: str) -> CheckpointStore:
        return CheckpointStore(self.root / job_id, keep=2)

    def peek(self, job_id: str) -> dict | None:
        """The newest lease record's payload, or ``None``."""
        record = self._store(job_id).load_latest(LEASE_KIND)
        return record.payload if record is not None else None

    # -- foreign-lease liveness (monotonic observation) --------------------
    def _foreign_age(self, job_id: str, payload: dict) -> float:
        """Monotonic seconds this exact record generation has been
        observed unchanged by *this* manager (0.0 on first sight)."""
        generation = (payload.get("owner"), int(payload.get("epoch", -1)),
                      int(payload.get("renewals", 0)))
        now = time.monotonic()
        seen = self._observed.get(job_id)
        if seen is None or seen[0] != generation:
            self._observed[job_id] = (generation, now)
            return 0.0
        return now - seen[1]

    def retry_after(self, job_id: str) -> float:
        """Seconds to back off before :meth:`acquire` could succeed.

        ``0`` when the lease is free, ours, or already adoptable;
        otherwise the remaining observation window for the holder's
        record generation. Callers park dispatch for this long instead
        of doing arithmetic on the record's wall-clock fields.
        """
        payload = self.peek(job_id)
        if payload is None or payload.get("state") != "running" \
                or payload.get("owner") == self.owner:
            return 0.0
        ttl = float(payload.get("ttl", self.ttl))
        return max(0.0, ttl - self._foreign_age(job_id, payload))

    # -- acquire -----------------------------------------------------------
    def acquire(self, job_id: str) -> Lease | None:
        """Try to take the lease; ``None`` while another owner holds it.

        A foreign running lease counts as held until this manager has
        watched its record generation go unrenewed for a full ttl on
        the local monotonic clock (see the module docstring); the
        first call therefore only *starts* the observation window.

        Acquisition is write-then-verify: write a record at the next
        epoch, re-read the newest record, and only claim victory if it
        is ours — so when two processes race, exactly one wins (each
        write is one line appended to the store's journal under its
        file lock, so the journal's order is the writes' order and its
        sequence numbers rise strictly; last write wins and the loser
        observes it).
        """
        store = self._store(job_id)
        record = store.load_latest(LEASE_KIND)
        adopted = False
        epoch = 0
        if record is not None:
            payload = record.payload
            foreign_running = (payload.get("state") == "running"
                               and payload.get("owner") != self.owner)
            if foreign_running:
                ttl = float(payload.get("ttl", self.ttl))
                if self._foreign_age(job_id, payload) < ttl:
                    if self.observer.enabled:
                        self.observer.count("serve.lease.held")
                    return None
            epoch = int(payload.get("epoch", -1)) + 1
            adopted = foreign_running
        now_mono = time.monotonic()
        expires_at = time.time() + self.ttl  # display/provenance only
        store.write(LEASE_KIND, self._payload(job_id, epoch, expires_at,
                                              "running", renewals=0))
        latest = store.load_latest(LEASE_KIND)
        if latest is None or latest.payload.get("owner") != self.owner \
                or int(latest.payload.get("epoch", -1)) != epoch:
            return None  # lost the race to a concurrent acquirer
        self._observed.pop(job_id, None)
        if self.observer.enabled:
            self.observer.count("serve.lease.acquired")
            if adopted:
                self.observer.count("serve.lease.adopted")
        return Lease(job_id=job_id, owner=self.owner, epoch=epoch,
                     expires_at=expires_at,
                     deadline_mono=now_mono + self.ttl, adopted=adopted)

    def _payload(self, job_id: str, epoch: int, expires_at: float,
                 state: str, *, renewals: int = 0) -> dict:
        return {"job_id": job_id, "owner": self.owner, "epoch": epoch,
                "expires_at": expires_at, "state": state,
                "ttl": self.ttl, "renewals": renewals}

    # -- heartbeat / release -----------------------------------------------
    def _verify(self, lease: Lease) -> None:
        latest = self._store(lease.job_id).load_latest(LEASE_KIND)
        if latest is None \
                or latest.payload.get("owner") != lease.owner \
                or int(latest.payload.get("epoch", -1)) != lease.epoch:
            if self.observer.enabled:
                self.observer.count("serve.lease.lost")
            raise LeaseLost(
                f"lease on {lease.job_id!r} (epoch {lease.epoch}) was "
                "superseded — another worker adopted the job")

    def heartbeat(self, lease: Lease) -> Lease:
        """Extend the lease by ``ttl``; :class:`LeaseLost` if superseded.

        Cheap to call eagerly: the record is only rewritten once less
        than half the ttl remains on the owner's monotonic clock.
        """
        now_mono = time.monotonic()
        if lease.remaining(now_mono) > self.ttl / 2:
            return lease
        self._verify(lease)
        lease.deadline_mono = now_mono + self.ttl
        lease.expires_at = time.time() + self.ttl
        lease.renewals += 1
        self._store(lease.job_id).write(
            LEASE_KIND, self._payload(lease.job_id, lease.epoch,
                                      lease.expires_at, "running",
                                      renewals=lease.renewals))
        if self.observer.enabled:
            self.observer.count("serve.lease.renewed")
        return lease

    def release(self, lease: Lease, *, state: str = "done") -> None:
        """Terminate the lease (``state``: ``done``/``failed``/
        ``cancelled``); a superseded lease is left alone."""
        try:
            self._verify(lease)
        except LeaseLost:
            return
        self._store(lease.job_id).write(
            LEASE_KIND, self._payload(lease.job_id, lease.epoch,
                                      time.time(), state,
                                      renewals=lease.renewals))
        if self.observer.enabled:
            self.observer.count("serve.lease.released")
