"""Edit a checkpoint store's journal behind its back.

A :class:`~repro.runtime.CheckpointStore` keeps every record as one line
of ``<store>/records.jsonl``. Tests that simulate a kill (drop the newest
records), a torn write (cut the newest record short) or on-disk damage
(tamper with a record) rewrite that file through these helpers.
"""

import json
from pathlib import Path

JOURNAL = "records.jsonl"


def journal_lines(store_dir) -> list[bytes]:
    """The journal's complete records, oldest first, without newlines."""
    try:
        data = (Path(store_dir) / JOURNAL).read_bytes()
    except FileNotFoundError:
        return []
    return data.split(b"\n")[:-1]


def rewrite_journal(store_dir, lines, *, tail: bytes = b"") -> None:
    """Replace the journal with ``lines`` (one record each) followed by
    ``tail``, bytes with no final newline — a torn append."""
    (Path(store_dir) / JOURNAL).write_bytes(
        b"".join(line + b"\n" for line in lines) + tail)


def truncate_newest(store_dir, length: int | None = None) -> None:
    """Cut the newest record to its first ``length`` bytes (default:
    half), leaving it as a torn tail."""
    *older, newest = journal_lines(store_dir)
    rewrite_journal(store_dir, older, tail=newest[
        :len(newest) // 2 if length is None else length])


def tamper_newest(store_dir, edit) -> None:
    """Rewrite the newest record's envelope through ``edit(envelope)``,
    which changes the decoded dict in place."""
    *older, newest = journal_lines(store_dir)
    envelope = json.loads(newest)
    edit(envelope)
    rewrite_journal(store_dir, [*older, json.dumps(envelope).encode()])


def keep_only_oldest(store_dir, of_newest: int = 3) -> None:
    """Drop every record but the oldest of the newest ``of_newest``: the
    on-disk state a kill ``of_newest - 1`` flushes before the end would
    have left."""
    rewrite_journal(store_dir, journal_lines(store_dir)[-of_newest:][:1])
