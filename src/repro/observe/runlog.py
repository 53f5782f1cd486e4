"""Structured JSONL run-provenance log.

Every instrumented layer appends *events* — small flat dicts with a
``kind`` plus whatever identifies the work: estimator parameters, RNG
seed, data fingerprint, per-round scores, cleaned row ids. Two uses:

- **Replay**: an ``importance.run`` event carries (method, params, seed,
  data fingerprint), which is exactly the tuple that determines the
  scores under the backend-invariance guarantee, so a run can be
  reconstructed from its log alone.
- **Diff**: :func:`diff_runs` aligns two event streams and reports every
  field that changed — the fastest way to answer "why did tonight's
  cleaning run behave differently?" (different seed? different data
  fingerprint? fewer rounds?).

Events are held in memory and, when a ``path`` is given, appended
through to a JSONL file as they happen (one ``json.dumps`` line per
event, crash-durable up to the last flushed line).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

__all__ = ["RunLog", "diff_runs", "jsonable"]

#: Bookkeeping fields skipped when diffing two runs — they differ between
#: any two executions without being *semantic* differences.
VOLATILE_FIELDS = ("seq", "ts", "run_id", "wall_seconds", "cpu_seconds")


#: Types :func:`jsonable` returns unchanged (exact types: subclasses
#: such as ``np.float64`` still go through the conversions).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and paths to JSON types."""
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":  # tolist() yields JSON scalars
            return obj.tolist()
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        if all(type(v) in _JSON_SCALARS for v in obj):
            return list(obj)
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Path):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


class RunLog:
    """Append-only provenance log with optional JSONL write-through.

    Parameters
    ----------
    path:
        JSONL file events are appended to as they are recorded; parent
        directories are created. ``None`` keeps the log in memory only.
    run_id:
        Identifier stamped on every event (the owning observer's id).
    """

    def __init__(self, path: str | Path | None = None, *,
                 run_id: str | None = None):
        self.path = Path(path) if path is not None else None
        self.run_id = run_id
        self.events: list[dict] = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Truncate: one RunLog == one run; appending across runs
            # would silently interleave their provenance.
            self.path.write_text("", encoding="utf-8")

    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns the stored (JSON-clean) dict."""
        event = {"seq": len(self.events), "ts": time.time(), "kind": kind}
        if self.run_id is not None:
            event["run_id"] = self.run_id
        event.update(jsonable(fields))
        self.events.append(event)
        if self.path is not None:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(event) + "\n")
        return event

    # -- queries -----------------------------------------------------------
    def iter_events(self, kind: str | None = None):
        """All events, or only those of one ``kind``, in record order."""
        for event in self.events:
            if kind is None or event["kind"] == kind:
                yield event

    def kinds(self) -> dict:
        """``{kind: count}`` summary used by the text report."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event["kind"]] = out.get(event["kind"], 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)

    # -- (de)serialization -------------------------------------------------
    def to_jsonl(self) -> str:
        return "".join(json.dumps(event) + "\n" for event in self.events)

    def write(self, path: str | Path) -> Path:
        """Dump the in-memory event list to ``path`` (overwrites)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunLog":
        """Rebuild a log from a JSONL file (memory-only; does not re-open
        the file for writing)."""
        log = cls()
        text = Path(path).read_text(encoding="utf-8")
        for line in text.splitlines():
            line = line.strip()
            if line:
                log.events.append(json.loads(line))
        if log.events and "run_id" in log.events[0]:
            log.run_id = log.events[0]["run_id"]
        return log


def diff_runs(a: RunLog, b: RunLog, *, ignore=VOLATILE_FIELDS) -> list[str]:
    """Human-readable differences between two runs' event streams.

    Events are aligned by position; every added/removed event and every
    changed field (outside ``ignore``) produces one line. An empty list
    means the runs are provenance-identical — same stages, same params,
    same seeds, same data fingerprints, same scores.
    """
    ignore = set(ignore)
    lines: list[str] = []
    for i in range(max(len(a.events), len(b.events))):
        if i >= len(a.events):
            lines.append(f"[{i}] only in B: {b.events[i]['kind']}")
            continue
        if i >= len(b.events):
            lines.append(f"[{i}] only in A: {a.events[i]['kind']}")
            continue
        ev_a, ev_b = a.events[i], b.events[i]
        if ev_a["kind"] != ev_b["kind"]:
            lines.append(f"[{i}] kind: {ev_a['kind']!r} != {ev_b['kind']!r}")
            continue
        keys = (set(ev_a) | set(ev_b)) - ignore
        for key in sorted(keys):
            va, vb = ev_a.get(key), ev_b.get(key)
            if va != vb:
                lines.append(
                    f"[{i}] {ev_a['kind']}.{key}: {va!r} != {vb!r}")
    return lines
