"""Shared machinery of the end-to-end benchmark.

The harness owns everything a workload module should not have to
repeat: the span recorder (a ``repro.observe.Tracer`` that is only
switched on for traced episodes), percentiles with the ten-samples-beyond
rule, the self-time table, machine facts and the output lines.

Spans are opened by the benchmark's own files around calls into the
library's public functions; nothing inside ``src/repro`` is patched.
A span's layer is the part of its name before the first dot, so
``importance.score`` and ``importance.walk`` both count as importance.
Spans whose name ends in ``.wait`` are time the measuring thread spent
blocked on another thread; they are shown as their own row and never
count towards a layer.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def percentile(values, q: float):
    """Nearest-rank percentile ``q`` (0-100) of ``values``, or ``None``
    when fewer than ten samples lie beyond it: a tail figure drawn from a
    handful of operations is noise, not a latency."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = n - int(round(q / 100.0 * (n - 1))) - 1
    if q < 100 and beyond < 10:
        return None
    return ordered[int(round(q / 100.0 * (n - 1)))]


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    """CPU seconds of this process's children: reaped ones from
    ``getrusage`` plus live ones (pool workers) read from ``/proc``."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = usage.ru_utime + usage.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    me = os.getpid()
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            total += (int(fields[11]) + int(fields[12])) / tick
    return total


def steal_jiffies() -> int:
    """Host CPU steal (all cpus) from ``/proc/stat``; 0 when unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or ``None``."""
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _fs_type(path: Path) -> str:
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            _, mount, kind = line.split()[:3]
            if target.startswith(mount) and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


def _fsync_probe(directory: Path, n: int = 20) -> dict:
    """Latency of a small durable write in the state directory: the
    cost every checkpoint and shard publish pays."""
    probe = directory / "fsync.probe"
    times = []
    for _ in range(n):
        started = time.perf_counter()
        with open(probe, "wb") as fh:
            fh.write(b"x" * 2048)
            fh.flush()
            os.fsync(fh.fileno())
        times.append(time.perf_counter() - started)
    probe.unlink()
    times.sort()
    return {"p50_ms": round(1e3 * times[n // 2], 3),
            "max_ms": round(1e3 * times[-1], 3)}


def machine_facts(state_dir: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "state_fs": _fs_type(state_dir),
        "fsync": _fsync_probe(state_dir),
    }


class Recorder:
    """Span recorder switched on only for traced episodes.

    ``span(name)`` is a no-op context manager while tracing is off, so
    untraced episodes pay one attribute check per wrapped call.
    """

    def __init__(self):
        from repro.observe import Tracer

        self.tracer = Tracer()
        self.tracing = False

    def span(self, name: str):
        if self.tracing:
            return self.tracer.span(name)
        return contextlib.nullcontext()


class BaseWorkload:
    """What ``run.py`` asks of a workload module's ``Workload(rec, seed,
    state)``: ``primary`` (the layers it was chosen for), ``setup()``
    (build inputs from the seed; run several times), ``warmup()``,
    ``episode(traced) -> [operation seconds]``, ``check() -> [failure
    messages]``, ``layer_metrics(n_traced, stats, other_stats)`` and
    ``summary()``. The two hooks below have defaults."""

    primary: tuple = ()

    def other_rows(self, rows: dict) -> dict:
        """Self-time rows measured on threads other than the measuring
        one, given the rows their spans add up to."""
        return rows

    def close(self) -> None:
        """Stop whatever the workload started (servers, pools)."""


def span_stats(spans) -> dict:
    """``{span name: {"calls", "wall", "self"}}`` over a span forest; a
    span's self time is its duration minus its children's."""
    stats: dict[str, dict] = {}

    def visit(span):
        slot = stats.setdefault(span.name,
                                {"calls": 0, "wall": 0.0, "self": 0.0})
        slot["calls"] += 1
        slot["wall"] += span.wall_seconds
        slot["self"] += span.wall_seconds - sum(
            child.wall_seconds for child in span.children)
        for child in span.children:
            visit(child)

    for root in spans:
        visit(root)
    return stats


def total(stats: dict, name: str, key: str = "wall") -> float:
    """One field of :func:`span_stats` for ``name``; 0 when no such span
    was opened."""
    return stats.get(name, {}).get(key, 0.0)


def layer_rows(stats: dict) -> dict:
    """Fold :func:`span_stats` into ``{row: self seconds}``. The
    ``episode`` root's self time is the ``remainder``; ``*.wait`` spans
    form the ``wait`` row; every other span is charged to its layer."""
    rows: dict[str, float] = {}
    for name, slot in stats.items():
        if name == "episode":
            row = "remainder"
        elif name.endswith(".wait"):
            row = "wait"
        else:
            row = name.split(".", 1)[0]
        rows[row] = rows.get(row, 0.0) + slot["self"]
    return rows


def render_table(rows: dict, wall: float, extra: dict) -> list[str]:
    """The per-layer self-time table: one line per row, largest first,
    with the explicit remainder and the sum against the traced wall.
    ``extra`` holds rows measured on other threads (shown, not summed)."""
    lines = [f"{'layer':<22}{'self_s':>10}{'share':>9}", "-" * 41]
    for name, secs in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<22}{secs:>10.4f}{secs / wall:>9.1%}")
    lines.append("-" * 41)
    lines.append(f"{'sum (main thread)':<22}{sum(rows.values()):>10.4f}"
                 f"{sum(rows.values()) / wall:>9.1%}")
    lines.append(f"{'traced wall':<22}{wall:>10.4f}")
    for name, secs in sorted(extra.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name + ' (other threads)':<34}{secs:>10.4f}")
    return lines


def median(values) -> float:
    return float(statistics.median(values))


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: the last line a run writes to stdout."""
    import json

    payload = {"correct": bool(correct), "attempted": int(attempted),
               "failed": int(failed),
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)
