"""End-to-end benchmark of the repro library: four paper scenarios.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clean --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steady 5 --workload ooc --seed 1 --seconds 20

Workloads (why each was chosen is in ``BENCHMARK.json`` and LAYERS.md):
``clean`` (Fig. 2 iterative cleaning), ``debug`` (Fig. 3 Datascope
sessions plus the configuration debugger over its corpus), ``ooc``
(sharded out-of-core training and deletion requests) and ``serve`` (a
two-tenant burst of importance jobs).

One run is one process. It imports the library, builds the workload's
inputs from ``--seed`` three times and warms up once (``setup_s`` is the
median import time plus the median build plus the warm-up), collects
garbage, then repeats the workload's fixed unit of work -- an *episode*
-- for about ``--seconds``. ``run_s`` is the median episode wall time.
The ``details`` line reports the operation latency percentiles over
every operation of every episode, with their sample counts. After the
measured phase the workload checks its outputs; any failed check makes
``correct`` false and counts in ``failed``.

With ``--trace 1`` every second episode is traced: the benchmark's own
spans around calls into each layer give a self-time table, and the
difference of the traced and untraced median episode times is the
tracing overhead. Traced episodes also attach ``repro.observe.Observer``
objects to read program counters, and a mechanism check asserts that the
layer the workload was chosen for carries the largest self time.

``--steady N`` reruns the workload in N fresh processes with seeds
``seed .. seed+N-1`` and prints each metric's quartile spread as a share
of its median next to the bound ``BENCHMARK.json`` sets for it.

The last line a run prints to standard output is the JSON result.
Without the library sources next to ``perfbench/`` it prints none and
exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from harness import (
    ROOT,
    Recorder,
    children_cpu_s,
    emit,
    layer_rows,
    machine_facts,
    median,
    peak_rss_mb,
    percentile,
    render_table,
    span_stats,
    steal_jiffies,
)

WORKLOADS = ("clean", "debug", "ooc", "serve")
SETUP_REPS = 3

#: Per-layer metrics every workload reports with --trace 1. Counts are
#: per traced episode; a layer a workload does not use reads 0.
PER_LAYER = {
    "primary_self_s": "s",
    "primary_share": "ratio",
    "remainder_s": "s",
    "cpu_s": "s",
    "importance.kernel_steps": "count",
    "importance.utility_calls": "count",
    "debugger.configs_evaluated": "count",
    "debugger.rounds": "count",
    "runtime.tasks": "count",
    "runtime.cache_hit_rate": "ratio",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "bytes",
    "data.shards_read": "count",
    "unlearning.shard_retrains": "count",
    "serve.fair_share": "ratio",
}


def _measure(workload, rec, budget: float, trace: bool):
    """Repeat episodes while the next one is expected to end closer to
    ``budget`` seconds than stopping now. With ``trace`` every second
    episode is traced, so drift on the host hits both kinds alike.
    Returns ``(untraced walls, traced walls, untraced op latencies,
    untraced cpu seconds, error)``."""
    walls, traced_walls, ops = [], [], []
    cpu_s = 0.0
    started = time.perf_counter()
    error = None
    while not walls or (trace and not traced_walls) or (
            time.perf_counter() - started
            + statistics.mean(walls + traced_walls) / 2 < budget):
        traced = trace and len(walls) > len(traced_walls)
        rec.tracing = traced
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with rec.span("episode"):
                episode_ops = workload.episode(traced)
        except Exception:  # report the failure in the result line
            error = traceback.format_exc()
            break
        finally:
            rec.tracing = False
        if traced:
            traced_walls.append(time.perf_counter() - t0)
        else:
            walls.append(time.perf_counter() - t0)
            cpu_s += time.process_time() - cpu0
            ops.extend(episode_ops)
    return walls, traced_walls, ops, cpu_s, error


def _mechanism(workload, rows: dict, other: dict) -> tuple[float, list]:
    """Self time of the workload's chosen layers, and a failure message
    when another layer (or the remainder) carries more."""
    merged: dict[str, float] = {}
    for table in (rows, other):
        for name, secs in table.items():
            merged[name] = merged.get(name, 0.0) + secs
    group = sum(merged.get(name, 0.0) for name in workload.primary)
    rivals = {name: secs for name, secs in merged.items()
              if name not in workload.primary and name != "wait"}
    failures = []
    if rivals and max(rivals.values()) >= group:
        top = max(rivals, key=rivals.get)
        failures.append(
            f"MECHANISM CHECK FAILED: {'+'.join(workload.primary)} self "
            f"time {group:.4f}s is not the largest; {top} has "
            f"{rivals[top]:.4f}s -- the workload no longer exercises the "
            "layer it was chosen for")
    return group, failures


def _import_in_child(workload: str) -> float:
    """Seconds a fresh interpreter takes to import a workload module."""
    code = ("import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "t0 = time.perf_counter(); "
            f"import wl_{workload}; "
            "print(time.perf_counter() - t0)")
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_once(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Imports are timed three times -- here and in two fresh
    # interpreters -- because one cold import varies by a sixth.
    imports = [_import_in_child(args.workload)
               for _ in range(SETUP_REPS - 1)]
    t0 = time.perf_counter()
    module = importlib.import_module(f"wl_{args.workload}")
    imports.append(time.perf_counter() - t0)

    state = ROOT / ".bench_state" / f"{args.workload}-{os.getpid()}"
    state.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    workload = module.Workload(rec, args.seed, state)
    try:
        return _run(args, workload, rec, state, imports)
    finally:
        workload.close()
        shutil.rmtree(state, ignore_errors=True)


def _run(args, workload, rec, state, imports) -> int:
    facts = machine_facts(state)
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.warmup()
    warmup_s = time.perf_counter() - t0
    setup_s = median(imports) + median(setups) + warmup_s

    gc.collect()
    steal0 = steal_jiffies()
    children0 = children_cpu_s()
    walls, traced_walls, ops, cpu_s, error = _measure(
        workload, rec, args.seconds, bool(args.trace))
    children_s = children_cpu_s() - children0
    steal_s = (steal_jiffies() - steal0) / os.sysconf("SC_CLK_TCK")

    failures = []
    if error is not None:
        failures.append(error)
    else:
        failures += workload.check()

    details = {
        "workload": args.workload, "seed": args.seed,
        "episodes": len(walls), "ops": len(ops),
        "episode_s": walls, "import_s": imports, "setup_reps_s": setups,
        "warmup_s": warmup_s,
        "cpu_s": cpu_s, "cpu_children_s": children_s,
        "host_steal_s": steal_s, "machine": facts,
        "summary": workload.summary(),
    }
    attempted = max(1, len(ops))
    tails = {q: percentile(ops, q) for q in (50, 90)}
    for q, value in tails.items():
        if value is not None:
            details[f"op_p{q}_ms"] = {"value": 1e3 * value,
                                      "samples": len(ops)}
    metrics = {}
    if tails[50] is not None:
        metrics = {"setup_s": (setup_s, "s"),
                   "run_s": (median(walls), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}

    if args.trace and traced_walls:
        roots = list(rec.tracer.roots)
        main = [s for s in roots if s.name == "episode"]
        stats = span_stats(main)
        other_stats = span_stats([s for s in roots if s.name != "episode"])
        rows = layer_rows(stats)
        other = workload.other_rows(layer_rows(other_stats))
        wall = sum(traced_walls)
        n = len(traced_walls)
        group, mech = _mechanism(workload, rows, other)
        failures += mech
        layers = workload.layer_metrics(n, stats, other_stats)
        layers["cpu_s"] = cpu_s / len(walls)
        layers["cpu_children_s"] = children_s / (len(walls) + n)
        layers["primary_self_s"] = group / n
        layers["primary_share"] = group / wall
        layers["remainder_s"] = rows.get("remainder", 0.0) / n
        overhead = median(traced_walls) - median(walls)
        print(f"== {args.workload}: per-layer self time over {n} traced "
              f"episode(s); chosen layer(s): {'+'.join(workload.primary)}")
        for line in render_table(rows, wall, other):
            print(line)
        print(f"tracing overhead: {overhead:+.4f}s per episode "
              f"({overhead / median(walls):+.1%} of the untraced median "
              f"{median(walls):.4f}s)")
        print("spans " + json.dumps({"measuring_thread": stats,
                                     "other_threads": other_stats},
                                    sort_keys=True))
        print("layers " + json.dumps(layers, sort_keys=True))
        metrics = {name: (float(layers.get(name, 0.0)), unit)
                   for name, unit in PER_LAYER.items()}

    failed = len(failures)
    details["error_rate"] = failed / attempted
    details["failures"] = failures
    for failure in failures:
        print(failure, file=sys.stderr)
    print("details " + json.dumps(details, sort_keys=True, default=str))
    emit(not failures and bool(metrics), attempted, failed, metrics)
    return 0


def _bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def steady(args) -> int:
    """Rerun one workload in fresh processes and report each metric's
    quartile spread (as a share of its median) against its bound."""
    values: dict[str, list] = {}
    bounds = _bounds()
    all_correct = True
    for i in range(args.steady):
        seed = args.seed + i
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            all_correct = False
            continue
        result = json.loads(lines[-1])
        details = json.loads(lines[-2].split(" ", 1)[1])
        all_correct &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            + f" host_steal_s={details['host_steal_s']:.2f} episodes_s="
            + ",".join(f"{w:.2f}" for w in details["episode_s"]), flush=True)
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    steady_ok = all_correct
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], None, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            mark = "ok" if spread <= bound / 3 else "WIDE"
            steady_ok &= spread <= bound
        print(f"{name:<28}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.1%}{'' if bound is None else bound:>8} {mark}")
    return 0 if steady_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="rerun the workload N times and report spreads")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
