#!/usr/bin/env python3
"""Benchmark runner for rtrees.

    python3 perfbench/run.py --workload {deficiency,realize,query}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports ``rtrees`` from its
``src/`` directory.  One process, one thread, a closed loop with a single
client: each task starts when the previous one has returned.  Set-up
(importing rtrees and generating every input from the seed) is timed on
its own and repeated; the loop then runs whole rounds of tasks until
``--seconds`` of task time have been measured.  Every output is checked
after its round, outside the timed region.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` every library call is wrapped in a
span and the JSON object carries the per-layer metrics instead.  Spans are
written to ``.perfbench-out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

from common import REFERENCE_S, fingerprint, reference_probe  # noqa: E402
from tracing import EXACT, LAYER, RAISED, Api, Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

DEFAULT_SEED = 1  # outputs recorded in expected/<workload>.json; seed 2 is the hold-out
SETUP_REPEATS = 5
MIN_ROUNDS = 3
PROBE_EVERY_S = 0.1  # wall time between reference probes in the loop
WALL_LIMIT_S = 150.0  # stop starting rounds after this, to finish well within 180 s


def import_rtrees():
    """Import rtrees, refusing any copy but this checkout's src/rtrees."""
    rtrees = importlib.import_module("rtrees")
    origin = os.path.dirname(os.path.abspath(rtrees.__file__))
    if origin != os.path.join(SRC, "rtrees"):
        raise ImportError(f"rtrees imported from {origin}, not from this checkout")
    return rtrees, importlib.import_module("rtrees.cli").main


def set_up(workload, seed, tiny, tracer=None):
    """Import rtrees and build the workload's round of tasks.  Returns the
    time taken at nominal host speed, the API, the tasks and the directory
    of CLI input files."""
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT)
    before = reference_probe()
    t0 = time.perf_counter()
    rtrees, main = import_rtrees()
    api = Api(rtrees, main, tracer)
    tasks = build(workload, api, seed, workdir, tiny=tiny)
    elapsed = time.perf_counter() - t0
    return elapsed * 2 * REFERENCE_S / (before + reference_probe()), api, tasks, workdir


def run_rounds(tasks, api, seconds, tracer, expected, record, set_up_again):
    """The timed closed loop: whole rounds until ``seconds`` of task time.
    ``set_up_again()`` is called between rounds, untimed by the loop, so
    that the set-up repeats are spread over the run.

    A reference probe runs, untimed, about every PROBE_EVERY_S; each task's
    latency is rescaled to nominal host speed by the mean of the probes
    taken just before and just after it (see README: host noise).  Returns
    each task's rescaled latencies, the failures per task kind and the CLI
    calls that exited with a code other than 0 or 1."""
    clock = time.perf_counter
    latencies = [[] for _ in tasks]
    pending = []  # (task index, raw latency) since the last probe
    probe = reference_probe()
    probed_at = clock()

    def rescale_pending():
        nonlocal probe, probed_at
        after = reference_probe()
        for i, raw in pending:
            latencies[i].append(raw * 2 * REFERENCE_S / (probe + after))
        pending.clear()
        probe, probed_at = after, clock()

    failures = Counter()
    unexpected_exit = 0
    timed = 0.0
    rounds = 0
    wall0 = clock()
    task_id = 0
    while rounds < MIN_ROUNDS or (timed < seconds and clock() - wall0 < WALL_LIMIT_S):
        outs, raised = {}, set()
        for i, task in enumerate(tasks):
            if tracer is not None:
                ta = clock()
                tracer.open_task(task_id, task.kind, task.size, ta)
                tracer.overhead_s += clock() - ta
            t0 = clock()
            try:
                out = task.run()
            except Exception as exc:  # counted as a failed task, never fatal
                out = exc
                raised.add(task.key)
            t1 = clock()
            if tracer is not None:
                tracer.close_task(t1, task.key in raised)
            task_id += 1
            pending.append((i, t1 - t0))
            timed += t1 - t0
            outs[task.key] = out
            if clock() - probed_at >= PROBE_EVERY_S:
                rescale_pending()
        rescale_pending()
        for task in tasks:
            out = outs[task.key]
            ok = task.key not in raised and _check(task, out, outs)
            if ok and (expected is not None or record is not None):
                fp = fingerprint(task.extra.get("canon", lambda o: o)(out), api.rt)
                if record is not None:
                    record[task.key] = fp
                else:
                    ok = expected.get(task.key) == fp
            if task.kind.startswith("cli.") and not (isinstance(out, tuple) and out[0] in (0, 1)):
                unexpected_exit += 1
            if not ok:
                failures[task.kind] += 1
        rounds += 1
        set_up_again()
    return latencies, failures, unexpected_exit, timed, rounds


def _check(task, out, outs) -> bool:
    try:
        return bool(task.check(out, outs))
    except Exception as exc:  # a check that cannot run is a failed check
        print(f"check {task.key} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return False


def p90(values):
    """Nearest-rank 90th percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(0.9 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(per_task, setup_s):
    """Figures over each task's median rescaled latency."""
    value_p90, _beyond = p90(per_task)
    return {
        "tasks_per_s": (len(per_task) / sum(per_task), "tasks/s"),
        "task_p50_s": (statistics.median(per_task), "s"),
        "task_p90_s": (value_p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer: Tracer, unexpected_exit: int):
    """Every per-layer metric the spans give, keyed by name."""
    busy, calls, exact, raised = Counter(), Counter(), Counter(), Counter()
    in_tasks = Counter()  # busy time per layer inside tasks, set-up excluded
    task_time = 0.0
    for i in range(len(tracer.name)):
        name = tracer.names[tracer.name[i]]
        dur = tracer.end[i] - tracer.start[i]
        if name.startswith("task."):
            task_time += dur
            continue
        parts = name.split(".")
        if tracer.task[i] >= 0:
            in_tasks[parts[0]] += dur
        keys = [name] if len(parts) == 2 else [name, ".".join(parts[:2])]
        for key in keys:
            busy[key] += dur
            calls[key] += 1
            exact[key] += tracer.flag[i] == EXACT
            raised[key] += tracer.flag[i] == RAISED
    m = {}
    for key in list(busy):
        m[key + ".busy_s"] = (busy[key], "s")
        m[key + ".calls"] = (calls[key], "count")
    for fn, layer in LAYER.items():  # zero for functions this workload never called
        m.setdefault(f"{layer}.{fn}.busy_s", (0.0, "s"))
        m.setdefault(f"{layer}.{fn}.calls", (0, "count"))

    def mean(key, scale):
        return busy[key] / calls[key] * scale if calls[key] else 0.0

    for v in ("shallow", "deep"):
        m[f"skeleton.distance.{v}.mean_us"] = (mean(f"skeleton.distance.{v}", 1e6), "us")
    for v in ("n8", "n16", "n24"):
        m[f"matrices.realize_tree.{v}.mean_s"] = (mean(f"matrices.realize_tree.{v}", 1), "s")
    for v in ("k2", "k3", "k4"):
        m[f"deficiency.rb_deficiency.{v}.mean_s"] = (mean(f"deficiency.rb_deficiency.{v}", 1), "s")
    m["matrices.realize_tree.rejected"] = (raised["matrices.realize_tree.rejected"], "count")
    for key in ("formulas.eval_quantified", "typespace.type_distance_search"):
        m[key + ".exact_ratio"] = (exact[key] / calls[key] if calls[key] else 0.0, "ratio")
    grid = [s["grid_points"] for s in tracer.task_sizes.values() if s.get("kind") == "check_rt_axioms"]
    m["formulas.check_rt_axioms.grid_points"] = (statistics.mean(grid) if grid else 0.0, "count")
    m["cli.main.unexpected_exit"] = (unexpected_exit, "count")
    for layer in set(LAYER.values()):
        m[f"share.{layer}"] = (in_tasks[layer] / task_time if task_time else 0.0, "ratio")
    m["trace.task_busy_s"] = (task_time, "s")
    m["trace.overhead_s"] = (tracer.overhead_s, "s")
    m["trace.overhead_ratio"] = (tracer.overhead_s / task_time if task_time else 0.0, "ratio")
    m["trace.spans"] = (len(tracer.name), "count")
    return m


def declared(section):
    """Metric names BENCHMARK.json declares for a section, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--record", action="store_true", help="record the default seed's outputs")
    ap.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rtrees", "__init__.py")):
        print(f"error: no rtrees sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.record and (args.seed != DEFAULT_SEED or args.tiny):
        print("error: --record needs the default seed and full sizes", file=sys.stderr)
        return 2
    expected_path = os.path.join(HERE, "expected", f"{args.workload}.json")
    expected = record = None
    if args.record:
        record = {}
    elif args.seed == DEFAULT_SEED and not args.tiny and not args.setup_only:
        with open(expected_path, encoding="utf-8") as fh:
            expected = json.load(fh)

    if args.setup_only:
        seconds, _api, _tasks, workdir = set_up(args.workload, args.seed, args.tiny)
        shutil.rmtree(workdir, ignore_errors=True)
        print(seconds)
        return 0

    tracer = Tracer() if args.trace else None
    setup_times, workdir = [], None

    def set_up_again():
        # A fresh process per repeat: a second import in this process would
        # mix two copies of the library's classes.
        if len(setup_times) < SETUP_REPEATS:
            cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
            proc = subprocess.run(cmd + ["--tiny"] * args.tiny, capture_output=True, text=True, timeout=120)
            setup_times.append(float(proc.stdout.split()[-1]))

    try:
        seconds, api, tasks, workdir = set_up(args.workload, args.seed, args.tiny, tracer)
        setup_times.append(seconds)
        latencies, failures, unexpected_exit, timed, rounds = run_rounds(
            tasks, api, args.seconds, tracer, expected, record, set_up_again
        )
        while len(setup_times) < SETUP_REPEATS:
            set_up_again()
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    if record is not None:
        with open(expected_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=0, sort_keys=True)
            fh.write("\n")

    attempted, failed = sum(map(len, latencies)), sum(failures.values())
    per_task = [statistics.median(lats) for lats in latencies]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"tasks_per_round={len(tasks)} attempted={attempted} timed_s={timed:.3f}")
    for kind, n in sorted(failures.items()):
        print(f"failed kind={kind} count={n}")
    print(f"failed_ratio={failed / attempted:.6g} ratio ({failed}/{attempted})")
    by_kind = defaultdict(list)
    for task, b in zip(tasks, per_task):
        by_kind[task.kind].append(b)
    for kind, bs in sorted(by_kind.items()):
        print(f"task kind={kind} per_round={len(bs)} mean_s={statistics.mean(bs):.6g} "
              f"share={sum(bs) / sum(per_task):.4f}")
    print("set-up repeats_s=" + ",".join(f"{t:.4f}" for t in setup_times))

    if args.trace:
        metrics = per_layer(tracer, unexpected_exit)
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        })
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        section = "per_layer"
    else:
        metrics = end_to_end(per_task, statistics.median(setup_times))
        _v, beyond = p90(per_task)
        print(f"task_p90_s samples={len(per_task)} beyond={beyond}")
        section = "end_to_end"
    for key, (val, unit) in sorted(metrics.items()):
        print(f"{key}={val:.6g} {unit}")

    names = declared(section) or sorted(metrics)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
