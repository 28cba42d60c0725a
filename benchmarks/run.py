"""sidforge benchmark.

One workload per process:

    python3 benchmarks/run.py --workload train-joint --seed 1 --trace 0

prints the end-to-end metrics (--trace 0) or the per-layer table of a
traced run (--trace 1), one line per metric with its unit and sample
count, then a last line of JSON: {"correct", "attempted", "failed",
"metrics"}.  `--workload all` runs every workload in its own process and
exits non-zero if any output check failed.  See benchmarks/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before anything imports NumPy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train-joint", "cli-pipeline", "serve-decode")
# Set-up runs at least MIN times, and again while all set-ups so far
# took under SETUP_SECONDS, up to MAX times: a cheap set-up gets more
# samples for its median.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 15, 2.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def environment(workload, seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": nproc, "machine": platform.machine(),
            "seed": seed, "config_digest": workload.config_digest(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "sidforge", "__init__.py")):
        print(f"error: sidforge sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import layers
    from reference import Reference
    from tracer import Tracer
    from workloads import WORKLOADS

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT, run_id)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # Every timed piece is scaled to a nominal host speed by the reference
    # kernel that runs during it (see reference.py).
    workload = WORKLOADS[args.workload]
    clock = Reference(workload.REFERENCE)
    for _ in range(10):
        clock.sample()
    wl = workload(args.seed, work_dir, clock)

    raw_setup = []
    first_run = len(clock.samples)
    while len(raw_setup) < MIN_SETUPS or (len(raw_setup) < MAX_SETUPS
                                          and sum(raw_setup) < SETUP_SECONDS):
        with clock.hooked():
            mark = clock.start()
            wl.setup()
            raw_setup.append(clock.stop(mark)[0])
    # cli-pipeline's set-up waits for a child process, and the kernel runs
    # up to four times slower on the core that idled meanwhile.  So one
    # scale for all set-ups comes from the median kernel time over them.
    setup_times = [clock.scale(raw, [statistics.median(
        clock.samples[first_run:])]) for raw in raw_setup]

    # Untraced passes give the end-to-end numbers.  The first pass warms
    # up and is checked but not timed.  A traced run then alternates
    # traced and untraced passes; the difference of their medians is the
    # tracing cost.  A traced pass runs the reference kernel only outside
    # every span: at its two ends, and between CLI commands.
    tracer = Tracer()
    walls = {False: [], True: []}   # scaled
    raw_walls = []     # per timed untraced pass, unscaled
    segments = []      # per timed untraced pass, scaled
    kernel_runs = []   # per timed untraced pass, its range in clock.samples
    spent = []         # every pass, kernel runs included, to plan the loop
    attempted, failed, items = 0, 0, 0
    min_passes = 3 if args.trace else 2
    started = time.perf_counter()
    n = 0
    while n < min_passes or (time.perf_counter() - started
                             + statistics.mean(spent) <= args.seconds):
        traced = bool(args.trace) and n % 2 == 1
        t0 = time.perf_counter()
        hooks = (tracer.installed("sidforge", layers.TRACED, layers.OBSERVERS)
                 if traced else clock.hooked())
        with hooks:
            mark = clock.start()
            try:
                data = wl.run_pass()
            except Exception as exc:  # noqa: BLE001 - the whole pass failed
                print(f"# pass {n} raised {exc!r}", file=sys.stderr)
                data = None
            raw, scaled = clock.stop(mark)
        spent.append(time.perf_counter() - t0)
        n += 1
        ops = wl.ops_per_pass()
        attempted += ops
        if data is None:
            failed += ops
            break
        failed += wl.check_pass(data)
        if n == 1:
            continue
        walls[traced].append(scaled)
        if not traced:
            raw_walls.append(raw)
            kernel_runs.append((mark[1], len(clock.samples)))
            segments.append([t * scaled / raw for t in data["segments"]])
            items = data.get("items", 0)
    if data is not None:
        try:
            failed += wl.final_check()
        except Exception as exc:  # noqa: BLE001 - reported as incorrect
            print(f"# final check raised {exc!r}", file=sys.stderr)
            failed = attempted

    correct = failed == 0
    if correct:
        try:
            quality = wl.quality()
        except Exception as exc:  # noqa: BLE001 - reported as incorrect
            print(f"# quality guards raised {exc!r}", file=sys.stderr)
            quality, correct = {}, False
    if correct and not args.trace:
        n_passes = len(segments)
        wall = statistics.median(walls[False])
        op_lat = np.array(segments)[:, wl.OP_SLICE].ravel()
        quality_units = {"final_loss": "nats", "recall_at_10": "fraction",
                         "v_measure_l3": "fraction"}
        rows = [("setup_s", statistics.median(setup_times), "s",
                 len(setup_times)),
                ("ops_per_s", wl.ops_per_pass() / wall, "1/s", n_passes),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF)
                 .ru_maxrss / 1024.0, "MB", 1)]
        rows += [(k, v, quality_units[k], count)
                 for k, (v, count) in quality.items()]
        # Printed, not gated: see "Printed but not gated" in README.md.
        info = [("wall_s", wall, "s", n_passes),
                ("raw_wall_s", statistics.median(raw_walls), "s", n_passes),
                ("raw_setup_s", statistics.median(raw_setup), "s",
                 len(raw_setup)),
                ("ref_ms", 1e3 * statistics.median(clock.samples), "ms",
                 len(clock.samples)),
                (f"{wl.OP_NAME}_p50_ms", 1e3 * percentile(op_lat, 50), "ms",
                 op_lat.size)]
        # the highest percentile with at least ten samples beyond it
        for q, n_min in ((99, 1000), (90, 100)):
            if op_lat.size >= n_min:
                info.append((f"{wl.OP_NAME}_p{q}_ms",
                             1e3 * percentile(op_lat, q), "ms", op_lat.size))
                break
        if items:
            info.append(("train_items_per_s", items / wall, "1/s", n_passes))
        if args.workload == "serve-decode":
            info.append(("queries_per_s", wl.ops_per_pass() / wall, "1/s",
                         n_passes))
        info += wl.info
    elif correct:
        n_traced = len(walls[True])
        values = layers.layer_values(tracer, n_traced, wl.code_usage)
        values["trace.wall_s"] = statistics.median(walls[True])
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(walls[False]))
        rows = [(name, values[name], unit, n_traced)
                for name, unit in layers.per_layer_metrics()]
        info = []
        tracer.write(os.path.join(work_dir, "spans.csv"))
    else:
        rows, info = [], []

    env = environment(wl, args.seed)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# operations: attempted={attempted} failed={failed} "
          f"failed_share={failed / max(attempted, 1):.4f}")
    for name, value, unit, count in rows:
        print(f"{args.workload:<13} {name:<48} {value:>14.6g} {unit:<8} "
              f"n={count}")
    for name, value, unit, count in info:
        print(f"{args.workload:<13} {name:<48} {value:>14.6g} {unit:<8} "
              f"n={count}  (not gated)")
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(work_dir, "result.json"), "w",
              encoding="utf-8") as f:
        json.dump({**result, "environment": env,
                   "counts": {name: count for name, _, _, count in rows},
                   "not_gated": info,
                   "setup_times_s": setup_times, "raw_setup_times_s": raw_setup,
                   "pass_walls_s": walls[False], "raw_pass_walls_s": raw_walls,
                   "traced_pass_walls_s": walls[True],
                   "reference_times_s": clock.samples,
                   "pass_reference_runs": kernel_runs,
                   "pass_segments_s": segments}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; relays every line it prints."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0}
        ok = proc.returncode == 0 and result["correct"]
        status |= 0 if ok else 1
        summary.append(f"{name}: correct={result['correct']} "
                       f"attempted={result['attempted']} "
                       f"failed={result['failed']} exit={proc.returncode}")
    print("\n".join(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
