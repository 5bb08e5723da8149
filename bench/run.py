"""Benchmark of the inghamlab CLI on three workloads: sweep, dd and projection.

Run from the repository root; the program is imported from ``src``:

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25
    python3 bench/run.py --list-metrics

One process per workload, one client, one experiment at a time (a closed
loop): each timed pass calls ``cli.main`` once per config of the workload,
after one warm-up pass.  The CLI runs single-threaded; OpenBLAS keeps its
default thread count.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes, reports per-layer metrics from the
spans (medians over traced passes), the tracing overhead, and one pass in a
child process with BLAS limited to 1 thread.  Every artifact is checked (see
``checks.py``).  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record with the environment, quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import environment
import metrics
import tracing
import workloads

BENCH_DIR = workloads.BENCH_DIR
OUT_DIR = BENCH_DIR / "out"
PROBE = BENCH_DIR / "probe.py"
SETUP_PROBES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _child(mode: str, workload: str, seed: int, env=None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(PROBE), mode, workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=BENCH_DIR.parent, env=env,
    )


def _finish(child: subprocess.Popen) -> str:
    """Rest of the child's output; a child past the timeout is killed."""
    try:
        return child.communicate(timeout=CHILD_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        child.kill()
        raise


def setup_seconds(workload: str, seed: int) -> float:
    """Process start until the child has imported the program and parsed the configs."""
    start = time.perf_counter()
    with _child("setup", workload, seed) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        _finish(child)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe exited {child.returncode} without 'ready'")
    return ready - start


def single_thread_pass(workload: str, seed: int) -> dict:
    with _child("pass", workload, seed, env={**os.environ, **SINGLE_THREAD_ENV}) as child:
        out = _finish(child)
    if child.returncode != 0:
        raise RuntimeError(f"single-thread probe exited {child.returncode}")
    return json.loads(out.splitlines()[-1])


def untraced(cli, variants, ledger, seconds: float) -> tuple[dict, dict]:
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        jobs = variants[len(times) % len(variants)]
        elapsed, codes = workloads.run_pass(cli, jobs)
        ledger.record(jobs, codes)
        times.append(elapsed)
    setup = [setup_seconds(ledger.workload, ledger.seed) for _ in range(SETUP_PROBES)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": statistics.median(times), "setup_s": statistics.median(setup), "peak_rss_mb": peak_mb}
    result = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in metrics.END_TO_END}
    record = {"wall_s": stats(times), "setup_s": stats(setup), "peak_rss_mb": peak_mb}
    return result, record


def traced(cli, variants, ledger, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced passes in pairs on the same variant."""
    tracer = tracing.Tracer()
    plain, timed, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while len(timed) < MIN_PASSES or time.perf_counter() < deadline:
        jobs = variants[len(timed) % len(variants)]
        elapsed, codes = workloads.run_pass(cli, jobs)
        ledger.record(jobs, codes)
        plain.append(elapsed)
        tracer.begin_pass()
        with tracing.installed(tracer):
            elapsed, codes = workloads.run_pass(cli, jobs)
        layer = tracing.layer_metrics(tracer.end_pass())
        layer["cli.artifact_bytes"] = sum(job["out"].stat().st_size for job in jobs if job["out"].exists())
        ledger.record(jobs, codes)
        timed.append(elapsed)
        per_pass.append(layer)
    single = single_thread_pass(ledger.workload, ledger.seed)
    ledger.attempted += single["attempted"]
    ledger.failed += single["failed"]
    ledger.problems += [f"1-thread pass: {p}" for p in single["problems"]]

    names = [name for name, *_ in metrics.PER_LAYER]
    values = tracing.median_metrics(per_pass, names)
    values["trace.wall_s"] = statistics.median(timed)
    values["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    values["baseline.blas1_wall_s"] = single["wall_s"]
    result = {name: {"value": values[name], "unit": unit} for name, unit, *_ in metrics.PER_LAYER}
    layer_times = [name for name, unit, *_ in metrics.PER_LAYER
                   if unit == "s" and not name.startswith(("trace.", "baseline."))]
    largest = sorted(layer_times, key=lambda name: -values[name])[:5]
    record = {
        "untraced_wall_s": stats(plain),
        "traced_wall_s": stats(timed),
        "largest_self_s": [{"name": n, "s": values[n], "share": values[n] / values["trace.wall_s"]} for n in largest],
        "single_thread": {"wall_s": single["wall_s"], "blas_threads": single["blas_threads"],
                          "default_threads_wall_s": statistics.median(plain)},
    }
    spans_file = OUT_DIR / f"spans-{ledger.workload}-seed{ledger.seed}.json"
    spans_file.write_text(json.dumps({"workload": ledger.workload, "seed": ledger.seed, "passes": tracer.passes}))
    return result, record


def measure(args) -> int:
    try:
        cli = workloads.import_cli()
    except ImportError as exc:
        print(f"error: cannot import the program from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    ledger = checks.Ledger(args.workload, args.seed)
    try:
        variants = workloads.write_configs(args.workload, args.seed, workdir)
        ledger.record(variants[0], workloads.run_pass(cli, variants[0])[1])  # warm-up
        measure_fn = traced if args.trace else untraced
        result, record = measure_fn(cli, variants, ledger, args.seconds)
    finally:
        shutil.rmtree(workdir)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        fail_frac={"value": ledger.failed / ledger.attempted, "failed": ledger.failed, "attempted": ledger.attempted},
        problems=ledger.problems[:20],
        env=environment.environment(BENCH_DIR.parent),
    )
    print(json.dumps({"record": record}))
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": result}))
    return 0 if correct else 1


def measure_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    status = 0
    print(f"{'workload':<11} {'metric':<12} {'value':>12} {'unit':<6} samples")
    for workload in workloads.WHY:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=BENCH_DIR.parent)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or len(lines) < 2:
            print(f"{workload:<11} failed with exit code {child.returncode}")
            status = 1
            continue
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        for name, unit, *_ in metrics.END_TO_END:
            detail = record[name]
            samples = (f"n={detail['n']} q1={detail['q1']:.4f} q3={detail['q3']:.4f}"
                       if isinstance(detail, dict) else "n=1")
            print(f"{workload:<11} {name:<12} {result['metrics'][name]['value']:>12.4f} {unit:<6} {samples}")
        frac = record["fail_frac"]
        print(f"{workload:<11} {'fail_frac':<12} {frac['value']:>12.4f} {'ratio':<6} "
              f"{frac['failed']} of {frac['attempted']} CLI calls")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true", help="print every metric with its unit")
    args = parser.parse_args(argv)
    if args.list_metrics:
        print(metrics.listing())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return measure_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
