"""Child processes of the benchmark.

``python3 bench/probe.py setup WORKLOAD SEED`` imports the program, parses the
workload's configs and prints ``ready``; the parent times process start to
that line as one set-up sample.

``python3 bench/probe.py pass WORKLOAD SEED`` runs one warm-up pass and one
timed pass of the first variant and prints a JSON line with the pass time, the calls attempted and
failed, and the BLAS threads in effect.  The parent starts it with the BLAS
thread count limited through the environment.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads


def setup(workload: str, seed: int) -> None:
    cli = workloads.import_cli()
    for pass_configs in workloads.variant_configs(workload, seed):
        for _, config in pass_configs:
            cli.parse_config(json.dumps(config))
    print("ready", flush=True)


def one_pass(workload: str, seed: int) -> None:
    cli = workloads.import_cli()
    import environment

    out_dir = workloads.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-probe-", dir=out_dir))
    try:
        jobs = workloads.write_configs(workload, seed, workdir)[0]
        ledger = checks.Ledger(workload, seed)
        for _ in range(2):
            elapsed, codes = workloads.run_pass(cli, jobs)
            ledger.record(jobs, codes)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({
        "wall_s": elapsed,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems[:10],
        "blas_threads": environment.blas_threads(),
    }))


if __name__ == "__main__":
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    {"setup": setup, "pass": one_pass}[mode](workload, seed)
