"""Regenerate the reference artifacts (variant 0 of seed 0) the checks compare against.

    python3 bench/make_reference.py

Regenerate only when the program's results change on purpose, and say so in
the change that does it.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads


def main() -> int:
    cli = workloads.import_cli()
    for workload in workloads.WHY:
        target = checks.REFERENCE_DIR / workload
        target.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp())
        try:
            jobs = workloads.write_configs(workload, checks.REFERENCE_SEED, workdir)[0]
            for job in jobs:
                job["out"] = checks.reference_path(workload, job["name"])
            _, codes = workloads.run_pass(cli, jobs)
        finally:
            shutil.rmtree(workdir)
        if any(code != 0 for code in codes):
            print(f"{workload}: exit codes {codes}", file=sys.stderr)
            return 1
        print(f"{workload}: wrote {[job['out'].name for job in jobs]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
