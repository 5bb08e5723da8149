"""The benchmark's seed-0 artifacts, written through ``cli.main``, pass the
benchmark's own checks: its paper invariants and its comparison with the
reference artifacts kept in ``bench/reference``.  The benchmark's files are
only read here.
"""

import json
import sys
from pathlib import Path

import pytest

from inghamlab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_variant_zero_matches_its_references(tmp_path, workload):
    jobs = workloads.write_configs(workload, checks.REFERENCE_SEED, tmp_path)[0]
    for job in jobs:
        assert main(["--config", str(job["config"]), "--out", str(job["out"])]) == 0
        doc = json.loads(job["out"].read_text())
        ref = json.loads(checks.reference_path(workload, job["name"]).read_text())
        assert checks.INVARIANTS[job["command"]](doc) == []
        assert checks.compare_reference(job["command"], doc, ref) == []
