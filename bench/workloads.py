"""Workload definitions: seeded experiment configs and one pass through the CLI.

A pass runs one variant of the workload: a short list of JSON experiment
configs.  A run cycles through VARIANTS variants, so its median pass time
covers several random families: the cost of a degenerating eigensolve
depends on the family's spectrum (at n=1025 and length 5.0 most families
take twice as long as the rest), and a single family per run would make
runs with different seeds disagree.

The benchmark seed only sets the ``perturbed-lattice`` seed and the
``random`` directions seed, to ``seed * VARIANTS + variant``; the program
sees nothing but the generated configs.  Sizes are chosen so one pass takes
about two seconds on a 2-core machine, which leaves a dozen timed passes per
run.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "sweep": "bounds-sweep straddling 2pi up to n=1025: the extreme eigensolve dominates, so it shows a faster spectral core",
    "dd": "dd-condition on clustered pairs over both DD routes: DD profile evaluation dominates and the eigensolve is small",
    "projection": "trace and defect-decay with complex directions: rectangular cross matrices and Cholesky solves, no square eigensolve",
}

VARIANTS = 8
SWEEP_LENGTHS = [5.0, 8.0, 9.5, 11.0]  # one below the critical length 2*pi, three above
SWEEP_N_MAX = 512
DD_DELTAS = [1e-6, 1e-4, 1e-3, 1e-2]  # simplex route for the first two, recurrence after
DECAY_R_GRID = [5.0, 10.0, 20.0, 40.0, 80.0, 120.0, 160.0, 200.0]


def _perturbed_lattice(seed: int, half_width: float) -> dict:
    return {
        "kind": "perturbed-lattice",
        "params": {"spacing": 1.0, "max_perturbation": 0.2, "window": [-half_width, half_width], "seed": seed},
    }


def configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (name, config) list of one variant; ``seed`` is the variant's own."""
    if workload == "sweep":
        return [
            ("sweep", {
                "command": "bounds-sweep",
                "seed": seed,
                "family": _perturbed_lattice(seed, 600.0),
                "directions": {"rule": "constant", "d": 1},
                "interval": [0.0, 1.0],
                "grids": {"lengths": SWEEP_LENGTHS},
                "params": {"N_max": SWEEP_N_MAX},
            }),
        ]
    if workload == "dd":
        return [
            ("dd", {
                "command": "dd-condition",
                "seed": seed,
                "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0.0, 100.0]}},
                "interval": [0.0, 10.0],
                "grids": {"delta": DD_DELTAS},
                "params": {"M": 2, "gamma_prime": 0.5},
            }),
        ]
    if workload == "projection":
        family = _perturbed_lattice(seed, 750.0)
        directions = {"rule": "random", "d": 2, "seed": seed}
        return [
            ("trace", {
                "command": "trace",
                "seed": seed,
                "family": family,
                "directions": directions,
                "interval": [0.0, 8.0],
                "params": {"y": 0.0, "r": 600.0, "R": 40.0},
            }),
            ("decay", {
                "command": "defect-decay",
                "seed": seed,
                "family": family,
                "directions": directions,
                "interval": [0.0, 8.0],
                "grids": {"R": DECAY_R_GRID},
                "params": {"y": 0.0, "r": 600.0},
            }),
        ]
    raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WHY)})")


def import_cli():
    """Import ``inghamlab.cli`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    from inghamlab import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"inghamlab imported from {cli.__file__}, not from {SRC}")
    return cli


def variant_configs(workload: str, seed: int) -> list[list[tuple[str, dict]]]:
    """The configs of every variant of a run; deterministic in the seed."""
    return [configs(workload, seed * VARIANTS + variant) for variant in range(VARIANTS)]


def write_configs(workload: str, seed: int, workdir: Path) -> list[list[dict]]:
    """Write every variant's configs as JSON files; returns the jobs of each variant.

    The artifact path echoed in each config is a bare file name, so the
    artifact bytes do not depend on the work directory.
    """
    variants = []
    for variant, pass_configs in enumerate(variant_configs(workload, seed)):
        jobs = []
        for name, config in pass_configs:
            stem = f"{name}-v{variant}"
            config = dict(config, output={"path": f"{stem}.json", "format": "json"})
            path = workdir / f"{stem}.config.json"
            path.write_text(json.dumps(config, indent=1) + "\n")
            jobs.append({"name": name, "variant": variant, "command": config["command"],
                         "config": path, "out": workdir / f"{stem}.json"})
        variants.append(jobs)
    return variants


def run_pass(cli, jobs: list[dict]) -> tuple[float, list]:
    """Run every config once through ``cli.main``; returns (seconds, exit codes).

    An exception escaping ``cli.main`` counts as a failed call (code None).
    """
    codes = []
    start = time.perf_counter()
    for job in jobs:
        try:
            codes.append(cli.main(["--config", str(job["config"]), "--out", str(job["out"])]))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            codes.append(None)
    return time.perf_counter() - start, codes
