"""Correctness checks on CLI artifacts: paper invariants for any seed, and a
tolerance comparison against the reference artifacts kept for seed 0.

Every check returns a list of problems; an empty list means the artifact
passed.  Floats are never compared byte for byte across environments:
switching OpenBLAS from 2 threads to 1 moves them by ~1e-15 relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0

# Computed eigenvalues are known only to about this fraction of lambda_max
# (the program's own double-precision floor), so eigenvalue-derived values are
# compared with it as an absolute tolerance on lambda / lambda_max.
EIGEN_ATOL = 1e-12
FLOAT_RTOL = 1e-9
TWO_PI = 2.0 * math.pi


def _bounds_sweep(doc: dict) -> list[str]:
    problems = []
    by_length: dict[float, list] = {}
    for row in doc["rows"]:
        by_length.setdefault(row["interval_length"], []).append(row)
    for length, rows in sorted(by_length.items()):
        rows.sort(key=lambda r: r["N"])
        lmax = max(r["lambda_max"] for r in rows)
        slack = EIGEN_ATOL * lmax
        for a, b in zip(rows, rows[1:]):
            # Cauchy interlacing: the centered truncations are nested
            if b["lambda_min"] > a["lambda_min"] + slack:
                problems.append(f"L={length}: lambda_min rises from N={a['N']} to N={b['N']}")
            if b["lambda_max"] < a["lambda_max"] - slack:
                problems.append(f"L={length}: lambda_max falls from N={a['N']} to N={b['N']}")
        if length < TWO_PI and any(r["verdict"] != "degenerating" for r in rows):
            problems.append(f"L={length} < 2pi is not 'degenerating'")
        if length > TWO_PI and any(r["lambda_min"] <= slack for r in rows):
            # Kadec 1/4: max_perturbation < 1/4 keeps a Riesz basis above 2pi
            problems.append(f"L={length} > 2pi has lambda_min at the floor")
    return problems


def _dd_condition(doc: dict) -> list[str]:
    problems = []
    rows = doc["rows"]
    scaled = [r["cond_raw"] * r["delta"] ** 2 for r in rows if r["cond_raw"] != "overflow"]
    if any(r["cond_raw"] == "overflow" and r["delta"] > 1e-5 for r in rows):
        problems.append("cond_raw overflows at delta > 1e-5")
    if len(scaled) < 2 or max(scaled) > 1.1 * min(scaled):
        problems.append(f"cond_raw * delta^2 is not constant (delta^-2 law): {scaled}")
    cond_dd = [r["cond_dd"] for r in rows]
    if max(cond_dd) > 1e3 or max(cond_dd) > 1.1 * min(cond_dd):
        problems.append(f"cond_dd is not bounded and flat: {cond_dd}")
    return problems


def _trace(doc: dict) -> list[str]:
    problems = []
    for row in doc["rows"]:
        if row["lemma2_pass"] is not True:
            problems.append("lemma2_pass is false")
        if row["trace_agreement"] > 1e-8 * row["card_omega_r"]:
            problems.append(f"trace routes disagree by {row['trace_agreement']:.3e}")
    return problems


def _defect_decay(doc: dict) -> list[str]:
    problems = []
    rows = sorted(doc["rows"], key=lambda r: r["R"])
    if not all(r["below_majorant"] is True for r in rows):
        problems.append("a squared defect exceeds the series majorant")
    for a, b in zip(rows, rows[1:]):
        # the grids are nested in R, so the captured energy can only grow
        if b["max_defect"] > a["max_defect"] * (1.0 + 1e-9):
            problems.append(f"max_defect grows from R={a['R']} to R={b['R']}")
    slope = doc["summary"]["slope"]
    if not (isinstance(slope, float) and slope < 0.0):
        problems.append(f"defect decay slope {slope} is not negative")
    return problems


INVARIANTS = {
    "bounds-sweep": _bounds_sweep,
    "dd-condition": _dd_condition,
    "trace": _trace,
    "defect-decay": _defect_decay,
}

# Fields compared with the reference artifact, by kind: "exact" for verdicts,
# cardinalities, booleans and grid values; "float" with FLOAT_RTOL; "eig" for
# a lambda compared on the lambda_max scale; "cond" for a condition number,
# compared through its reciprocal lambda_min / lambda_max.  Fields not listed
# (rounding-level quantities such as trace_agreement) and keys a later
# version adds are not compared.
REFERENCE_FIELDS = {
    "bounds-sweep": {
        "rows": {"interval_length": "exact", "N": "exact", "verdict": "exact",
                 "lambda_max": "float", "lambda_min": "eig"},
        "summary": {"N_grid": "exact", "transition_bracket": "exact"},
    },
    "dd-condition": {
        "rows": {"delta": "exact", "cond_raw": "cond", "cond_dd": "float"},
        "summary": {"normalized_dd": "exact"},
    },
    "trace": {
        "rows": {"card_omega_r": "exact", "card_gamma": "exact", "d": "exact", "lemma2_pass": "exact",
                 "lemma2_bound": "exact", "trace_re": "float", "abs_trace": "float", "max_defect": "float"},
        "summary": {"card_omega_r": "exact", "card_gamma": "exact"},
    },
    "defect-decay": {
        "rows": {"R": "exact", "max_defect": "float", "majorant": "float", "below_majorant": "exact"},
        "summary": {"slope": "float", "intercept": "float", "degenerate_zero_defect": "exact"},
    },
}


def _differs(kind: str, got, ref, scale: float) -> bool:
    if got is None:
        return True
    if kind == "exact" or isinstance(ref, (str, bool)) or isinstance(got, (str, bool)):
        return got != ref
    if kind == "cond":
        got, ref, scale = 1.0 / got, 1.0 / ref, 0.0
    atol = EIGEN_ATOL * scale if kind == "eig" else EIGEN_ATOL if kind == "cond" else 0.0
    return abs(got - ref) > FLOAT_RTOL * max(abs(got), abs(ref)) + atol


def compare_reference(command: str, doc: dict, ref: dict) -> list[str]:
    """Problems found comparing an artifact with its reference, field by field."""
    spec = REFERENCE_FIELDS[command]
    problems = []
    if len(doc["rows"]) != len(ref["rows"]):
        return [f"{len(doc['rows'])} rows, reference has {len(ref['rows'])}"]
    for i, (row, ref_row) in enumerate(zip(doc["rows"], ref["rows"])):
        scale = abs(ref_row.get("lambda_max", 0.0))
        for key, kind in spec["rows"].items():
            if _differs(kind, row.get(key), ref_row[key], scale):
                problems.append(f"row {i} {key}: {row.get(key)!r} vs reference {ref_row[key]!r}")
    for key, kind in spec["summary"].items():
        if _differs(kind, doc["summary"].get(key), ref["summary"][key], 0.0):
            problems.append(f"summary {key}: {doc['summary'].get(key)!r} vs reference {ref['summary'][key]!r}")
    return problems


def reference_path(workload: str, name: str) -> Path:
    return REFERENCE_DIR / workload / f"{name}.json"


def check_artifact(workload: str, job: dict, text: str, seed: int) -> list[str]:
    """Invariants for any seed, plus the reference comparison for variant 0 of seed 0."""
    try:
        doc = json.loads(text)
        problems = INVARIANTS[job["command"]](doc)
        if seed == REFERENCE_SEED and job["variant"] == 0:
            ref = json.loads(reference_path(workload, job["name"]).read_text())
            problems += compare_reference(job["command"], doc, ref)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        problems = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
    return [f"{job['out'].name}: {p}" for p in problems]


class Ledger:
    """CLI calls attempted and failed in one process, with the reasons.

    A call fails when it exits non-zero, when its artifact fails a check, or
    when its artifact differs byte for byte from the same config's first
    artifact in this process (same environment, so reruns must be identical).
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, str] = {}

    def record(self, jobs: list[dict], codes: list) -> None:
        for job, code in zip(jobs, codes):
            self.attempted += 1
            key = job["out"].name
            if code != 0:
                problems = [f"{key}: exit code {code}"]
            else:
                try:
                    text = job["out"].read_text()
                except OSError as exc:
                    problems = [f"{key}: no artifact: {exc}"]
                else:
                    problems = check_artifact(self.workload, job, text, self.seed)
                    if text != self._first.setdefault(key, text):
                        problems.append(f"{key}: artifact differs from its first run in this process")
            if problems:
                self.failed += 1
                self.problems.extend(problems)
