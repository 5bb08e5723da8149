"""Self-tests of the benchmark: the checker, the seeded configs, the tracer and
the metric listing.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCES = {
    ("sweep", "sweep"): "bounds-sweep",
    ("dd", "dd"): "dd-condition",
    ("projection", "trace"): "trace",
    ("projection", "decay"): "defect-decay",
}


def reference(workload: str, name: str) -> dict:
    return json.loads(checks.reference_path(workload, name).read_text())


def problems(command: str, doc: dict, ref: dict) -> list[str]:
    return checks.INVARIANTS[command](doc) + checks.compare_reference(command, doc, ref)


@pytest.mark.parametrize("workload,name", REFERENCES)
def test_reference_artifacts_pass_their_own_checks(workload, name):
    ref = reference(workload, name)
    assert problems(REFERENCES[workload, name], ref, ref) == []


def _stable_row(doc: dict) -> dict:
    return next(row for row in doc["rows"] if row["verdict"] == "stable")


def test_checker_rejects_lambda_min_moved_by_1e_6_relative():
    ref = reference("sweep", "sweep")
    doc = copy.deepcopy(ref)
    _stable_row(doc)["lambda_min"] *= 1.0 + 1e-6
    assert any("lambda_min" in p for p in problems("bounds-sweep", doc, ref))


def test_checker_accepts_rounding_level_changes():
    ref = reference("sweep", "sweep")
    doc = copy.deepcopy(ref)
    for row in doc["rows"]:
        row["lambda_max"] *= 1.0 + 1e-15
        row["lambda_min"] += 5e-15  # moves values at the floor by their own size
    assert problems("bounds-sweep", doc, ref) == []


def test_checker_rejects_flipped_verdict():
    ref = reference("sweep", "sweep")
    doc = copy.deepcopy(ref)
    doc["rows"][0]["verdict"] = "stable"  # the first length is below 2pi
    found = problems("bounds-sweep", doc, ref)
    assert any("verdict" in p for p in found)
    assert any("not 'degenerating'" in p for p in checks.INVARIANTS["bounds-sweep"](doc))


def test_checker_rejects_broken_interlacing_for_any_seed():
    doc = copy.deepcopy(reference("sweep", "sweep"))
    rows = [row for row in doc["rows"] if row["verdict"] == "stable"]
    rows[-1]["lambda_min"] = rows[-2]["lambda_min"] * 1.01
    assert any("rises" in p for p in checks.INVARIANTS["bounds-sweep"](doc))


def test_checker_rejects_dd_law_and_projection_failures():
    dd = copy.deepcopy(reference("dd", "dd"))
    dd["rows"][-1]["cond_raw"] *= 2.0
    assert checks.INVARIANTS["dd-condition"](dd)
    trace = copy.deepcopy(reference("projection", "trace"))
    trace["rows"][0]["lemma2_pass"] = False
    assert checks.INVARIANTS["trace"](trace)
    decay = copy.deepcopy(reference("projection", "decay"))
    decay["rows"][3]["below_majorant"] = False
    assert checks.INVARIANTS["defect-decay"](decay)
    decay = copy.deepcopy(reference("projection", "decay"))
    decay["summary"]["slope"] = 0.1
    assert checks.INVARIANTS["defect-decay"](decay)


def test_seed_changes_configs_deterministically():
    for workload in ("sweep", "projection"):
        first = workloads.variant_configs(workload, 0)
        assert first == workloads.variant_configs(workload, 0)
        assert first != workloads.variant_configs(workload, 1)
        seeds = [config["family"]["params"]["seed"] for variant in workloads.variant_configs(workload, 3)
                 for _, config in variant]
        assert sorted(set(seeds)) == [3 * workloads.VARIANTS + v for v in range(workloads.VARIANTS)]
    directions = workloads.configs("projection", 17)[0][1]["directions"]
    assert directions == {"rule": "random", "d": 2, "seed": 17}


def test_generated_configs_are_valid():
    cli = workloads.import_cli()
    for workload in workloads.WHY:
        for name, config in workloads.configs(workload, 5):
            assert cli.parse_config(json.dumps(config)).command == config["command"], name


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "cli.run", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "analysis.extreme_eigenvalues", "parent": 0, "start": 1.0, "end": 4.0, "n": 3},
        {"id": 2, "name": "analysis.extreme_eigenvalues", "parent": 0, "start": 5.0, "end": 7.0, "n": 2},
    ]
    out = tracing.layer_metrics({"spans": spans, "counters": {"gram.quad_nodes": 7}})
    assert out["cli.run.self_s"] == pytest.approx(5.0)
    assert out["analysis.extreme_eigenvalues.s"] == pytest.approx(5.0)
    assert out["analysis.extreme_eigenvalues.calls"] == 2
    assert out["analysis.eig_n3"] == 27 + 8
    assert out["gram.quad_nodes"] == 7


def test_tracer_records_spans_and_restores_the_layers(tmp_path):
    cli = workloads.import_cli()
    from inghamlab import analysis

    original = analysis.extreme_eigenvalues
    config = {
        "command": "bounds-sweep",
        "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-40, 40]}},
        "interval": [0.0, 1.0],
        "grids": {"lengths": [5.0, 8.0]},
        "params": {"N_max": 32},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    tracer = tracing.Tracer()
    tracer.begin_pass()
    with tracing.installed(tracer):
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    out = tracing.layer_metrics(tracer.end_pass())
    assert analysis.extreme_eigenvalues is original
    assert out["analysis.extreme_eigenvalues.calls"] == 2 * 4  # two lengths, N in (4, 8, 16, 32)
    assert out["cli.run.calls"] == 1 and out["cli.parse_config.calls"] == 1


def test_metric_listing_prints_every_name_with_its_unit():
    listing = subprocess.run([sys.executable, str(BENCH / "run.py"), "--list-metrics"],
                             capture_output=True, text=True, check=True).stdout
    lines = listing.splitlines()
    for name, unit, *_ in metrics.END_TO_END + [metrics.FAIL_FRAC] + metrics.PER_LAYER:
        assert any(line.split()[:2] == [name, unit] for line in lines), name


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, u) for n, u, *_ in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, *_ in metrics.PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
