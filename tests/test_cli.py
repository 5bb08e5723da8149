import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inghamlab import cli
from inghamlab.basisfuncs import DirectionAssignment
from inghamlab.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run,
)
from inghamlab.exponents import detect_chains, generate_family
from inghamlab.gram import DividedDifferenceSystem, FourierGrid, IntervalSpec

from oracles import dd_recurrence, dense_panel_rule, eval_dd_exact, read_artifact_config
from oracles import nodes as node_sets

TWO_PI = 2.0 * math.pi


def density_config(out_path, fmt="csv"):
    return {
        "command": "density",
        "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-64, 64]}},
        "grids": {"r": list(range(1, 65))},
        "output": {"path": str(out_path), "format": fmt},
    }


def trace_config(out_path):
    return {
        "command": "trace",
        "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-30, 30]}},
        "directions": {"rule": "constant", "d": 1},
        "interval": [0.0, TWO_PI],
        "params": {"y": 0.0, "r": 5.5, "R": 10.0},
        "output": {"path": str(out_path), "format": "csv"},
    }


class TestParseConfig:
    def test_minimal_density(self):
        cfg = parse_config(json.dumps(density_config("out.csv")))
        assert cfg.command == "density"
        assert cfg.seed == 0
        assert cfg.output_format == "csv"

    def test_missing_interval_named(self):
        raw = density_config("out.csv")
        raw["command"] = "gram"
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert any("interval" in e and "gram" in e for e in err.value.errors)

    def test_bounds_sweep_needs_no_interval(self):
        # a bounds-sweep takes its interval lengths from grids.lengths
        raw = density_config("out.csv")
        raw["command"] = "bounds-sweep"
        raw["grids"] = {"lengths": [5.0, 6.0]}
        raw["params"] = {"N_max": 32}
        assert parse_config(json.dumps(raw)).interval is None
        raw["interval"] = [0.0, 1.0]
        assert parse_config(json.dumps(raw)).interval == (0.0, 1.0)

    def test_non_increasing_grid(self):
        raw = density_config("out.csv")
        raw["command"] = "bounds-sweep"
        raw["interval"] = [0.0, 1.0]
        raw["grids"] = {"lengths": [2.2 * math.pi, 1.8 * math.pi]}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert any("not increasing" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        raw = {
            "command": "launch",
            "family": {"kind": "spiral"},
            "grids": {"r": []},
            "seed": -3,
            "output": {"format": "xml"},
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        messages = "\n".join(err.value.errors)
        assert "unknown command" in messages
        assert "family.kind" in messages
        assert "nonempty" in messages
        assert "seed" in messages
        assert "output.format" in messages
        assert len(err.value.errors) >= 5

    def test_identity_fields_read_only(self):
        cfg = parse_config(json.dumps(trace_config("t.csv")))
        for name, value in (("seed", 5), ("params", {}), ("command", "gram"), ("output_path", "u.csv")):
            with pytest.raises(AttributeError, match=f"'{name}' is fixed by parse_config"):
                setattr(cfg, name, value)
        assert cfg.seed == 0
        cfg.output_format = "json"
        assert cfg.output_format == "json"
        # a name that is not a field would be a dead attribute: nothing reads it
        with pytest.raises(AttributeError, match="no field 'threads'"):
            cfg.threads = 2
        assert not hasattr(cfg, "threads")

    def test_nested_values_read_only(self, tmp_path):
        # the directions are drawn at parse time: an edited seed would echo 5 over seed-0 rows
        raw = {
            "command": "gram",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-3, 3]}},
            "directions": {"rule": "random", "d": 2},
            "interval": [0.0, 2.0],
            "grids": {},
            "params": {},
            "output": {"path": str(tmp_path / "g.csv"), "format": "csv"},
        }
        cfg = parse_config(json.dumps(raw))
        edits = [
            lambda: cfg.directions.__setitem__("seed", 5),
            lambda: cfg.family["params"].__setitem__("spacing", 2.0),
            lambda: cfg.family["params"]["window"].__setitem__(0, -4),
            lambda: cfg.interval.__setitem__(1, 9.0),
            lambda: cfg.grids.__setitem__("lengths", [1.0]),
            lambda: cfg.params.__setitem__("y", 0.0),
        ]
        for edit in edits:
            with pytest.raises((TypeError, AttributeError)):
                edit()
        # the echo is the config as given, in plain JSON types
        assert cfg.canonical() == {**raw, "seed": 0}
        assert run(cfg) == 0

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{nope")

    @pytest.mark.parametrize("family", [
        {"kind": "lattice", "params": {"spacing": -1.0, "window": [0, 4]}},
        {"kind": "perturbed-lattice", "params": {"window": [0, 4]}},
        {"kind": "lattice", "params": {"window": 4}},
    ])
    def test_family_built_at_parse_time(self, family):
        raw = density_config("out.csv")
        raw["family"] = family
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert [e for e in err.value.errors if e.startswith("family.params")]

    def test_every_kind_is_read_and_every_read_param_has_one(self):
        params = {name for row in cli._COMMANDS.values() for name in row.params}
        assert set(cli._KINDS) <= params | set(cli._DIRECTION_KEYS) | set(cli._FAMILY_PARAMS)
        assert params | set(cli._FAMILY_PARAMS) <= set(cli._KINDS)

    @pytest.mark.parametrize("N_max", [0, True, 16.0])
    def test_N_max_must_be_positive_integer(self, N_max):
        raw = density_config("out.csv")
        raw["params"] = {"N_max": N_max}
        with pytest.raises(ConfigError, match="'N_max' must be a positive integer"):
            parse_config(json.dumps(raw))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(length=st.floats(0.05, 20.0), y=st.floats(-100.0, 100.0), r=st.floats(0.01, 3.0), R=st.floats(0.01, 3.0))
    @example(length=TWO_PI, y=0.5, r=0.25, R=0.25)  # both nearest frequencies at exactly r + R: ties are excluded
    def test_empty_grid_check_is_fourier_grid_centered(self, length, y, r, R):
        # parse_config tests only the lattice points nearest y; FourierGrid.centered
        # enumerates every candidate in the window: the two agree (measured: the
        # grid is empty in 37 of the 200 draws)
        raw = {"command": "trace", "family": {"kind": "explicit", "params": {"exponents": [y]}},
               "interval": [0.0, length], "params": {"y": y, "r": r, "R": R}}
        try:
            FourierGrid.centered(IntervalSpec(0.0, length), 1, y, r + R)
        except ValueError:
            with pytest.raises(ConfigError, match="the Fourier grid is empty"):
                parse_config(json.dumps(raw))
        else:
            parse_config(json.dumps(raw))


class TestRunArtifacts:
    def test_density_csv_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg = parse_config(json.dumps(density_config(out1)))
        assert run(cfg) == 0
        cfg2 = parse_config(json.dumps(density_config(out1)))
        assert run(cfg2, out_path=out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()
        assert header[0].startswith("# inghamlab")
        assert header[1] == "# seed=0"

    def test_config_echo_round_trips(self, tmp_path):
        out = tmp_path / "echo.csv"
        cfg = parse_config(json.dumps(density_config(out)))
        run(cfg)
        back = read_artifact_config(out)
        assert back == cfg

    def test_json_artifact_round_trips(self, tmp_path):
        out = tmp_path / "echo.json"
        cfg = parse_config(json.dumps(density_config(out, fmt="json")))
        run(cfg)
        document = json.loads(out.read_text())
        assert document["seed"] == 0
        assert document["summary"]["dplus_estimate"] == pytest.approx(1.0, abs=0.05)
        back = read_artifact_config(out)
        assert back == cfg

    def test_gram_export_rows(self, tmp_path):
        out = tmp_path / "gram.json"
        raw = {
            "command": "gram",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-3, 3]}},
            "interval": [0.0, TWO_PI],
            "output": {"path": str(out), "format": "json"},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        document = json.loads(out.read_text())
        assert len(document["rows"]) == 49
        assert document["summary"]["lambda_min"] == pytest.approx(TWO_PI)
        assert document["summary"]["lambda_max"] == pytest.approx(TWO_PI)
        diag = next(r for r in document["rows"] if r["row"] == 2 and r["col"] == 2)
        assert diag["re"] == pytest.approx(TWO_PI)
        assert diag["im"] == pytest.approx(0.0, abs=1e-14)

    def test_gram_artifact_holds_no_negative_zero(self, tmp_path):
        # orthogonal partition classes give exact zeros, whose sign depends on how an entry was formed
        out = tmp_path / "gram.json"
        raw = {
            "command": "gram",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-150, 150]}},
            "directions": {"rule": "partition", "d": 2, "alpha": 0.6},
            "interval": [0.0, 7.0],
            "output": {"path": str(out), "format": "json"},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        values = [row[part] for row in json.loads(out.read_text())["rows"] for part in ("re", "im")]
        assert len(values) == 2 * 301**2 and 0.0 in values
        assert not any(math.copysign(1.0, v) < 0 for v in values if v == 0.0)

    def test_explicit_family_label_accepted_and_echoed(self, tmp_path):
        raw = density_config(tmp_path / "density.json", fmt="json")
        exponents = [float(k) for k in range(-64, 65)]
        raw["family"] = {"kind": "explicit", "params": {"exponents": exponents, "label": "integers"}}
        assert run(parse_config(json.dumps(raw))) == 0
        assert json.loads((tmp_path / "density.json").read_text())["config"]["family"]["params"]["label"] == "integers"

    def test_trace_row_contents(self, tmp_path):
        out = tmp_path / "trace.csv"
        cfg = parse_config(json.dumps(trace_config(out)))
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if l.startswith("y,"))
        fields = header.split(",")
        for needed in ("card_omega_r", "card_gamma", "abs_trace", "lemma2_bound", "lemma2_pass"):
            assert needed in fields
        row = lines[lines.index(header) + 1].split(",")
        record = dict(zip(fields, row))
        assert record["card_omega_r"] == "11"
        assert record["card_gamma"] == "31"
        assert record["lemma2_pass"] == "true"

    @pytest.mark.parametrize("case", ["lattice", "random"])
    def test_trace_artifact_pinned(self, tmp_path, case):
        # every row and summary value: the lattice's exact trace Card(V_r) = 11 (11 window
        # exponents, 31 grid frequencies), and a random d = 2 trace off center whose two
        # routes differ by rounding (mpmath: trace 23.894412787192145, one unit in the last
        # place away, and max_defect 0.2567367476566515, 5.6e-16 away)
        raw = trace_config(tmp_path / "trace.csv")
        if case == "random":
            raw.update(family={"kind": "perturbed-lattice",
                               "params": {"spacing": 1.0, "max_perturbation": 0.2, "window": [-30, 30], "seed": 7}},
                       directions={"rule": "random", "d": 2, "seed": 3}, interval=[0.3, 8.3],
                       params={"y": 0.5, "r": 12.0, "R": 9.0})
        row, summary = {
            "lattice": ({"y": 0.0, "r": 5.5, "R": 10.0, "d": 1, "card_omega_r": 11, "card_gamma": 31, "trace_re": 11.0,
                         "trace_im": 0.0, "abs_trace": 11.0, "lemma2_bound": 31.0, "lemma2_pass": True,
                         "trace_agreement": 0.0, "max_defect": 0.0},
                        {"card_omega_r": 11, "card_gamma": 31}),
            "random": ({"y": 0.5, "r": 12.0, "R": 9.0, "d": 2, "card_omega_r": 24, "card_gamma": 54,
                        "trace_re": 23.89441278719214, "trace_im": 0.0, "abs_trace": 23.89441278719214,
                        "lemma2_bound": 108.0, "lemma2_pass": True, "trace_agreement": 3.552713678800501e-15,
                        "max_defect": 0.25673674765665094},
                       {"card_omega_r": 24, "card_gamma": 54}),
        }[case]
        assert run(parse_config(json.dumps(raw))) == 0
        assert (tmp_path / "trace.csv").read_text().splitlines()[4] == ",".join(row)  # the keys, in order
        raw["output"] = {"path": str(tmp_path / "trace.json"), "format": "json"}
        assert run(parse_config(json.dumps(raw))) == 0
        artifact = json.loads((tmp_path / "trace.json").read_text())
        assert artifact["rows"] == [row]
        assert artifact["summary"] == summary

    def test_bounds_sweep_verdicts(self, tmp_path):
        out = tmp_path / "sweep.csv"
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-80, 80]}},
            "interval": [0.0, 1.0],
            "grids": {"lengths": [1.8 * math.pi, 2.2 * math.pi]},
            "params": {"N_max": 32},
            "output": {"path": str(out), "format": "csv"},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        text = out.read_text()
        assert "degenerating" in text and "stable" in text

    def test_bounds_sweep_rows_ignore_interval(self, tmp_path):
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "perturbed-lattice", "params": {"spacing": 1.0, "window": [-40, 40], "max_perturbation": 0.2}},
            "grids": {"lengths": [5.0, 8.0]},
            "params": {"N_max": 16},
        }
        rows = []
        for k, interval in enumerate([None, [0.0, 1.0], [-3.0, 7.5]]):
            cfg = dict(raw, output={"path": str(tmp_path / f"s{k}.json"), "format": "json"})
            if interval is not None:
                cfg["interval"] = interval
            assert run(parse_config(json.dumps(cfg))) == 0
            rows.append(json.loads((tmp_path / f"s{k}.json").read_text())["rows"])
        assert rows[0] == rows[1] == rows[2]

    def test_partition_sweep_block_identity(self, tmp_path):
        out = tmp_path / "sharp.json"
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-40, 40]}},
            "directions": {"rule": "partition", "d": 2, "alpha": 0.5},
            "grids": {"lengths": [TWO_PI]},
            "params": {"N_max": 16},
            "output": {"path": str(out), "format": "json"},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["block_identity_residual"] <= 1e-12
        densities = summary["class_densities"]
        assert len(densities) == 2
        for density in densities:
            assert density == pytest.approx(0.5, abs=0.05)
            assert 2.0 * math.pi * density == pytest.approx(math.pi, abs=0.4)
        assert summary["predicted_critical_length"] == 2.0 * math.pi * max(densities)

    def test_density_summary_pinned(self, tmp_path):
        out = tmp_path / "density.json"
        raw = density_config(out, fmt="json")
        raw["family"]["params"]["window"] = [-40, 40]
        raw["grids"]["r"] = [2, 4, 8, 16, 32, 48, 64]
        assert run(parse_config(json.dumps(raw))) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["dplus_estimate"] == 1.0000000000000002
        assert summary["fit_window"] == [3, 7]
        assert summary["family_size"] == 81

    def test_partition_sweep_summary_pinned(self, tmp_path):
        out = tmp_path / "sharp.json"
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-40, 40]}},
            "directions": {"rule": "partition", "d": 3, "alpha": 0.4},
            "grids": {"lengths": [2.2, 2.8, 3.2]},
            "params": {"N_max": 32},
            "output": {"path": str(out), "format": "json"},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["class_densities"] == [0.41066666666666674, 0.4179591836734695, 0.21455238095238102]
        assert max(summary["class_densities"]) == 0.4179591836734695
        assert summary["period_exponent_count"] == 5
        assert summary["block_identity_residual"] == 0.0
        # the predicted length 2*pi*alpha lies inside the measured bracket
        assert summary["transition_bracket"] == [2.2, 2.8]
        assert summary["predicted_critical_length"] == 2.0 * math.pi * 0.4179591836734695

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_partition_sweep_predicts_the_coset_threshold(self, tmp_path, d):
        # alpha = 1/d makes the classes the cosets of dZ, whose exact threshold is 2pi/d (TestCosetOracle)
        out = tmp_path / "coset.json"
        lengths = [f * TWO_PI / d for f in (0.9, 1.1, 1.5)]
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-200, 200]}},
            "directions": {"rule": "partition", "d": d, "alpha": 1 / d},
            "grids": {"lengths": lengths},
            "params": {"N_max": 128},
            "output": {"path": str(out), "format": "json"},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["transition_bracket"] == lengths[:2]
        assert lengths[0] < summary["predicted_critical_length"] < lengths[1]
        assert summary["block_identity_residual"] == 0.0
        assert summary["period_exponent_count"] == d

    def test_partition_sweep_fine_lattice(self, tmp_path):
        # every class spans at most 1, so its radius grid starts at span / 16, not at 1
        out = tmp_path / "fine.json"
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spacing": 0.05, "window": [0, 1]}},
            "directions": {"rule": "partition", "d": 2, "alpha": 10},
            "grids": {"lengths": [100]},
            "params": {"N_max": 10},
            "output": {"path": str(out), "format": "json"},
        }
        cfg_path = tmp_path / "fine.config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 0
        class_of, _ = parse_config(json.dumps(raw)).partition
        assert np.bincount(class_of)[1:].tolist() == [11, 10]
        densities = json.loads(out.read_text())["summary"]["class_densities"]
        assert all(density is not None and math.isfinite(density) for density in densities)

    def test_partition_sweep_residual_reads_cross_class_entries(self, tmp_path, monkeypatch):
        # a nonzero entry between classes breaks the identity although every class block holds
        assemble = cli.assemble_gram

        def planted(system, interval):
            G = assemble(system, interval)
            if system.directions.d > 1:
                G[1, 0] = G[0, 1] = 1e-3
            return G

        monkeypatch.setattr(cli, "assemble_gram", planted)
        out = tmp_path / "sharp.json"
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-40, 40]}},
            "directions": {"rule": "partition", "d": 2, "alpha": 0.5},
            "grids": {"lengths": [6]},
            "params": {"N_max": 16},
            "output": {"path": str(out), "format": "json"},
        }
        config = parse_config(json.dumps(raw))
        first, second = config.direction_assignment.matrix[:2]
        assert np.vdot(first, second) == 0  # positions 0 and 1 are in different classes
        assert run(config) == 0
        assert json.loads(out.read_text())["summary"]["block_identity_residual"] == 1e-3

    @pytest.mark.parametrize("command, params, grids", [
        ("bounds-sweep", {"N_max": 4}, {"lengths": [TWO_PI]}),
        ("defect-decay", {"y": 0.0, "r": 3.0}, {"R": [8.0, 16.0, 32.0, 64.0]}),
    ])
    def test_json_artifact_is_strict_json(self, tmp_path, command, params, grids):
        # the density of a partition class too small to estimate, and an exactly
        # representable family's decay fit, are undefined: null, never a bare NaN
        out = tmp_path / "strict.json"
        raw = {
            "command": command,
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-6, 6]}},
            "directions": ({"rule": "partition", "d": 3, "alpha": 0.5} if command == "bounds-sweep"
                           else {"rule": "constant", "d": 3}),
            "interval": [0.0, TWO_PI],
            "params": params,
            "grids": grids,
            "output": {"path": str(out), "format": "json"},
        }
        assert run(parse_config(json.dumps(raw))) == 0

        def reject(constant):
            raise ValueError(f"bare {constant} is not JSON")

        document = json.loads(out.read_text(), parse_constant=reject)
        values = [*document["summary"].values(), *(v for row in document["rows"] for v in row.values())]
        assert None in values
        if command == "bounds-sweep":
            assert None in document["summary"]["class_densities"]

    def test_dd_condition_rows(self, tmp_path):
        out = tmp_path / "cond.csv"
        raw = {
            "command": "dd-condition",
            "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0, 8]}},
            "interval": [0.0, TWO_PI],
            "grids": {"delta": [1e-3, 1e-2]},
            "params": {"M": 2, "gamma_prime": 0.5},
            "output": {"path": str(out), "format": "csv"},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if l.startswith("delta,"))
        first = dict(zip(header.split(","), lines[lines.index(header) + 1].split(",")))
        assert float(first["ratio"]) > 1e3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dd_condition_at_the_eigenvalue_floor_reports_overflow(self, tmp_path, fmt):
        # on [0, 1] both Grams of 100 pairs are numerically singular: lambda_min at or below
        # 1e-12 * lambda_max (negative for the DD Gram) makes no condition number on either side
        out = tmp_path / f"floor.{fmt}"
        raw = {
            "command": "dd-condition",
            "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0, 100]}},
            "interval": [0.0, 1.0],
            "grids": {"delta": [1e-6, 1e-2]},
            "output": {"path": str(out), "format": fmt},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        if fmt == "json":
            rows = json.loads(out.read_text())["rows"]
        else:
            lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [float(row["delta"]) for row in rows] == [1e-6, 1e-2]
        for row in rows:
            assert (row["cond_raw"], row["cond_dd"], row["ratio"]) == ("overflow",) * 3

    def test_defect_decay_summary(self, tmp_path):
        out = tmp_path / "decay.json"
        raw = {
            "command": "defect-decay",
            "family": {"kind": "explicit", "params": {"exponents": [k + 0.5 for k in range(-200, 200)]}},
            "interval": [0.0, TWO_PI],
            "params": {"y": 0.0, "r": 2.0},
            "grids": {"R": [8.0, 16.0, 32.0, 64.0, 128.0]},
            "output": {"path": str(out), "format": "json"},
        }
        assert run(parse_config(json.dumps(raw))) == 0
        document = json.loads(out.read_text())
        assert -1.0 <= document["summary"]["slope"] <= -0.45
        assert all(row["below_majorant"] for row in document["rows"])


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(density_config(out)))
        assert main(["--config", str(cfg_path)]) == 0
        assert out.exists()

    def test_threads_flag_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(density_config(out)))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"command": "density", "family": {"kind": "nope"}}))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    def test_nonpositive_R_grid_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "command": "defect-decay",
                    "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-20, 20]}},
                    "interval": [0.0, TWO_PI],
                    "grids": {"R": [-0.5, 8.0, 16.0, 32.0]},
                    "params": {"y": 0.5, "r": 3.0},
                    "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
                }
            )
        )
        assert main(["--config", str(cfg_path)]) == 2
        assert "grid 'R' must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_bool_integers_rejected(self, tmp_path, capsys):
        raw = density_config(tmp_path / "out.csv")
        raw["seed"] = True
        raw["directions"] = {"rule": "constant", "d": True}
        cfg_path = tmp_path / "bools.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "seed must be a nonnegative integer" in err
        assert "directions.d must be a positive integer" in err
        assert not (tmp_path / "out.csv").exists()

    def test_non_finite_numbers_rejected(self, tmp_path, capsys):
        raw = trace_config(tmp_path / "out.csv")
        raw["interval"] = [0.0, math.inf]
        raw["params"]["R"] = math.nan
        raw["grids"] = {"r": [1.0, -math.inf]}
        cfg_path = tmp_path / "inf.json"
        cfg_path.write_text(json.dumps(raw))  # written as Infinity / NaN
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "interval must be a pair [a, b] of finite numbers" in err
        assert "parameter 'R' must be finite" in err
        assert "grid 'r' must contain finite numbers only" in err
        assert not (tmp_path / "out.csv").exists()

    def test_family_parameter_errors_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spcing": 1.0, "window": [-40, 40]}},
            "interval": [0.0, 1.0],
            "grids": {"lengths": [5.0, 7.0]},
            "params": {"N_max": "abc"},
            "output": {"path": str(out), "format": "csv"},
        }
        cfg_path = tmp_path / "family.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: family.params: unexpected parameters for kind 'lattice': ['spcing']" in err
        assert "config error: parameter 'N_max' must be a positive integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"directions": {"rule": "random", "d": 2, "seed": "abc"}}, "directions.seed must be a nonnegative integer"),
        ({"params": {"y": 0.0, "r": "five", "R": 10.0}}, "parameter 'r' must be a number"),
        ({"command": "bounds-sweep", "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-20, 20]}},
          "grids": {"lengths": [5.0]}, "params": {"N_max": 64}},
         "parameter 'N_max' = 64 needs 2*N_max+1 = 129 exponents, the family has 41"),
        ({"command": "bounds-sweep", "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-20, 20]}},
          "grids": {"lengths": [5.0]}, "params": {}}, "parameter 'N_max' = 128 needs"),
        ({"directions": {"rule": "partition", "d": 2.0, "alpha": 0.5}}, "directions.d must be a positive integer"),
        ({"directions": {"rule": "constant", "d": 2, "axis": 2}}, "directions.axis must be an integer in 0..d-1"),
        ({"command": "dd-condition", "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0, 8]}},
          "grids": {"delta": [1e-3]}, "params": {"normalize_dd": "yes"}},
         "parameter 'normalize_dd' must be true or false"),
        # values a run rejects before it computes anything
        ({"params": {"y": 0.0, "r": 0.0, "R": 10.0}}, "parameter 'r' must be positive"),
        ({"params": {"y": 0.0, "r": 5.5, "R": -1.0}}, "parameter 'R' must be positive"),
        ({"command": "defect-decay", "grids": {"R": [8.0, 16.0, 32.0, 64.0]}, "params": {"y": 0.5, "r": 0.0}},
         "parameter 'r' must be positive"),
        ({"command": "defect-decay", "grids": {"R": [8.0, 16.0, 32.0]}, "params": {"y": 0.5, "r": 3.0}},
         "grid 'R' must hold at least 4 values"),
        ({"command": "bounds-sweep", "grids": {"lengths": [-1.0, 5.0]}, "params": {"N_max": 8}},
         "grid 'lengths' must be positive"),
        # gamma_prime <= 0 used to exit 3 at the first delta
        *[({"command": "dd-condition",
            "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0, 8]}},
            "grids": {"delta": [1e-3]}, "params": {"gamma_prime": gamma_prime}},
           "parameter 'gamma_prime' must be a positive number") for gamma_prime in (-0.5, 0)],
        # an unhashable command used to escape parse_config as a TypeError
        ({"command": ["trace"]}, "unknown command ['trace'] (expected one of density, gram, bounds-sweep,"),
    ])
    def test_mistyped_values_exit_two(self, tmp_path, capsys, change, message):
        out = tmp_path / "out.csv"
        raw = {**trace_config(out), **change}
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        [line] = capsys.readouterr().err.splitlines()  # the one error, and no other
        assert line.startswith("config error: ") and message in line
        assert not out.exists()

    @pytest.mark.parametrize("kind, params, message", [
        ("lattice", {"spacing": True}, "spacing must be a positive number"),
        ("lattice", {"spacing": "1.0"}, "spacing must be a positive number"),
        *[("lattice", {"window": window}, "window must be a pair [lo, hi] of finite numbers with lo <= hi")
          for window in (["-20", "20"], [False, 20], [-20, 20, 30])],
        ("perturbed-lattice", {"max_perturbation": "0.2"}, "max_perturbation must be a number"),
        ("perturbed-lattice", {"max_perturbation": 0.2, "seed": 1.7}, "seed must be a nonnegative integer"),
        ("perturbed-lattice", {"max_perturbation": 0.2, "seed": -1}, "seed must be a nonnegative integer"),
        ("explicit", {"exponents": [str(k) for k in range(-20, 21)]}, "exponents must be a list of numbers"),
    ], ids=["spacing-true", "spacing-string", "window-strings", "window-false", "window-three",
            "max_perturbation-string", "seed-float", "seed-negative", "exponents-strings"])
    def test_mistyped_family_params_exit_two(self, tmp_path, capsys, kind, params, message):
        # all but the negative seed used to run: strings and booleans became numbers, the seed 1.7 became 1
        # and a window of three values lost its last; the family is built only from params of their kinds,
        # so one mistake gives one line
        out = tmp_path / "out.csv"
        fparams = {"window": [-20, 20], **params} if kind != "explicit" else params
        raw = {**density_config(out), "family": {"kind": kind, "params": fparams}, "grids": {"r": list(range(1, 21))}}
        cfg_path = tmp_path / "family.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: family.params.{message}"]
        assert not out.exists()

    @pytest.mark.parametrize("exponents, literal, message", [
        ([0.0, math.nan, 1.0], "[0.0, NaN, 1.0]", "exponents must be finite"),
        ([0.0, math.inf, 1.0], "[0.0, Infinity, 1.0]", "exponents must be finite"),
        ([0.0, -math.inf, 1.0], "[0.0, -Infinity, 1.0]", "exponents must be finite"),
        ([-1e308, 0.0, 1e308], "[-1e+308, 0.0, 1e+308]", "exponent span must be finite"),
    ])
    def test_non_finite_exponents_exit_two(self, tmp_path, capsys, exponents, literal, message):
        # Python's json reads these literals, so the family, not the parser, rejects them
        out = tmp_path / "out.csv"
        raw = {"command": "gram", "family": {"kind": "explicit", "params": {"exponents": exponents}},
               "interval": [0.0, 1.0], "output": {"path": str(out), "format": "csv"}}
        cfg_path = tmp_path / "explicit.json"
        cfg_path.write_text(json.dumps(raw))
        assert literal in cfg_path.read_text()
        assert main(["--config", str(cfg_path)]) == 2
        [line] = capsys.readouterr().err.splitlines()  # the one error, and no other
        assert line == f"config error: family.params: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("family, message", [
        ({"kind": "clustered-pairs", "params": {"spcing": 3.0, "window": [0, 8]}},
         "family.params: unexpected parameters for dd-condition: ['spcing']"),
        ({"kind": "lattice", "params": {"spacing": 2.0, "window": [0, 8]}},
         "dd-condition needs family.kind 'clustered-pairs', got 'lattice'"),
        ({"kind": "clustered-pairs", "params": {"spacing": "2", "window": [8, 0]}},
         "family.params.spacing must be a positive number"),
        ({"kind": "clustered-pairs", "params": {"window": [8, 0]}},
         "family.params.window must be a pair [lo, hi] of finite numbers with lo <= hi"),
    ])
    def test_dd_condition_family_errors_exit_two(self, tmp_path, capsys, family, message):
        out = tmp_path / "out.csv"
        raw = {
            "command": "dd-condition",
            "family": family,
            "interval": [0.0, TWO_PI],
            "grids": {"delta": [1e-3]},
            "output": {"path": str(out), "format": "csv"},
        }
        cfg_path = tmp_path / "dd.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ({"command": "dd-condition", "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0, 8]}},
          "interval": [0.0, 10.0], "grids": {"delta": [1e-6, 3.0]}},
         "grid 'delta' values must lie strictly between 0 and the spacing 2.0"),
        ({"command": "dd-condition", "family": {"kind": "clustered-pairs", "params": {"window": [0, 8]}},
          "interval": [0.0, 10.0], "grids": {"delta": [1e-6, 2.0]}},
         "grid 'delta' values must lie strictly between 0 and the spacing 2.0"),
        # the integers hold no w with |w - 0.5| < 0.5: the window's test is strict
        ({"command": "trace", "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-5, 5]}},
          "interval": [0.0, 1.0], "params": {"y": 0.5, "r": 0.5, "R": 2.0}},
         "params: no exponent w with |w - y| < r = 0.5 at y = 0.5: V_r is empty"),
        # y defaults to the middle of the family, 2.5 here
        ({"command": "defect-decay", "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [0, 5]}},
          "interval": [0.0, 1.0], "grids": {"R": [1.0, 2.0, 3.0, 4.0]}, "params": {"r": 0.5}},
         "params: no exponent w with |w - y| < r = 0.5 at y = 2.5: V_r is empty"),
        # on |I| = 0.5 the grid frequencies are 4 pi n, none within r + R = 0.7 of y = 3
        ({"command": "trace", "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-10, 10]}},
          "interval": [0.0, 0.5], "params": {"y": 3, "r": 0.6, "R": 0.1}},
         "params: no grid frequency 2*pi*n/|I| with |2*pi*n/|I| - y| < r + R at y = 3.0, r = 0.6, R = 0.1: "
         "the Fourier grid is empty"),
        # the grids are nested, so the one at the smallest R must hold a frequency; R = 20 reaches one
        *[({"command": "defect-decay", "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-10, 10]}},
            "interval": [0.0, 0.5], "grids": {"R": Rs}, "params": {"y": 3, "r": 0.6}},
           "grid 'R': no grid frequency 2*pi*n/|I| with |2*pi*n/|I| - y| < r + R at y = 3.0, r = 0.6, R = 0.1: "
           "the Fourier grid is empty") for Rs in ([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 20])],
    ])
    def test_unrunnable_configs_exit_two_before_running(self, tmp_path, capsys, raw, message):
        out = tmp_path / "out.csv"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**raw, "output": {"path": str(out)}}))
        assert main(["--config", str(cfg_path)]) == 2
        [line] = capsys.readouterr().err.splitlines()  # the one error, and no other
        assert line == f"config error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"command": "bounds-sweep", "grids": {"lengths": [5.0]}, "params": {"N_max": 8},
          "directions": {"rule": "partition", "d": 2, "alpha": 3.0}},
         "config error: directions: alpha=3.0 outside [D+/d, D+] = [0.5, 1]"),
        ({"directions": {"rule": "partition", "d": 2, "alpha": 3.0}},
         "config error: directions: alpha=3.0 outside [D+/d, D+] = [0.5, 1]"),
        # steps 1, 2, 1, 2, ...: pattern period 2
        ({"command": "gram",
          "family": {"kind": "explicit", "params": {"exponents": [3 * k + j for k in range(8) for j in (0, 1)]}},
          "directions": {"rule": "partition", "d": 2, "alpha": 0.5, "period_count": 3}},
         "config error: directions: period_count must be a positive multiple of the pattern period 2"),
        ({"directions": {"rule": "partition", "d": 2, "alpha": 0.5},
          "family": {"kind": "perturbed-lattice", "params": {"window": [-30, 30], "max_perturbation": 0.2}}},
         "config error: directions: construction requires periodic family"),
    ])
    def test_partition_errors_exit_two(self, tmp_path, capsys, change, message):
        out = tmp_path / "out.csv"
        cfg_path = tmp_path / "partition.json"
        cfg_path.write_text(json.dumps({**trace_config(out), **change}))
        assert main(["--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sharpness_is_an_unknown_command(self, tmp_path, capsys):
        # its per-class densities are a partition-rule bounds-sweep's summary now, and its params are no names
        out = tmp_path / "out.csv"
        raw = {
            "command": "sharpness",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-40, 40]}},
            "interval": [0.0, TWO_PI],
            "params": {"alpha": 0.5, "d": 2},
            "output": {"path": str(out), "format": "json"},
        }
        cfg_path = tmp_path / "sharpness.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == ("config error: unknown command 'sharpness' "
                          "(expected one of density, gram, bounds-sweep, trace, defect-decay, dd-condition)")
        assert [line.split(" (known:")[0] for line in err[1:]] == [
            "config error: unknown parameter 'alpha'", "config error: unknown parameter 'd'"]
        assert not out.exists()

    @pytest.mark.parametrize("r_grid, message", [
        (list(range(1, 11)), "config error: grid 'r': r_grid values must not exceed the family's window span"),
        ([1.0, 2.0, 3.0, 4.0], "config error: grid 'r': fewer than 3 grid points in fit window"),
    ])
    def test_density_r_grid_errors_exit_two(self, tmp_path, capsys, r_grid, message):
        out = tmp_path / "out.csv"
        raw = density_config(out)
        raw["family"] = {"kind": "lattice", "params": {"spacing": 1.0, "window": [-4, 4]}}
        raw["grids"] = {"r": r_grid}
        cfg_path = tmp_path / "density.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_misspelled_keys_exit_two(self, tmp_path, capsys):
        # both misspellings used to be ignored: N_max 128 and constant d=1 directions ran instead
        out = tmp_path / "out.csv"
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-300, 300]}},
            "direction": {"rule": "random", "d": 2},
            "grids": {"lengths": [5.0, 8.0]},
            "params": {"N_mx": 32},
            "output": {"path": str(out), "format": "csv"},
        }
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: unknown field 'direction' (known: command, family, seed, directions," in err
        assert "config error: unknown parameter 'N_mx' (known: N_max," in err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"family": {"kind": "lattice", "sed": 3, "params": {"spacing": 1.0, "window": [-30, 30]}}},
         "unknown family key 'sed'"),
        ({"directions": {"rule": "constant", "d": 2, "axes": 1}}, "unknown directions key 'axes'"),
        ({"grids": {"lenghts": [5.0]}}, "unknown grid 'lenghts'"),
        ({"params": {"y": 0.0, "r": 5.5, "R": 10.0, "Y": 1.0}}, "unknown parameter 'Y'"),
        ({"output": {"path": "out.csv", "fromat": "json"}}, "unknown output key 'fromat'"),
    ])
    def test_unknown_key_in_each_section_exit_two(self, tmp_path, capsys, change, message):
        raw = {**trace_config(tmp_path / "out.csv"), **change}
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        assert f"config error: {message} (known: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, reads", [
        ("trace", {"N_max": 64, "normalize_dd": False, "gamma_prime": 0.7}, "r, R, y"),
        ("bounds-sweep", {"gamma_prime": 0.5, "M": 2}, "N_max"),
    ], ids=["trace", "bounds-sweep"])
    def test_params_a_command_does_not_read_exit_two(self, tmp_path, capsys, command, extra, reads):
        # a name some other command reads used to be accepted and ignored: one error per name
        out = tmp_path / "out.csv"
        raw = trace_config(out)
        if command == "bounds-sweep":
            raw = {**density_config(out), "command": command, "grids": {"lengths": [5.0, 6.0]}, "params": {"N_max": 16}}
        raw["params"] = {**raw["params"], **extra}
        cfg_path = tmp_path / "unread.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: parameter {name!r} is not read by command {command!r} (it reads: {reads})" for name in extra]
        assert not out.exists()

    @pytest.mark.parametrize("command, grids, reads", [
        ("trace", {"delta": [1e-3]}, "none"),
        ("bounds-sweep", {"lengths": [5.0, 6.0], "R": [1.0, 2.0, 3.0, 4.0]}, "lengths"),
    ], ids=["trace", "bounds-sweep"])
    def test_grids_a_command_does_not_read_exit_two(self, tmp_path, capsys, command, grids, reads):
        # a grid some other command reads used to be accepted and ignored
        out = tmp_path / "out.csv"
        raw = {**trace_config(out), "grids": grids}
        if command == "bounds-sweep":
            raw = {**raw, "command": command, "params": {"N_max": 16}}
        cfg_path = tmp_path / "unread.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: grid {name!r} is not read by command {command!r} (it reads: {reads})"
            for name in grids if name != reads]
        assert not out.exists()

    def test_numerical_exit_three(self, tmp_path, capsys):
        cfg_path = tmp_path / "singular.json"
        out = tmp_path / "out.csv"
        cfg_path.write_text(
            json.dumps(
                {
                    "command": "trace",
                    "family": {"kind": "explicit", "params": {"exponents": [0.0, 0.0, 1.0]}},
                    "interval": [0.0, 1.0],
                    "params": {"y": 0.5, "r": 2.0, "R": 5.0},
                    "output": {"path": str(out), "format": "csv"},
                }
            )
        )
        assert main(["--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        # the shifted Cholesky factorization breaks down, and the extreme eigenvalues refuse the Gram
        assert "near-singular Gram: min eigenvalue" in err
        assert "threshold 1e-10" in err

    def test_tiny_interval_near_singular_payload_is_scaled(self, tmp_path, capsys):
        # the window's Gram is about |I| * ones(5), norm 5|I|: the gate's fallback reads it scaled to
        # unit size, where the unscaled read reported a norm of 4.000e-181
        cfg_path, out = tmp_path / "tiny.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps({
            "command": "trace",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-5, 5]}},
            "interval": [0.0, 1e-181],
            "params": {"y": 0.0, "r": 3.0, "R": 1.0},
            "output": {"path": str(out), "format": "csv"},
        }))
        assert main(["--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: command 'trace': near-singular Gram: min eigenvalue")
        assert err.endswith("(threshold 1e-10 * norm 5.000e-181)\n")
        assert not out.exists()

    def test_numerical_failure_has_one_exit_path(self, tmp_path, capsys, monkeypatch):
        # a plain ValueError from a runner reaches exit 3 with the command named, as every other numerical failure
        def fail(*args):
            raise ValueError("x")

        monkeypatch.setattr(cli, "run_trace_experiment", fail)
        out = tmp_path / "trace.csv"
        cfg_path = tmp_path / "trace.json"
        cfg_path.write_text(json.dumps(trace_config(out)))
        assert main(["--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == "numerical failure: command 'trace': x\n"
        assert not out.exists()

    def test_bounds_sweep_far_from_unit_scale_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "far.json"
        out = tmp_path / "far.json.out"
        cfg_path.write_text(json.dumps({
            "command": "bounds-sweep",
            "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-40, 40]}},
            "grids": {"lengths": [1e300]},
            "params": {"N_max": 4},
            "output": {"path": str(out), "format": "json"},
        }))
        assert main(["--config", str(cfg_path)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert all(row["lambda_min"] == pytest.approx(1e300, rel=1e-14) for row in rows)

    def test_numerical_failure_names_grid_point(self, tmp_path, capsys):
        cfg_path = tmp_path / "badsweep.json"
        out = tmp_path / "out.csv"
        # gamma_prime above the pair spacing merges everything into one long
        # chain, violating the length cap at the very first delta
        cfg_path.write_text(
            json.dumps(
                {
                    "command": "dd-condition",
                    "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0, 8]}},
                    "interval": [0.0, TWO_PI],
                    "grids": {"delta": [1e-3]},
                    "params": {"M": 2, "gamma_prime": 3.0},
                    "output": {"path": str(out), "format": "csv"},
                }
            )
        )
        assert main(["--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "at delta=0.001" in err

    @staticmethod
    def huge_R_config(out, command, R):
        raw = {"command": command, "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-10, 10]}},
               "interval": [0.0, 8.0], "params": {"y": 0.0, "r": 3.0}, "output": {"path": str(out), "format": "csv"}}
        if command == "trace":
            raw["params"]["R"] = R
        else:
            raw["grids"] = {"R": [1.0, 2.0, 4.0, R]}
        return raw

    @pytest.mark.parametrize("command", ["trace", "defect-decay"])
    @pytest.mark.parametrize(("R", "cause"), [
        (1e300, "Maximum allowed size exceeded"),  # more integers than an array can index
        (1e308, "cannot convert float infinity to integer"),  # (y - r - R) |I| overflows
    ], ids=["1e300", "1e308"])
    def test_grid_too_large_to_enumerate_names_R(self, tmp_path, capsys, command, R, cause):
        cfg_path, out = tmp_path / "huge.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(self.huge_R_config(out, command, R)))
        assert main(["--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == f"numerical failure: command {command!r}: at R={R:.6g}: {cause}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trace", "defect-decay"])
    def test_grid_too_large_to_allocate_names_R(self, tmp_path, capsys, monkeypatch, command):
        # R = 1e12 on |I| = 8 asks numpy for 18.5 TiB of grid integers; the allocation
        # failure is simulated, not attempted
        def refuse(cls, interval, d, y, radius):
            raise MemoryError("Unable to allocate 18.5 TiB for an array with shape (2546479089481,)")

        monkeypatch.setattr(FourierGrid, "centered", classmethod(refuse))
        cfg_path, out = tmp_path / "huge.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(self.huge_R_config(out, command, 1e12)))
        assert main(["--config", str(cfg_path)]) == 3
        R = 1e12 if command == "trace" else 1.0  # the least R's grid is built first
        assert capsys.readouterr().err.startswith(f"numerical failure: command {command!r}: at R={R:.6g}: Unable to")

    def test_far_interval_separated_pairs_exit_zero(self, tmp_path):
        # delta = 0.15 on [0, 2000]: every pair gap spans a phase of 300, so the
        # pairs take explicit weights and no simplex rule is needed
        cfg_path = tmp_path / "far.json"
        out = tmp_path / "out.csv"
        spacing, window, interval = 2.0, [0, 6], [0.0, 2000.0]
        cfg_path.write_text(
            json.dumps(
                {
                    "command": "dd-condition",
                    "family": {"kind": "clustered-pairs", "params": {"spacing": spacing, "window": window}},
                    "interval": interval,
                    "grids": {"delta": [0.15]},
                    "params": {"M": 2, "gamma_prime": 0.5},
                    "output": {"path": str(out), "format": "csv"},
                }
            )
        )
        assert main(["--config", str(cfg_path)]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        # reference: the normalized Gram of Newton-recurrence profiles on centered nodes
        fam = generate_family("clustered-pairs", spacing=spacing, delta=0.15, window=window)
        nodes = node_sets(DividedDifferenceSystem(fam, detect_chains(fam, 0.5, 2), DirectionAssignment.constant(fam, 1)))
        c = 0.5 * (nodes[0][0] + nodes[-1][-1])
        t, w = dense_panel_rule(*interval, rate=2.0 * max(float(np.max(np.abs(x - c))) for x in nodes))
        F = np.stack([dd_recurrence(x - c, t) for x in nodes])
        F /= np.sqrt(np.abs(F) ** 2 @ w)[:, None]
        lo, hi = np.linalg.eigvalsh((F.conj() * w) @ F.T)[[0, -1]]
        assert float(row[2]) == pytest.approx(hi / lo, rel=1e-12)
        assert float(row[2]) == pytest.approx(5.86590282021, rel=1e-11)

    @pytest.mark.parametrize(
        "window, M, rel, end",
        [([0, 2], 4, 1e-12, TWO_PI), ([0, 6], 8, 1e-9, TWO_PI), ([0, 6], 8, 1e-6, 0.4)],
        ids=["window0-4-1e-12", "window1-8-1e-09", "short-interval"],
    )
    def test_merged_pair_chain_exit_zero(self, tmp_path, window, M, rel, end):
        # gamma_prime 3 above the pair spacing 2 merges the pairs into one chain
        # of M nodes whose gaps alternate clustered (1e-3) and separated (2); on
        # [0, 0.4] the spacing is clustered too, so every prefix of three nodes
        # or more is one run of Taylor terms (theta = 2.4 at q = 7)
        pytest.importorskip("mpmath")
        cfg_path, out = tmp_path / "merged.json", tmp_path / "out.csv"
        cfg_path.write_text(
            json.dumps(
                {
                    "command": "dd-condition",
                    "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": window}},
                    "interval": [0.0, end],
                    "grids": {"delta": [1e-3]},
                    "params": {"M": M, "gamma_prime": 3.0},
                    "output": {"path": str(out), "format": "csv"},
                }
            )
        )
        assert main(["--config", str(cfg_path)]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        # reference: the normalized Gram of exact (mpmath) profiles on a dense panel rule;
        # rel is the rounding of unit-scale entries times cond_dd (1.8e3, 7.0e6 and 5.6e9)
        fam = generate_family("clustered-pairs", spacing=2.0, delta=1e-3, window=window)
        nodes = node_sets(DividedDifferenceSystem(fam, detect_chains(fam, 3.0, M), DirectionAssignment.constant(fam, 1)))
        assert len(nodes) == M
        t, w = dense_panel_rule(0.0, end, rate=2.0 * float(fam.exponents[-1]))
        F = np.stack([eval_dd_exact(x, t) for x in nodes])
        F /= np.sqrt(np.abs(F) ** 2 @ w)[:, None]
        lo, hi = np.linalg.eigvalsh((F.conj() * w) @ F.T)[[0, -1]]
        assert float(row[2]) == pytest.approx(hi / lo, rel=rel)

    def test_seed_override_recorded(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(density_config(out)))
        assert main(["--config", str(cfg_path), "--seed", "42"]) == 0
        assert "# seed=42" in out.read_text()

    def test_seed_override_matches_config_seed(self, tmp_path):
        # the seed draws both the perturbation and the random directions
        raw = {
            "command": "bounds-sweep",
            "family": {"kind": "perturbed-lattice", "params": {"window": [-40, 40], "max_perturbation": 0.2}},
            "directions": {"rule": "random", "d": 2},
            "grids": {"lengths": [5.0, 8.0]},
            "params": {"N_max": 16},
            "output": {"path": "sweep.json", "format": "json"},
        }
        (tmp_path / "plain.json").write_text(json.dumps(raw))
        (tmp_path / "seeded.json").write_text(json.dumps({**raw, "seed": 7}))
        runs = {"override": ["plain.json", "--seed", "7"], "config": ["seeded.json"], "default": ["plain.json"]}
        for name, (config, *extra) in runs.items():
            assert main(["--config", str(tmp_path / config), "--out", str(tmp_path / name), *extra]) == 0
        assert (tmp_path / "override").read_bytes() == (tmp_path / "config").read_bytes()
        assert (tmp_path / "override").read_bytes() != (tmp_path / "default").read_bytes()

    def test_negative_seed_override_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(density_config(out)))
        assert main(["--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "config error: seed override must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_format_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out.any"
        cfg_path.write_text(json.dumps(density_config(out)))
        assert main(["--config", str(cfg_path), "--format", "json", "--out", str(out)]) == 0
        assert out.read_text().lstrip().startswith("{")

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/cfg.json"]) == 2

    def test_config_directory_exit_two(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read config file {tmp_path}: ")

    def test_missing_output_directory_exit_two(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(density_config(tmp_path / "out.csv")))
        out = tmp_path / "missing" / "x.csv"

        def computed(*args, **kwargs):
            raise AssertionError("the run started before its output directory was checked")

        monkeypatch.setattr(cli, "run", computed)
        message = f"error: cannot write output file {out}: no directory {out.parent}\n"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        cfg_path.write_text(json.dumps(density_config(out)))  # the same path, from the config
        assert main(["--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == message
        assert not out.parent.exists()

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(density_config(tmp_path / "out.csv")))
        (tmp_path / "taken").mkdir()
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "taken")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot write output file {tmp_path / 'taken'}: ")

    def test_console_script_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(density_config(out)))
        src = str(Path(__file__).resolve().parents[1] / "src")  # the child imports this checkout, installed or not
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "inghamlab.cli", "--config", str(cfg_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert out.exists()


ECHO_KEYS = {"command", "family", "seed", "directions", "interval", "grids", "params", "output"}
positives = st.floats(0.01, 50.0)


def increasing(values, min_size=1):
    return st.lists(values, min_size=min_size, max_size=5, unique=True).map(sorted)


def alphas(density, d):
    """Target class densities a sharpness partition admits: [D/d, D]."""
    return st.floats(0.0, 1.0).map(lambda t: density / d + t * (density - density / d))


@st.composite
def valid_configs(draw, command):
    """A config document ``parse_config`` accepts, for the given command."""
    spacing = draw(st.sampled_from([0.5, 1.0, 2.0]))
    window = [-draw(st.integers(12, 30)), draw(st.integers(12, 30))]
    families = [
        {"kind": "lattice", "params": {"spacing": spacing, "window": window}},
        {"kind": "perturbed-lattice", "params": {"spacing": spacing, "window": window, "max_perturbation": 0.2}},
        {"kind": "perturbed-lattice", "params": {"window": window, "max_perturbation": 0.1, "seed": 3}},
        {"kind": "explicit", "params": {"exponents": [float(k) for k in range(window[0], window[1])]}},
    ]
    if command == "dd-condition":
        family = {"kind": "clustered-pairs", "params": draw(st.fixed_dictionaries({}, optional={
            "spacing": st.floats(1.0, 3.0), "window": st.just([0.0, 8.0])}))}
    else:
        family = draw(st.sampled_from(families))
    density, d = 1.0 / spacing, draw(st.integers(1, 3))
    rules = ["constant", "random", *(["partition"] if family["kind"] == "lattice" else [])]
    directions = {"rule": draw(st.sampled_from(rules)), "d": d}
    if directions["rule"] == "constant":
        directions["axis"] = draw(st.integers(0, d - 1))
    elif directions["rule"] == "random" and draw(st.booleans()):
        directions["seed"] = draw(st.integers(0, 1000))
    elif directions["rule"] == "partition":
        directions["alpha"] = draw(alphas(density, d))
    a = draw(st.floats(-10.0, 10.0))
    raw = {
        "command": command,
        "family": family,
        "directions": directions,
        "interval": [a, a + draw(st.floats(0.5, 12.0))],
        "output": {"path": draw(st.sampled_from(["a.csv", "b.json"])),
                   "format": draw(st.sampled_from(["csv", "json"]))},
    }
    if draw(st.booleans()):
        raw["seed"] = draw(st.integers(0, 10**6))
    grids = {"density": "r", "bounds-sweep": "lengths", "defect-decay": "R", "dd-condition": "delta"}
    if command in grids:
        # a density fit needs 3 radii in the upper half of its grid, none past the family's span (>= 23)
        # a dd-condition delta lies below the least spacing, 1.0
        values = {"density": st.floats(0.01, 20.0), "dd-condition": st.floats(0.01, 0.99)}.get(command, positives)
        sizes = {"defect-decay": 4, "density": 5}
        raw["grids"] = {grids[command]: draw(increasing(values, min_size=sizes.get(command, 1)))}
    if command in ("trace", "defect-decay"):
        # no two neighbours are more than 2.4 apart, so some exponent lies within r of y
        raw["params"] = {"r": draw(st.floats(1.25, 50.0)), "y": draw(st.floats(-5.0, 5.0))}
        if command == "trace":
            raw["params"]["R"] = draw(positives)
    elif command == "bounds-sweep":
        raw["params"] = {"N_max": draw(st.integers(1, 6))}  # the smallest family has 13 exponents
    elif command == "dd-condition":
        raw["params"] = draw(st.fixed_dictionaries({}, optional={
            "M": st.integers(1, 3), "gamma_prime": st.floats(0.1, 1.0), "normalize_dd": st.booleans()}))
    return raw


class TestConfigEquality:
    def test_dataclass_round_trip_equality(self):
        text = json.dumps(trace_config("t.csv"))
        a = parse_config(text)
        b = parse_config(json.dumps(a.canonical()))
        assert a == b
        assert isinstance(a, ExperimentConfig)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(tuple(cli._COMMANDS)).flatmap(valid_configs))
    def test_canonical_round_trip(self, raw):
        config = parse_config(json.dumps(raw))
        echo = config.canonical()
        # the echo is plain JSON: no built family, direction or interval object leaks in
        assert set(echo) == ECHO_KEYS
        assert json.loads(json.dumps(echo, allow_nan=False)) == echo
        back = parse_config(json.dumps(echo))
        assert back == config
        assert back.canonical() == echo
        # and it rebuilds the same objects
        if config.exponent_family is not None:
            assert np.array_equal(back.exponent_family.exponents, config.exponent_family.exponents)
        if config.direction_assignment is not None:
            assert np.array_equal(back.direction_assignment.matrix, config.direction_assignment.matrix)
        assert back.interval_spec == config.interval_spec
