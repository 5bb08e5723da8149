"""Experiment driver: JSON configs in, deterministic CSV/JSON artifacts out.

One command per experiment; identical config and seed produce byte-identical
output.  Exit status 0 on success, 2 on configuration errors (all collected,
not just the first) and on a config file that cannot be read or an output
file that cannot be written, 3 on downstream numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__
from .analysis import (
    DD_SPACING,
    DEFAULT_N_MAX,
    conditioning_comparison,
    defect_decay_fit,
    run_trace_experiment,
    threshold_sweep,
)
from .basisfuncs import DirectionAssignment
from .exponents import (
    DensityEstimate,
    ExponentFamily,
    Partition,
    build_sharpness_partition,
    estimate_density,
    generate_family,
)
from .gram import (
    ExponentialSystem,
    IntervalSpec,
    NearSingularGramError,
    assemble_gram,
    extreme_eigenvalues,
)

FAMILY_KINDS = ("lattice", "perturbed-lattice", "clustered-pairs", "explicit")
DIRECTION_RULES = ("constant", "partition", "random")


class ConfigError(ValueError):
    """Carries every validation problem found in a config, not just the first."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class NumericalFailure(RuntimeError):
    """A downstream numerical error, annotated with the offending grid point."""


# fixed once set: parse_config builds what the run reads from them
_FIXED_FIELDS = ("command", "family", "seed", "directions", "interval", "grids", "params", "output_path")
# JSON values, stored read-only all the way down
_NESTED_FIELDS = ("family", "directions", "interval", "grids", "params")


def _frozen(value):
    """A read-only copy of a JSON value: objects become mapping proxies, arrays tuples."""
    if isinstance(value, Mapping):
        return MappingProxyType({key: _frozen(v) for key, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _plain(value):
    """The JSON value a ``_frozen`` one was made from."""
    if isinstance(value, Mapping):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@dataclass
class ExperimentConfig:
    """A validated config.  ``parse_config`` builds what the run reads from
    these fields, so they are read-only, and so are the values ``family``,
    ``directions``, ``interval``, ``grids`` and ``params`` hold: change a
    config by parsing again (``seed=`` overrides the seed).
    ``output_format`` builds nothing and stays settable; a name that is not
    a field cannot be set."""

    command: str
    family: Mapping
    seed: int = 0
    directions: Mapping = field(default_factory=lambda: {"rule": "constant", "d": 1})
    interval: tuple | None = None
    grids: Mapping = field(default_factory=dict)
    params: Mapping = field(default_factory=dict)
    output_path: str = "experiment.csv"
    output_format: str = "csv"
    # built once by parse_config and read by the runners; derived, so not identity
    exponent_family: ExponentFamily | None = field(default=None, init=False, compare=False, repr=False)
    direction_assignment: DirectionAssignment | None = field(default=None, init=False, compare=False, repr=False)
    partition: Partition | None = field(default=None, init=False, compare=False, repr=False)
    interval_spec: IntervalSpec | None = field(default=None, init=False, compare=False, repr=False)
    density_estimate: DensityEstimate | None = field(default=None, init=False, compare=False, repr=False)

    def __setattr__(self, name, value):
        if name not in self.__dataclass_fields__:
            raise AttributeError(f"ExperimentConfig has no field {name!r}")
        if name in _FIXED_FIELDS and name in self.__dict__:
            raise AttributeError(f"{name!r} is fixed by parse_config; parse the config again to change it")
        super().__setattr__(name, _frozen(value) if name in _NESTED_FIELDS else value)

    def canonical(self) -> dict:
        return {
            "command": self.command,
            "family": _plain(self.family),
            "seed": self.seed,
            "directions": _plain(self.directions),
            "interval": _plain(self.interval),
            "grids": _plain(self.grids),
            "params": _plain(self.params),
            "output": {"path": self.output_path, "format": self.output_format},
        }


# The names a config may use.  Any other name is a config error, and so is a grid or
# a param that the command does not read (its row of _COMMANDS, below the runners).
_FIELDS = ("command", "family", "seed", "directions", "interval", "grids", "params", "output")
_FAMILY_KEYS = ("kind", "params", "seed")
_FAMILY_PARAMS = ("spacing", "window", "max_perturbation", "seed", "delta", "exponents")  # the typed ones
_DIRECTION_KEYS = ("rule", "d", "seed", "axis", "alpha", "period_count")
_OUTPUT_KEYS = ("path", "format")


def _finite(value) -> bool:
    """A JSON number other than a bool, Infinity or NaN."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


# the kind of each typed name in params, directions and family.params: its test and its wording
_KINDS = {
    name: kind
    for kind, names in {
        (lambda v: type(v) is int and v >= 1, "a positive integer"): ("N_max", "d", "M", "period_count"),
        (lambda v: type(v) is int and v >= 0, "a nonnegative integer"): ("seed",),
        (lambda v: _finite(v) and v > 0, "a positive number"): ("spacing", "gamma_prime"),
        (_finite, "a number"): ("r", "R", "y", "alpha", "max_perturbation", "delta"),
        (lambda v: type(v) is bool, "true or false"): ("normalize_dd",),
        (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_finite, v)) and v[0] <= v[1],
         "a pair [lo, hi] of finite numbers with lo <= hi"): ("window",),
        # a non-finite exponent is left to ExponentFamily, which names it
        (lambda v: isinstance(v, list) and all(type(x) in (int, float) for x in v),
         "a list of numbers"): ("exponents",),
    }.items()
    for name in names
}


def _kind_errors(values: dict, names, label: str) -> list[str]:
    """One error per name in ``names`` whose value in ``values`` fails its kind; ``label`` formats the name."""
    errors = []
    for name in names:
        if name in values and name in _KINDS and not _KINDS[name][0](values[name]):
            value = values[name]
            wording = "finite" if type(value) is float and not math.isfinite(value) else _KINDS[name][1]
            errors.append(f"{label.format(name)} must be {wording}")
    return errors


def _unknown(what: str, given: dict, known) -> list[str]:
    """One error per name in ``given`` that no command reads."""
    return [f"unknown {what} {name!r} (known: {', '.join(known)})" for name in given if name not in known]


def _name_errors(what: str, given: dict, known, command, reads, required) -> list[str]:
    """One error per name in ``given`` that no command reads or ``command`` does not, and per missing required one."""
    return [
        *_unknown(what, given, known),
        *(f"{what} {name!r} is not read by command {command!r} (it reads: {', '.join(reads) or 'none'})"
          for name in given if name in known and name not in reads),
        *(f"missing required {what} {name!r} for command {command!r}" for name in required if name not in given),
    ]


def _dd_family_errors(family: dict, deltas) -> list[str]:
    """dd-condition builds one clustered-pairs family per delta from spacing and window only,
    so every delta (``deltas``, None when the grid or the family params are not usable) lies in (0, spacing)."""
    errors = []
    if family.get("kind") != "clustered-pairs":
        errors.append(f"dd-condition needs family.kind 'clustered-pairs', got {family.get('kind')!r}")
    fparams = family.get("params", {})
    if not isinstance(fparams, dict):
        return errors
    extra = sorted(set(fparams) - {"spacing", "window"})
    if extra:
        errors.append(f"family.params: unexpected parameters for dd-condition: {extra}")
    spacing = fparams.get("spacing", DD_SPACING)
    if deltas is not None and not all(0 < v < spacing for v in deltas):
        errors.append(f"grid 'delta' values must lie strictly between 0 and the spacing {spacing!r}")
    return errors


def parse_config(text: str, seed: int | None = None) -> ExperimentConfig:
    """Validate a JSON config document, collecting every error.

    Validation builds what the runner reads (the family, the direction
    assignment or sharpness partition, the interval, a density estimate),
    so a ValueError from any build is a config error.  ``seed``, when
    given, overrides the config's seed before anything is built.
    """
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    errors.extend(_unknown("field", raw, _FIELDS))

    command = raw.get("command")
    row = _COMMANDS.get(command) if isinstance(command, str) else None
    if command is None:
        errors.append("missing required field 'command'")
    elif row is None:
        errors.append(f"unknown command {command!r} (expected one of {', '.join(_COMMANDS)})")

    family = raw.get("family")
    if not isinstance(family, dict):
        errors.append("missing required field 'family'")
        family = {}
    else:
        kind = family.get("kind")
        if kind not in FAMILY_KINDS:
            errors.append(f"family.kind must be one of {', '.join(FAMILY_KINDS)}, got {kind!r}")
        if not isinstance(family.get("params", {}), dict):
            errors.append("family.params must be an object")
        errors.extend(_unknown("family key", family, _FAMILY_KEYS))

    config_seed = raw.get("seed", family.get("seed", 0))
    if type(config_seed) is not int or config_seed < 0:
        errors.append("seed must be a nonnegative integer")
        config_seed = 0
    if seed is None:
        seed = config_seed
    elif type(seed) is not int or seed < 0:
        errors.append("seed override must be a nonnegative integer")
        seed = 0

    n_errors = len(errors)
    directions = raw.get("directions", {"rule": "constant", "d": 1})
    if not isinstance(directions, dict):
        errors.append("directions must be an object")
        directions = {"rule": "constant", "d": 1}
    else:
        errors.extend(_unknown("directions key", directions, _DIRECTION_KEYS))
        rule = directions.get("rule", "constant")
        if rule not in DIRECTION_RULES:
            errors.append(f"directions.rule must be one of {', '.join(DIRECTION_RULES)}, got {rule!r}")
        errors.extend(_kind_errors(directions, _DIRECTION_KEYS, "directions.{}"))
        if rule == "partition" and "alpha" not in directions:
            errors.append("directions.rule 'partition' requires directions.alpha")
        d = directions.get("d", 1)
        axis = directions.get("axis", 0)
        if not (type(axis) is int and 0 <= axis and (type(d) is not int or axis < d)):
            errors.append("directions.axis must be an integer in 0..d-1")
    directions_ok = len(errors) == n_errors

    interval = raw.get("interval")
    interval_spec = None
    if interval is not None:
        if (
            not isinstance(interval, (list, tuple))
            or len(interval) != 2
            or not all(_finite(v) for v in interval)
        ):
            errors.append("interval must be a pair [a, b] of finite numbers")
        elif not interval[1] > interval[0]:
            errors.append("interval must satisfy b > a")
        elif not math.isfinite(interval[1] - interval[0]):
            errors.append("interval must have a finite length b - a")
        else:
            interval_spec = IntervalSpec(*interval)
    if row is not None and row.needs_interval and interval is None:
        errors.append(f"missing required field 'interval' for command {command!r}")

    n_errors = len(errors)
    grids = raw.get("grids", {})
    if not isinstance(grids, dict):
        errors.append("grids must be an object")
        grids = {}
    known = [other.grid for other in _COMMANDS.values() if other.grid]
    reads = known if row is None else [row.grid] if row.grid else []
    errors.extend(_name_errors("grid", grids, known, command, reads, [] if row is None else reads))
    for name, grid in grids.items():
        if not isinstance(grid, list) or not grid:
            errors.append(f"grid {name!r} must be a nonempty list")
            continue
        if not all(_finite(v) for v in grid):
            errors.append(f"grid {name!r} must contain finite numbers only")
            continue
        if any(b <= a for a, b in zip(grid, grid[1:])):
            errors.append(f"grid {name!r} not increasing")
        if name in ("R", "lengths") and not all(v > 0 for v in grid):
            errors.append(f"grid {name!r} must be positive")
        if name == "R" and len(grid) < 4:
            errors.append("grid 'R' must hold at least 4 values")
    grids_ok = len(errors) == n_errors

    n_errors = len(errors)
    params = raw.get("params", {})
    if not isinstance(params, dict):
        errors.append("params must be an object")
        params = {}
    known = list(dict.fromkeys(name for other in _COMMANDS.values() for name in other.params))
    reads = known if row is None else row.params
    required = () if row is None else row.required
    errors.extend(_name_errors("parameter", params, known, command, reads, required))
    errors.extend(_kind_errors(params, known, "parameter {!r}"))
    # values a run rejects before it computes anything
    errors.extend(f"parameter {name!r} must be positive" for name in ("r", "R")
                  if name in reads and _finite(params.get(name)) and params[name] <= 0)
    params_ok = len(errors) == n_errors

    output = raw.get("output", {})
    if not isinstance(output, dict):
        errors.append("output must be an object")
        output = {}
    errors.extend(_unknown("output key", output, _OUTPUT_KEYS))
    output_format = output.get("format", "csv")
    if output_format not in ("csv", "json"):
        errors.append(f"output.format must be 'csv' or 'json', got {output_format!r}")
    output_path = output.get("path", "experiment." + (output_format if output_format in ("csv", "json") else "csv"))

    config = ExperimentConfig(
        command=command,
        family=family,
        seed=seed,
        directions=directions,
        interval=interval,
        grids=grids,
        params=params,
        output_path=str(output_path),
        output_format=output_format,
    )
    config.interval_spec = interval_spec
    fparams = family.get("params", {})
    family_errors = _kind_errors(fparams, _FAMILY_PARAMS, "family.params.{}") if isinstance(fparams, dict) else None
    errors.extend(family_errors or [])
    family_ok = family_errors == []  # the params are an object, and each passes its kind
    if command == "dd-condition":
        errors.extend(_dd_family_errors(family, grids.get("delta") if grids_ok and family_ok else None))
    elif family_ok and family.get("kind") in FAMILY_KINDS:
        try:
            built = config.exponent_family = _build_family(config)
        except KeyError as exc:
            errors.append(f"family.params is missing {exc.args[0]!r}")
        except (ValueError, TypeError) as exc:
            errors.append(f"family.params: {exc}")
        else:
            N_max = params.get("N_max", DEFAULT_N_MAX)
            if command == "bounds-sweep" and params_ok and 2 * N_max + 1 > len(built):
                errors.append(
                    f"parameter 'N_max' = {N_max} needs 2*N_max+1 = {2 * N_max + 1} exponents, "
                    f"the family has {len(built)}"
                )
            if command in ("trace", "defect-decay") and params_ok:
                _, _, _, y, r = _window_args(config)
                if not np.any(np.abs(built.exponents - y) < r):  # the strict test of analysis._window
                    errors.append(f"params: no exponent w with |w - y| < r = {r!r} at y = {y!r}: V_r is empty")
                elif interval_spec is not None and (command == "trace" or grids_ok):  # the grid at the least r + R
                    where, R = ("params", params["R"]) if command == "trace" else ("grid 'R'", grids["R"][0])
                    L = interval_spec.length  # FourierGrid.centered's test, on the lattice points nearest y
                    gamma = 2.0 * math.pi * (np.rint(y * L / (2.0 * math.pi)) + np.array([-1.0, 0.0, 1.0])) / L
                    if not np.any(np.abs(gamma - y) < r + R):
                        errors.append(f"{where}: no grid frequency 2*pi*n/|I| with |2*pi*n/|I| - y| < r + R "
                                      f"at y = {y!r}, r = {r!r}, R = {R!r}: the Fourier grid is empty")
            if command == "density" and grids_ok:
                try:
                    config.density_estimate = estimate_density(built, grids["r"])
                except ValueError as exc:
                    errors.append(f"grid 'r': {exc}")
            # sharpness partitions by its params, the other commands follow directions
            where, ready = ("params", params_ok) if command == "sharpness" else ("directions", directions_ok)
            if row is not None and row.builds_directions and ready:
                try:
                    config.direction_assignment, config.partition = _directions(config, built)
                except ValueError as exc:
                    errors.append(f"{where}: {exc}")
    if errors:
        raise ConfigError(errors)
    return config


def _build_family(config: ExperimentConfig):
    params = dict(config.family.get("params", {}))
    kind = config.family["kind"]
    if kind == "perturbed-lattice":
        params.setdefault("seed", config.seed)
    return generate_family(kind, **params)


def _directions(config: ExperimentConfig, family) -> tuple[DirectionAssignment, Partition | None]:
    """One direction per family position, and the sharpness partition it comes from, if any."""
    options = config.params if config.command == "sharpness" else config.directions
    rule = "partition" if config.command == "sharpness" else options.get("rule", "constant")
    d = int(options.get("d", 1))
    if rule == "constant":
        return DirectionAssignment.constant(family, d, axis=int(options.get("axis", 0))), None
    if rule == "random":
        return DirectionAssignment.random(family, d, seed=int(options.get("seed", config.seed))), None
    partition = build_sharpness_partition(family, d, float(options["alpha"]), options.get("period_count"))
    return DirectionAssignment.from_partition(partition), partition


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".16e")  # 17 significant digits: lossless for doubles
    return str(value)


def _run_density(config: ExperimentConfig):
    family, est = config.exponent_family, config.density_estimate
    rows = [
        {"r": float(r), "count": int(c)}
        for r, c in zip(est.radii, est.counts)
    ]
    summary = {
        "dplus_estimate": est.dplus_estimate,
        "intercept": est.intercept,
        "residual": est.residual,
        "fit_window": list(est.fit_window),
        "family_size": len(family),
    }
    return rows, summary


def _run_gram(config: ExperimentConfig):
    G = assemble_gram(ExponentialSystem(config.exponent_family, config.direction_assignment), config.interval_spec)
    lo, hi = extreme_eigenvalues(G)
    n = G.shape[0]
    # "+ 0.0" writes an exact zero as 0.0: the sign of a zero tells only how the entry was formed
    rows = [
        {"row": j, "col": k, "re": float(G[j, k].real) + 0.0, "im": float(G[j, k].imag) + 0.0}
        for j in range(n)
        for k in range(n)
    ]
    residual = float(np.max(np.abs(G - G.conj().T)))
    summary = {"n": n, "lambda_min": lo, "lambda_max": hi, "hermiticity_residual": residual}
    return rows, summary


def _run_bounds_sweep(config: ExperimentConfig):
    return threshold_sweep(config.exponent_family, config.direction_assignment, config.grids["lengths"],
                           N_max=config.params.get("N_max", DEFAULT_N_MAX))


def _window_args(config: ExperimentConfig):
    """(family, directions, interval, y, r): the window arguments of trace and defect-decay."""
    family = config.exponent_family
    y = float(config.params.get("y", 0.5 * (family.exponents[0] + family.exponents[-1])))
    return family, config.direction_assignment, config.interval_spec, y, float(config.params["r"])


def _run_trace(config: ExperimentConfig):
    exp = run_trace_experiment(*_window_args(config), float(config.params["R"]))
    return [exp.to_row()], {"card_omega_r": exp.card_omega_r, "card_gamma": exp.card_gamma}


def _run_defect_decay(config: ExperimentConfig):
    return defect_decay_fit(*_window_args(config), config.grids["R"])


def _run_dd_condition(config: ExperimentConfig):
    # only the values the config gives: the defaults live in conditioning_comparison
    options = {**config.family.get("params", {}), **config.params}
    return conditioning_comparison(config.interval_spec, config.grids["delta"], **options)


def _run_sharpness(config: ExperimentConfig):
    partition, interval = config.partition, config.interval_spec
    G = assemble_gram(ExponentialSystem(config.exponent_family, config.direction_assignment), interval)
    rows = []
    max_density = 0.0
    block_residual = 0.0
    for j in range(1, partition.d + 1):
        sub = partition.class_family(j)
        if sub is None:
            rows.append({"class": j, "size": 0, "density": 0.0, "threshold_length": 0.0,
                         "lambda_min": float("nan"), "lambda_max": float("nan")})
            continue
        positions = partition.class_indices(j)
        block = G[np.ix_(positions, positions)]
        scalar = assemble_gram(
            ExponentialSystem(sub, DirectionAssignment.constant(sub, 1)), interval
        )
        block_residual = max(block_residual, float(np.max(np.abs(block - scalar))))
        if len(sub) >= 8:
            span = sub.span
            r_grid = np.linspace(max(1.0, span / 16), span, 12)
            density = estimate_density(sub, r_grid).dplus_estimate
        else:
            density = float("nan")
        lo, hi = extreme_eigenvalues(scalar)
        max_density = max(max_density, density if not math.isnan(density) else 0.0)
        rows.append(
            {
                "class": j,
                "size": len(sub),
                "density": density,
                "threshold_length": 2.0 * math.pi * density if not math.isnan(density) else float("nan"),
                "lambda_min": lo,
                "lambda_max": hi,
            }
        )
    summary = {
        "target_alpha": partition.target_alpha,
        "block_identity_residual": block_residual,
        "max_class_density": max_density,
        "period_exponent_count": partition.period_exponent_count,
    }
    return rows, summary


# runner, the one grid read (and required), the params read and the required ones, needs an interval, builds directions
_Command = namedtuple("_Command", "run grid params required needs_interval builds_directions")
_COMMANDS = {
    "density": _Command(_run_density, "r", (), (), False, False),
    "gram": _Command(_run_gram, None, (), (), True, True),
    "bounds-sweep": _Command(_run_bounds_sweep, "lengths", ("N_max",), (), False, True),
    "trace": _Command(_run_trace, None, ("r", "R", "y"), ("r", "R"), True, True),
    "defect-decay": _Command(_run_defect_decay, "R", ("r", "y"), ("r",), True, True),
    "dd-condition": _Command(_run_dd_condition, "delta", ("gamma_prime", "M", "normalize_dd"), (), True, False),
    "sharpness": _Command(_run_sharpness, None, ("alpha", "d", "period_count"), ("alpha", "d"), True, True),
}


def _write_csv(path: Path, config: ExperimentConfig, rows: list[dict], summary: dict) -> None:
    lines = [
        f"# inghamlab {__version__}",
        f"# seed={config.seed}",
        "# config=" + json.dumps(config.canonical(), sort_keys=True, separators=(",", ":")),
        "# summary=" + json.dumps(summary, sort_keys=True, separators=(",", ":")),
    ]
    if rows:
        header = list(rows[0].keys())
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(row[key]) for key in header))
    path.write_text("\n".join(lines) + "\n")


def _json_value(value):
    """RFC 8259 JSON has no NaN or Infinity: undefined values are written as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _write_json(path: Path, config: ExperimentConfig, rows: list[dict], summary: dict) -> None:
    document = {
        "tool_version": __version__,
        "seed": config.seed,
        "config": config.canonical(),
        "summary": summary,
        "rows": rows,
    }
    path.write_text(json.dumps(_json_value(document), sort_keys=True, indent=1, allow_nan=False) + "\n")


def run(config: ExperimentConfig, out_path: str | None = None) -> int:
    """Execute a validated config and write its artifact.  Returns exit status."""
    try:
        rows, summary = _COMMANDS[config.command].run(config)
    except (NearSingularGramError, ArithmeticError, FloatingPointError, MemoryError) as exc:
        raise NumericalFailure(f"command {config.command!r}: {exc}") from exc
    path = Path(out_path if out_path is not None else config.output_path)
    if config.output_format == "csv":
        _write_csv(path, config, rows, summary)
    else:
        _write_json(path, config, rows, summary)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="inghamlab",
        description="Run frame-bound, density, trace, and conditioning experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", help="output path (overrides the config)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format (overrides the config)")
    parser.add_argument("--seed", type=int, help="seed override (recorded in the artifact)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not text
        print(f"error: cannot read config file {args.config}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, seed=args.seed)
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    if args.format is not None:
        config.output_format = args.format
    out = Path(args.out if args.out is not None else config.output_path)
    if not out.parent.is_dir():  # before the computation, not after it
        print(f"error: cannot write output file {out}: no directory {out.parent}", file=sys.stderr)
        return 2
    try:
        return run(config, out_path=str(out))
    except (NumericalFailure, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output file {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
