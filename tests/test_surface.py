"""The package defines only what its own pipeline uses.

A name in an ``inghamlab`` module's ``__all__``, or any function, class or
constant a module defines at its top level, private ones included, that no
code in the package reads, apart from its definition and its ``__all__``
entry, is code that only tests reach: it belongs in the tests
(``oracles.py`` holds the references they compare against) or nowhere.  No
module imports another module's private name.  The
CLI's options are the ones the README's usage line shows, no more and no
fewer, its table of what each command reads is the CLI's own, and importing
the CLI does not import what only some commands need.
"""

import ast
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import inghamlab
from inghamlab import cli
from inghamlab.cli import main

PACKAGE = Path(inghamlab.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
README = Path(__file__).resolve().parent.parent / "README.md"
LONG_OPTION = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def package_references() -> set[str]:
    """Every name the package reads: a loaded name or an attribute access.

    Definitions, assignment targets, imports and the string entries of
    ``__all__`` are not reads, so a name used nowhere else is missing here.
    """
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def module_definitions(module: str) -> set[str]:
    """The functions, classes and constants a module defines at its top level, dunder names aside."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used_by_the_package(module):
    exported = getattr(importlib.import_module(f"inghamlab.{module}"), "__all__", [])
    unused = sorted((set(exported) | module_definitions(module)) - package_references())
    assert not unused, f"inghamlab.{module} defines names that only tests reach: {unused}"


def test_no_module_imports_another_modules_private_name():
    # a private name is its module's own business: a second module that needs it needs a public name
    imported = sorted(
        f"{module} <- {node.module}.{alias.name}"
        for module in MODULES
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("inghamlab"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )
    assert not imported, f"private names imported across modules: {imported}"


def test_one_spectral_read():
    # every spectral read goes through gram.extreme_eigenvalues, the one reader of _extreme_spectrum, and
    # neither takes anything but its matrix: no option skips the handover, the residual check or the scaling
    readers, parameters = set(), {}
    for module in MODULES:
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            name = getattr(node, "name", type(node).__name__)
            if name in ("extreme_eigenvalues", "_extreme_spectrum"):
                args = node.args
                parameters[name] = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                                    args.vararg, args.kwarg] if a]
            if any(getattr(sub, "id", getattr(sub, "attr", None)) == "_extreme_spectrum" for sub in ast.walk(node)):
                readers.add(f"{module}.{name}")
    assert readers == {"gram.extreme_eigenvalues"}
    assert parameters == {"extreme_eigenvalues": ["G"], "_extreme_spectrum": ["A"]}


def test_readme_usage_line_matches_cli_options(capsys):
    usage = next(line for line in README.read_text().splitlines() if line.startswith("inghamlab --config"))
    with pytest.raises(SystemExit):
        main(["--help"])
    # argparse adds --help to every parser; the usage line shows the options a run takes
    printed = set(LONG_OPTION.findall(capsys.readouterr().out)) - {"--help"}
    assert set(LONG_OPTION.findall(usage)) == printed


def test_cli_import_leaves_scipy_special_unloaded(tmp_path):
    # scipy.special takes about 0.4 s and 2.6 MB to import cold; only defect_majorant
    # uses it, so neither the import nor a dd-condition or bounds-sweep run loads it
    configs = {
        "dd": {"command": "dd-condition",
               "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0, 8]}},
               "interval": [0.0, 10.0], "grids": {"delta": [1e-6, 1e-2]}, "params": {"M": 2, "gamma_prime": 0.5}},
        "sweep": {"command": "bounds-sweep",
                  "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-20, 20]}},
                  "interval": [0.0, 1.0], "grids": {"lengths": [5.0, 8.0]}, "params": {"N_max": 16}},
    }
    runs = []
    for name, config in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(config, output={"path": str(tmp_path / f"{name}.out.json"), "format": "json"})))
        runs.append(["--config", str(path)])
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    loaded = "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    code = f"import sys, inghamlab.cli; {loaded}; print([inghamlab.cli.main(args) for args in {runs!r}]); {loaded}"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.split("\n")[:3] == ["[]", "[0, 0]", "[]"]


def test_readme_command_table_matches_cli_rows():
    # the README's table of what each command reads is cli._COMMANDS, row for row
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command | grid"))
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        command, grid, params, interval, directions = (cell.strip() for cell in line.strip("|").split("|"))
        names = [] if params == "none" else params.split(", ")
        table[command.strip("`")] = (None if grid == "none" else grid.strip("`"),
                                     tuple(name.strip("*`") for name in names),
                                     tuple(name.strip("*`") for name in names if name.startswith("**")),
                                     interval == "yes", directions == "yes")
    assert table == {command: row[1:] for command, row in cli._COMMANDS.items()}  # all but the runner


def test_readme_config_examples_run(tmp_path):
    # every fenced json block of the README is a config the CLI runs as written
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for k, block in enumerate(blocks):
        path = tmp_path / f"example{k}.json"
        path.write_text(block)
        assert main(["--config", str(path), "--out", str(tmp_path / f"example{k}.out")]) == 0
