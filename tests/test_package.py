"""Package boundaries: public exports, private names, and file writes."""

import argparse
import ast
import dataclasses
import inspect
import pathlib
import re
import subprocess
import sys

import pytest

import brownian_lstm
from brownian_lstm import cli
from brownian_lstm.experiments import ExperimentConfig, emit_paths_figure
from brownian_lstm.training import TrainConfig
from helpers import child_env

PACKAGE_DIR = pathlib.Path(brownian_lstm.__file__).parent


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").startswith(
            "brownian_lstm")
        for alias in node.names:
            if internal and alias.name.startswith("_") \
                    and not alias.name.startswith("__"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_another_modules_private_names():
    found = [hit for path in sorted(PACKAGE_DIR.glob("*.py"))
             for hit in _private_imports(path)]
    assert found == []


def test_every_exported_name_resolves():
    missing = [name for name in brownian_lstm.__all__
               if not hasattr(brownian_lstm, name)]
    assert missing == []


def _file_writes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "write_text" and path.name == "numerics.py"
              for inner in ast.walk(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "makedirs":
            yield f"{path.name}:{node.lineno} calls os.makedirs"
        if isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords
                                      if kw.arg == "mode"]
            # A mode the walk cannot read counts as a write.
            if any(not isinstance(mode, ast.Constant)
                   or not set(str(mode.value)) <= set("rbt")
                   for mode in modes):
                yield f"{path.name}:{node.lineno} opens for writing"


def test_only_write_text_writes_files():
    found = [hit for path in sorted(PACKAGE_DIR.glob("*.py"))
             for hit in _file_writes(path)]
    assert found == []


def _scalar_parameter_paths(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id == "float"
                   for n in names):
                yield f"{path.name}:{node.lineno} tests isinstance float"
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if any(isinstance(o, ast.Constant) and o.value == "alpha"
                   for o in operands):
                yield f"{path.name}:{node.lineno} compares with 'alpha'"


def test_training_updates_alpha_like_every_other_parameter():
    # alpha is one of the PARAM_KEYS arrays: clipping and the optimizer
    # need no type test and no alpha-only branch.
    assert list(_scalar_parameter_paths(PACKAGE_DIR / "training.py")) == []


_PROCESS_MODULES = ("multiprocessing", "concurrent.futures", "threading",
                    "subprocess", "os.fork")


def _process_creation(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}"
                                for alias in node.names]
        else:
            modules = []
        for module in modules:
            if any(module == banned or module.startswith(banned + ".")
                   for banned in _PROCESS_MODULES):
                yield f"{path.name}:{node.lineno} imports {module}"
        if isinstance(node, ast.Attribute) and node.attr == "fork" \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            yield f"{path.name}:{node.lineno} uses os.fork"


# The harness worker pool joins every worker it starts, and RngStream's
# read-ahead threads are the package's only threads, joined before the
# pool forks; no other module may start processes or threads.
_ALLOWED_STARTS = {"experiments.py": ("multiprocessing", "concurrent.futures"),
                   "numerics.py": ("threading",)}


def test_only_experiments_starts_processes():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        allowed = _ALLOWED_STARTS.get(path.name, ())
        for hit in _process_creation(path):
            module = hit.partition(" imports ")[2]
            if not any(module == a or module.startswith(a + ".")
                       for a in allowed):
                found.append(hit)
    assert found == []


_FLAG_TABLES = ((TrainConfig, cli._TRAIN_FLAGS),
                (ExperimentConfig, cli._EXPERIMENT_FLAGS),
                (emit_paths_figure, cli._PATHS_FLAGS))


def _declared(target) -> dict:
    """{field or parameter: declared default} of a dataclass or function."""
    if dataclasses.is_dataclass(target):
        return {f.name: f.default for f in dataclasses.fields(target)}
    return {name: p.default
            for name, p in inspect.signature(target).parameters.items()}


def test_cli_flags_name_fields_of_their_targets():
    # A misspelt field would fail only when someone passed that flag.
    for target, table in _FLAG_TABLES:
        fields = _declared(target)
        assert [f for f, *_ in table.values() if f not in fields] == []
    preset = {f for fields in cli._PRESETS.values() for f in fields}
    assert preset <= set(_declared(ExperimentConfig))


@pytest.mark.parametrize("command", ["describe", "train", "sensitivity",
                                     "compare", "classify", "paths"])
def test_cli_help_shows_the_declared_defaults(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    shown = {}
    for action in sub.choices[command]._actions:
        match = re.search(r"\(default (.*)\)$", action.help or "")
        if match:
            shown[action.dest] = match.group(1)
    assert shown
    for flag, text in shown.items():
        target, table = next((t, table) for t, table in _FLAG_TABLES
                             if flag in table and (command == "paths")
                             == (t is emit_paths_figure))
        default = _declared(target)[table[flag][0]]
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        assert text == str(default), flag
    if command in ("train", "compare"):
        assert {"lookback": "60", "lr": "0.001", "seed": "1"}.items() \
            <= shown.items()
        assert "m" not in shown


def _imported_modules(code: str) -> set:
    """Names in sys.modules after running code in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{code}\nprint(' '.join(sys.modules))"],
        capture_output=True, text=True, env=child_env(), check=True)
    return set(done.stdout.split())


def test_scipy_is_imported_only_when_a_gelu_kind_is_built():
    # scipy.special takes longer to import than the rest of the package,
    # and only GELU's erf needs it.
    assert "scipy" not in _imported_modules(
        "import brownian_lstm, brownian_lstm.cli\n"
        "brownian_lstm.ActivationKind.brownian()")
    assert "scipy.special" in _imported_modules(
        "import brownian_lstm\nbrownian_lstm.ActivationKind('gelu')")


def test_pool_modules_are_imported_only_when_a_pool_starts():
    # Single-cell runs never start a pool, so they should not pay for
    # importing one.
    loaded = _imported_modules("import brownian_lstm, brownian_lstm.cli")
    assert {"multiprocessing", "concurrent.futures"} & loaded == set()
