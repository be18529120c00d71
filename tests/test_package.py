"""Package boundaries: public exports, private names, and file writes."""

import ast
import pathlib

import brownian_lstm

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


def test_only_experiments_starts_processes():
    # The harness worker pool joins every worker it starts; no other
    # module may start processes or threads.
    found = [hit for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != "experiments.py"
             for hit in _process_creation(path)]
    assert found == []
