"""Package boundaries: public exports and private names."""

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
