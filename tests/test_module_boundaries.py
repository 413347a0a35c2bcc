"""Each module keeps its private names: no module imports another's."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdacovert"
MODULES = sorted(SRC.glob("*.py"))


def imports(path):
    """(module imported from, name) of every from-import in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("fdacovert"):
                continue
            module = module.rpartition(".")[2] if node.level == 0 else module
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fdacovert"):
                    yield alias.name.rpartition(".")[2], ""


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_another_modules_private_names(path):
    crossing = [f"{module}.{name}" for module, name in imports(path) if private(name)]
    assert crossing == []


def test_schemes_does_not_import_fieldmap():
    # fieldmap builds plans with schemes; the region search lives in fieldmap
    found = [(m, n) for m, n in imports(SRC / "schemes.py") if "fieldmap" in (m, n)]
    assert found == []
