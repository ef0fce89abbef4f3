"""Every name a module imports is used in that module, and the package
exports exactly the names its modules list."""

import ast
import importlib
from pathlib import Path

import pytest

import separability

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in (ROOT / "src", ROOT / "tests") for path in folder.rglob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":  # a star import binds no single name
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = (
        "import os\nimport sys\nfrom math import pi, tau\nfrom cmath import *\n"
        "print(sys.argv, tau)\n"
    )
    assert _unused_imports(source) == ["os (line 1)", "pi (line 3)"]


PUBLIC_MODULES = (
    "dataset", "fetch", "generators", "distances", "stats", "dsi", "measures", "errors"
)


def test_package_exports_what_the_modules_list():
    modules = {name: importlib.import_module(f"separability.{name}") for name in PUBLIC_MODULES}
    listed = {name: module for module in modules.values() for name in module.__all__}
    assert len(set(separability.__all__)) == len(separability.__all__)
    assert set(separability.__all__) - {"__version__"} == set(listed)
    for name, module in listed.items():
        assert getattr(separability, name) is getattr(module, name), name
