"""Every name a module imports is used in that module, every private
module-level name in ``src`` is referenced somewhere, and the package
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


def _private_definitions(source: str) -> dict[str, int]:
    """The module-level functions, classes and constants named ``_x``, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _references(source: str) -> set[str]:
    """Names a module reads: bare, as an attribute, imported, or named in a
    string (as ``monkeypatch.setattr(module, "_name", ...)`` does)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _dead_private_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Private definitions of ``modules`` (name -> source) that no module of
    ``modules`` or ``readers`` references."""
    used = set().union(*map(_references, [*modules.values(), *readers]))
    return [
        f"{module}: {name} (line {line})"
        for module, source in modules.items()
        for name, line in _private_definitions(source).items()
        if name not in used
    ]


def test_no_dead_private_definitions():
    sources = {path: path.read_text(encoding="utf-8") for path in MODULES}
    package = {str(p.relative_to(ROOT)): s for p, s in sources.items() if ROOT / "src" in p.parents}
    readers = [s for p, s in sources.items() if ROOT / "src" not in p.parents]
    assert _dead_private_definitions(package, readers) == []


def test_finds_a_dead_private_definition():
    module = (
        "_USED = 1\n_UNUSED: int = 2\n\n"
        "def _helper():\n    return _USED\n\n"
        "class _Gone:\n    _inner = 3\n\n"
        "def _tested():\n    pass\n\n"
        "def _patched():\n    pass\n\n"
        "def public():\n    pass\n"
    )
    tests = (
        "from mod import _tested\n\n"
        "def test(monkeypatch):\n    monkeypatch.setattr(m, '_patched', 0)\n"
    )
    assert _dead_private_definitions({"mod": module}, [tests]) == [
        "mod: _UNUSED (line 2)",
        "mod: _helper (line 4)",
        "mod: _Gone (line 7)",
    ]


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
